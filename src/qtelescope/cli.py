"""Command-line front end: run verifications over parameter grids, emit
JSON certificates, and render text Young diagrams for single-orbit audits.

Grammar (ROWS states each row's flags; every row but trace also takes
[--json PATH] [--format {text,json}]):
    verify macmahon [--n N | --n-max N] [--m M | --m-max M]
    verify andrews  [--n N | --n-max N] [--cap D]
    check-bijection macmahon-phi --n N --m M --k K
    check-bijection macmahon-psi --n N --k K
    check-bijection macmahon-cancelation --n N --m M
    check-bijection (andrews-phi|andrews-involution) --n N --k K [--cap D]
    trace andrews --n N --k K [--cap D]     (some map must lower (n, k))

The argv is read by _parse from the ROWS table alone; no parser object is
built or kept.  COMMAND and TARGET are the first two words that are not
flags or flag values, wherever they stand.  A flag takes one value, as
--flag VALUE or --flag=VALUE; a negative number (--k -2) is a value, not
a flag, and every argument after "--" is a word.  A repeated flag keeps
its last value.  Flag names are given in full: an abbreviation such as
--ca is not read as --cap.  -h/--help prints the help of the row (or,
with no row, the list of rows) and exits 0.  A flag the row does not
take, a missing required flag, two flags of one group (--n with --n-max,
even at the default), a value that is not an int or not among the
choices, or an argv that names no row prints the usage line and the
reason to stderr and exits 2.

Exit status: 0 if every emitted certificate verified, 1 if any failed,
2 on a usage or precondition error (any ValueError a row raises, or a
--json path that cannot be written).
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from types import SimpleNamespace
from typing import Optional

from . import andrews12, macmahon
from .macmahon import MacPair
from .andrews12 import Triple
from .telescope import Certificate, MarkedObject

USAGE_ERROR = 2

# A row's flag takes one value, converted by type and, where it has choices,
# checked against them; the value is stored under the name less its dashes,
# "-" read as "_" (--n-max as n_max).  The flags of one row that share a
# group are mutually exclusive.
Flag = namedtuple("Flag", "name metavar type required default group choices help",
                  defaults=(int, False, None, None, None, ""))
N = Flag("--n", "N", required=True)
M = Flag("--m", "M", required=True)
K = Flag("--k", "K", required=True)
N_RANGE = (Flag("--n", "N", group="n"), Flag("--n-max", "N", group="n", help="default 4"))
M_RANGE = (Flag("--m", "M", group="m"), Flag("--m-max", "M", group="m", help="default 4"))
CAP = Flag("--cap", "D", default=30, help="weight cap (default 30)")
SERIES_CAP = Flag("--cap", "D", help="series truncation degree (default n^2 + 15)")
OUTPUT = (Flag("--json", "PATH", str, help="also write the certificates to this file"),
          Flag("--format", "{text,json}", str, default="text", choices=("text", "json")))
HELP = ("-h", "--help")


def render_diagram(obj) -> str:
    """Text Young diagram: one row of cells per part, zero parts as a bare
    row marker, marked objects prefixed with their marker weight."""
    if isinstance(obj, MarkedObject):
        z = f", z{obj.marker_z:+d}" if obj.marker_z else ""
        body = render_diagram(obj.payload)
        return f"[marker {obj.marker_q}{z}]" + (" " if body == "(empty)" else "\n") + body

    def rows(partition) -> list[str]:
        return [("■" * p if p else "·") for p in partition.parts]

    def block(label: str, body: list[str]) -> list[str]:
        if not body:
            return [f"{label} (empty)"]
        pad = " " * len(label)
        return [f"{label} {body[0]}"] + [f"{pad} {row}" for row in body[1:]]

    if isinstance(obj, Triple):
        if obj.tau.is_empty() and obj.lam.is_empty() and obj.mu.is_empty():
            return "(empty)"
        return "\n".join(block("tau:", rows(obj.tau)) + block("lam:", rows(obj.lam))
                         + block("mu: ", rows(obj.mu)))
    if isinstance(obj, MacPair):
        if obj.side == 0 and obj.mu.is_empty():
            return "(empty)"
        size = abs(obj.side)
        square = block(f"side {obj.side}:", ["■" * size] * size)
        return "\n".join(square + block("mu:  ", rows(obj.mu)))
    return str(obj)


def _certifying(certs_of):
    """A row action: print the certificates certs_of(args) returns, write them
    to --json if it is given, and exit 0 only if every one verified."""
    def action(args, out) -> int:
        certs = certs_of(args)
        for cert in certs:
            print(cert.to_json() if args.format == "json" else cert.summary(), file=out)
        if args.json:
            try:
                with open(args.json, "w") as fh:
                    json.dump([c.to_json_obj() for c in certs], fh, sort_keys=True, indent=2)
                    fh.write("\n")
            except OSError as exc:
                raise ValueError(f"cannot write --json {args.json}: {exc.strerror}")
        return 0 if all(c.verified for c in certs) else 1
    return action


def _index_range(single: Optional[int], upper: Optional[int]) -> list[int]:
    if single is not None:
        return [single]
    upper = 4 if upper is None else upper
    if upper < 0:
        raise ValueError(f"upper bound must be nonnegative, got {upper}")
    return list(range(upper + 1))


def _verify_andrews(args) -> list[Certificate]:
    certs = []
    for n in _index_range(args.n, args.n_max):
        cap = args.cap if args.cap is not None else n * n + 15
        certs += [andrews12.verify_andrews(n, cap, which)
                  for which in andrews12.sum_checks(n)]
    return certs


def _trace(args, out) -> int:
    n, k, cap = args.n, args.k, args.cap
    andrews12.lowering_map(n, k)  # raises where no map lowers (n, k)
    elements = andrews12.domain_slice(n, k, cap)
    if not elements:
        raise ValueError(f"empty domain: trace andrews n={n} k={k} cap={cap}")
    print(f"tracing {len(elements)} elements of the (n={n}, k={k}) slice "
          f"at cap {cap}", file=out)
    for i, x in enumerate(elements):
        print(f"--- element {i} ---", file=out)
        for label, value in andrews12.andrews_orbit(n, k, x):
            print(f"{label}:", file=out)
            for line in render_diagram(value).splitlines():
                print(f"  {line}", file=out)
    return 0


# (command, target) -> (the flags it takes, its action(args, out) -> exit code)
ROWS = {
    ("verify", "macmahon"): ((*N_RANGE, *M_RANGE, *OUTPUT), _certifying(
        lambda a: [macmahon.verify_macmahon(n, m)
                   for n in _index_range(a.n, a.n_max)
                   for m in _index_range(a.m, a.m_max)])),
    ("verify", "andrews"): ((*N_RANGE, SERIES_CAP, *OUTPUT), _certifying(_verify_andrews)),
    ("check-bijection", "macmahon-phi"): ((N, M, K, *OUTPUT), _certifying(
        lambda a: [macmahon.phi_certificate(a.n, a.m, a.k)])),
    ("check-bijection", "macmahon-psi"): ((N, K, *OUTPUT), _certifying(
        lambda a: [macmahon.psi_certificate(a.n, a.k)])),
    ("check-bijection", "macmahon-cancelation"): ((N, M, *OUTPUT), _certifying(
        lambda a: [macmahon.cancelation_certificate(a.n, a.m)])),
    ("check-bijection", "andrews-phi"): ((N, K, CAP, *OUTPUT), _certifying(
        lambda a: [andrews12.phi_certificate(a.n, a.k, a.cap)])),
    ("check-bijection", "andrews-involution"): ((N, K, CAP, *OUTPUT), _certifying(
        lambda a: [andrews12.involution_certificate(a.n, a.k, a.cap)])),
    ("trace", "andrews"): ((N, K, CAP), _trace),
}


def _is_flag(arg: str) -> bool:
    """Whether arg reads as a flag: a leading "-" and more, unless it is a
    negative number (the value of --k -2) or holds a space."""
    return (arg[:1] == "-" and len(arg) > 1 and " " not in arg
            and not re.fullmatch(r"-\d+|-\d*\.\d+", arg))


def _usage(row: tuple[str, str]) -> str:
    """The grammar line of a row, as README.md shows it."""
    alternatives = {}
    for flag in ROWS[row][0]:
        alternatives.setdefault(flag.group or flag.name, []).append(flag)
    words = ["qtelescope", *row]
    for group in alternatives.values():
        spec = " | ".join(f"{flag.name} {flag.metavar}" for flag in group)
        words.append(spec if group[0].required else f"[{spec}]")
    return " ".join(words)


def _help(row: Optional[tuple[str, str]]) -> str:
    """The --help text of a row, or with no row the list of rows."""
    if row is None:
        return ("usage: qtelescope [-h] [COMMAND] [TARGET]\n\n"
                "Exact verification of the MacMahon and Andrews partition identities "
                "via telescoping bijections.\n\n"
                "options:\n  -h, --help  show this help message and exit\n\n"
                "rows (see 'qtelescope COMMAND TARGET --help' for each one's flags):\n"
                + "".join(f"  {command} {target}\n" for command, target in ROWS))
    entries = [(", ".join(HELP), "show this help message and exit")]
    entries += [(f"{flag.name} {flag.metavar}", flag.help) for flag in ROWS[row][0]]
    width = max(len(left) for left, _ in entries)
    return f"usage: {_usage(row)}\n\noptions:\n" + "".join(
        f"  {left:<{width}}  {text}".rstrip() + "\n" for left, text in entries)


def _usage_error(row: Optional[tuple[str, str]], reason: str):
    """Print the usage of the row (or of qtelescope) and the reason to
    stderr, and exit 2."""
    usage, prog = ((_usage(row), " ".join(["qtelescope", *row])) if row
                   else ("qtelescope [-h] [COMMAND] [TARGET]", "qtelescope"))
    print(f"usage: {usage}\n{prog}: error: {reason}", file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _choices(values) -> str:
    return ", ".join(map(repr, dict.fromkeys(values)))


def _parse(argv: list[str]) -> tuple[tuple[str, str], SimpleNamespace]:
    """The row an argv names and its flags' values; prints help and exits 0
    on -h/--help, or prints a usage error and exits 2."""
    takes_value = {flag.name for flags, _ in ROWS.values() for flag in flags}
    words, given = [], []  # the positional words; each (flag, value) in argv order
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--":  # what follows are words
            words += argv[i:]
            break
        name, eq, value = arg.partition("=")
        if name in takes_value:
            if not eq:
                value = argv[i] if i < len(argv) and not _is_flag(argv[i]) else None
                i += value is not None
            given.append((name, value))
        elif _is_flag(arg):
            given.append((arg, None))  # -h, --help or no row's flag: no value
        else:
            words.append(arg)

    row = tuple(words[:2])
    if row not in ROWS:
        for label, word, choices in zip(("COMMAND", "TARGET"), row, zip(*ROWS)):
            if word not in choices:
                _usage_error(None, f"argument {label}: invalid choice: {word!r} "
                                   f"(choose from {_choices(choices)})")
        if any(name in HELP for name, _ in given):
            print(_help(None), end="")
            raise SystemExit(0)
        _usage_error(None, f"{row[0]} has no target {row[1]}" if len(row) == 2
                     else "COMMAND and TARGET are required")

    flags = {flag.name: flag for flag in ROWS[row][0]}
    values = {name: flag.default for name, flag in flags.items()}
    chosen = {}  # group -> the flag given for it
    extra = words[2:]
    for name, value in given:
        flag = flags.get(name)
        if flag is None:
            if name in HELP:
                print(_help(row), end="")
                raise SystemExit(0)
            extra += [name] if value is None else [name, value]
        elif value is None:
            _usage_error(row, f"argument {name}: expected one argument")
        else:
            try:
                value = flag.type(value)
            except ValueError:
                _usage_error(row, f"argument {name}: invalid {flag.type.__name__} "
                                  f"value: {value!r}")
            if flag.choices and value not in flag.choices:
                _usage_error(row, f"argument {name}: invalid choice: {value!r} "
                                  f"(choose from {_choices(flag.choices)})")
            if flag.group and chosen.setdefault(flag.group, name) != name:
                _usage_error(row, f"argument {name}: not allowed with argument "
                                  f"{chosen[flag.group]}")
            values[name] = value
    missing = [name for name, flag in flags.items() if flag.required and values[name] is None]
    if missing:
        _usage_error(row, f"the following arguments are required: {', '.join(missing)}")
    if extra:
        _usage_error(row, f"unrecognized arguments: {' '.join(extra)}")
    return row, SimpleNamespace(**{name[2:].replace("-", "_"): value
                                   for name, value in values.items()})


def run(argv: list[str], out=sys.stdout) -> int:
    try:
        row, args = _parse(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return ROWS[row][1](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
