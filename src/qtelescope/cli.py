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

Exit status: 0 if every emitted certificate verified, 1 if any failed,
2 on a usage or precondition error (any ValueError a row raises, or a
--json path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from typing import Optional

from . import andrews12, macmahon
from .macmahon import MacPair
from .andrews12 import Triple
from .telescope import Certificate, MarkedObject

USAGE_ERROR = 2

# A row's flag is added as add_argument(name, **keywords); the flags of one
# row that share a group are mutually exclusive.
Flag = namedtuple("Flag", "name keywords group", defaults=[None])
N = Flag("--n", dict(type=int, required=True))
M = Flag("--m", dict(type=int, required=True))
K = Flag("--k", dict(type=int, required=True))
N_RANGE = (Flag("--n", dict(type=int), group="n"),
           Flag("--n-max", dict(type=int, metavar="N", help="default 4"), group="n"))
M_RANGE = (Flag("--m", dict(type=int), group="m"),
           Flag("--m-max", dict(type=int, metavar="M", help="default 4"), group="m"))
CAP = Flag("--cap", dict(type=int, default=30, metavar="D", help="weight cap (default 30)"))
SERIES_CAP = Flag("--cap", dict(type=int, metavar="D",
                                help="series truncation degree (default n^2 + 15)"))
OUTPUT = (Flag("--json", dict(dest="json_path", metavar="PATH",
                              help="also write the certificates to this file")),
          Flag("--format", dict(choices=["text", "json"], default="text")))


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
        if args.json_path:
            try:
                with open(args.json_path, "w") as fh:
                    json.dump([c.to_json_obj() for c in certs], fh, sort_keys=True, indent=2)
                    fh.write("\n")
            except OSError as exc:
                raise ValueError(f"cannot write --json {args.json_path}: {exc.strerror}")
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


def _row_parser(command: str, target: str) -> argparse.ArgumentParser:
    """The parser of one row: it accepts that row's flags and no other."""
    parser = argparse.ArgumentParser(prog=f"qtelescope {command} {target}")
    parser.add_argument("command", help=argparse.SUPPRESS)
    parser.add_argument("target", help=argparse.SUPPRESS)
    adds_to = {None: parser}
    for flag in ROWS[command, target][0]:
        if flag.group not in adds_to:
            adds_to[flag.group] = parser.add_mutually_exclusive_group()
        adds_to[flag.group].add_argument(flag.name, **flag.keywords)
    return parser


def _find_row(argv: list[str]) -> tuple[str, str]:
    """The row of an argv whose COMMAND and TARGET stand among the flags (each
    known here only as taking one value); exits 0 on --help, else 2, if none."""
    parser = argparse.ArgumentParser(
        prog="qtelescope", add_help=False,
        description="Exact verification of the MacMahon and Andrews partition "
                    "identities via telescoping bijections.",
        epilog="rows (see 'qtelescope COMMAND TARGET --help' for each one's "
               "flags):\n" + "\n".join(f"  {c} {t}" for c, t in ROWS),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-h", "--help", action="store_true",
                        help="show this help message and exit")
    for i, name in enumerate(("COMMAND", "TARGET")):
        parser.add_argument(name.lower(), nargs="?", metavar=name,
                            choices=list(dict.fromkeys(row[i] for row in ROWS)))
    for name in dict.fromkeys(f.name for flags, _ in ROWS.values() for f in flags):
        parser.add_argument(name, help=argparse.SUPPRESS)
    words, _ = parser.parse_known_intermixed_args(argv)
    if (words.command, words.target) in ROWS:
        return words.command, words.target
    if words.help:
        parser.print_help()
        parser.exit()
    parser.error(f"{words.command} has no target {words.target}" if words.target
                 else "COMMAND and TARGET are required")


def run(argv: list[str], out=sys.stdout) -> int:
    try:
        # COMMAND TARGET mostly come first, which spares building _find_row's parser
        row = tuple(argv[:2]) if tuple(argv[:2]) in ROWS else _find_row(argv)
        args = _row_parser(*row).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return ROWS[row][1](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
