"""Command-line front end: run verifications over parameter grids, emit
JSON certificates, and render text Young diagrams for single-orbit audits.

Grammar:
    verify macmahon [--n N | --n-max N] [--m M | --m-max M]
                    [--json PATH] [--format {text,json}]
    verify andrews  [--n N | --n-max N] [--cap D]
                    [--json PATH] [--format {text,json}]
    check-bijection macmahon-phi --n N --m M --k K
                    [--json PATH] [--format {text,json}]
    check-bijection macmahon-psi --n N --k K
                    [--json PATH] [--format {text,json}]
    check-bijection (andrews-phi|andrews-involution) --n N --k K [--cap D]
                    [--json PATH] [--format {text,json}]
    trace andrews --n N --k K [--cap D]     (some map must lower (n, k))

Exit status: 0 if every emitted certificate verified, 1 if any failed,
2 on a usage or precondition error (any ValueError a subcommand raises).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import andrews12, macmahon
from .macmahon import MacPair
from .andrews12 import Triple
from .telescope import Certificate, MarkedObject

USAGE_ERROR = 2
ANDREWS_DEFAULT_CAP = 30


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtelescope",
        description="Exact verification of the MacMahon and Andrews "
                    "partition identities via telescoping bijections.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run identity/recurrence checks")
    verify.add_argument("target", choices=["macmahon", "andrews"])
    for single, upper in (("--n", "--n-max"), ("--m", "--m-max")):
        group = verify.add_mutually_exclusive_group()
        group.add_argument(single, type=int, default=None)
        group.add_argument(upper, type=int, default=None)
    verify.add_argument("--cap", type=int, default=None,
                        help="series truncation degree (andrews only; "
                             "defaults to n^2 + 15)")
    verify.add_argument("--json", dest="json_path", default=None,
                        help="also write the certificates to this file")
    verify.add_argument("--format", choices=["text", "json"], default="text")

    check = sub.add_parser("check-bijection",
                           help="certify a single map instance")
    check.add_argument("which", choices=["macmahon-phi", "macmahon-psi",
                                         "andrews-phi", "andrews-involution"])
    check.add_argument("--n", type=int, required=True)
    check.add_argument("--m", type=int, default=None)
    check.add_argument("--k", type=int, required=True)
    check.add_argument("--cap", type=int, default=None,
                       help="weight cap (andrews maps only; defaults to "
                            f"{ANDREWS_DEFAULT_CAP})")
    check.add_argument("--json", dest="json_path", default=None)
    check.add_argument("--format", choices=["text", "json"], default="text")

    trace = sub.add_parser("trace",
                           help="print every orbit of a map instance")
    trace.add_argument("target", choices=["andrews"])
    trace.add_argument("--n", type=int, required=True)
    trace.add_argument("--k", type=int, required=True)
    trace.add_argument("--cap", type=int, default=ANDREWS_DEFAULT_CAP)
    return parser


def render_diagram(obj) -> str:
    """Text Young diagram: one row of cells per part, zero parts as a bare
    row marker, marked objects prefixed with their marker weight."""
    if isinstance(obj, MarkedObject):
        prefix = f"[marker {obj.marker_q}]"
        if obj.marker_z:
            prefix = f"[marker {obj.marker_q}, z{obj.marker_z:+d}]"
        body = render_diagram(obj.payload)
        if "\n" not in body and body == "(empty)":
            return f"{prefix} {body}"
        return prefix + "\n" + body

    def rows(partition) -> list[str]:
        return [("■" * p if p else "·") for p in partition.parts]

    def block(label: str, partition) -> list[str]:
        body = rows(partition)
        if not body:
            return [f"{label} (empty)"]
        pad = " " * len(label)
        return [f"{label} {body[0]}"] + [f"{pad} {row}" for row in body[1:]]

    if isinstance(obj, Triple):
        if obj.tau.is_empty() and obj.lam.is_empty() and obj.mu.is_empty():
            return "(empty)"
        lines = block("tau:", obj.tau) + block("lam:", obj.lam) + block("mu: ", obj.mu)
        return "\n".join(lines)
    if isinstance(obj, MacPair):
        if obj.side == 0 and obj.mu.is_empty():
            return "(empty)"
        size = abs(obj.side)
        label = f"side {obj.side}:"
        square = [("■" * size)] * size or ["(empty)"]
        pad = " " * len(label)
        lines = [f"{label} {square[0]}"] + [f"{pad} {row}" for row in square[1:]]
        return "\n".join(lines + block("mu:  ", obj.mu))
    return str(obj)


def _emit(certs: list[Certificate], fmt: str, json_path: Optional[str],
          out=sys.stdout) -> int:
    for cert in certs:
        print(cert.to_json() if fmt == "json" else cert.summary(), file=out)
    if json_path:
        with open(json_path, "w") as fh:
            json.dump([c.to_json_obj() for c in certs], fh, sort_keys=True,
                      indent=2)
            fh.write("\n")
    return 0 if all(c.verified for c in certs) else 1


def _index_range(single: Optional[int], upper: Optional[int],
                 default_max: int) -> list[int]:
    if single is not None:
        return [single]
    if upper is not None and upper < 0:
        raise ValueError(f"upper bound must be nonnegative, got {upper}")
    return list(range(0, (upper if upper is not None else default_max) + 1))


def _verify(args, out) -> int:
    if args.target == "andrews" and (args.m, args.m_max) != (None, None):
        raise ValueError("--m and --m-max apply to macmahon only")
    if args.target == "macmahon":
        if args.cap is not None:
            raise ValueError("--cap applies to andrews only")
        certs = [macmahon.verify_macmahon(n, m)
                 for n in _index_range(args.n, args.n_max, 4)
                 for m in _index_range(args.m, args.m_max, 4)]
        return _emit(certs, args.format, args.json_path, out)
    certs = []
    for n in _index_range(args.n, args.n_max, 4):
        cap = args.cap if args.cap is not None else n * n + 15
        certs += [andrews12.verify_andrews(n, cap, which)
                  for which in andrews12.sum_checks(n)]
    return _emit(certs, args.format, args.json_path, out)


def _check_bijection(args, out) -> int:
    if args.which != "macmahon-phi" and args.m is not None:
        raise ValueError("--m applies to macmahon-phi only")
    if args.which.startswith("macmahon") and args.cap is not None:
        raise ValueError("--cap applies to the andrews maps only")
    cap = ANDREWS_DEFAULT_CAP if args.cap is None else args.cap
    if args.which == "macmahon-phi":
        if args.m is None:
            raise ValueError("macmahon-phi requires --m")
        cert = macmahon.phi_certificate(args.n, args.m, args.k)
    elif args.which == "macmahon-psi":
        cert = macmahon.psi_certificate(args.n, args.k)
    elif args.which == "andrews-phi":
        cert = andrews12.phi_certificate(args.n, args.k, cap)
    else:
        cert = andrews12.involution_certificate(args.n, args.k, cap)
    return _emit([cert], args.format, args.json_path, out)


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


def run(argv: list[str], out=sys.stdout) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        if args.command == "verify":
            return _verify(args, out)
        if args.command == "check-bijection":
            return _check_bijection(args, out)
        return _trace(args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
