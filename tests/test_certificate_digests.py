"""Certificate digests: one short hash of every certificate on a wide grid,
timing left out, must not change.

The grid is every library certificate at small indices, with each index
range one past its ends:

- verify_macmahon for n, m <= 7;
- MacMahon's phi_certificate, psi_certificate and cancelation_certificate
  for n, m <= 7, k one past each end;
- Andrews' phi_certificate and involution_certificate for n <= 7,
  k in -1 .. n+1 and cap in {0, 1, n^2, 20, 30, 40};
- the three Andrews sum checks for n <= 7 at the CLI's cap n^2 + 15.

A call that raises ValueError is digested by the error's text.  The
golden file (test_golden) pins whole certificates, failing ones
included; this file pins many more, more cheaply.

Regenerate the file only when a certificate is meant to change:
    PYTHONPATH=src python tests/test_certificate_digests.py
"""

import hashlib
import json
from pathlib import Path

from qtelescope import andrews12, macmahon

DIGESTS = Path(__file__).with_name("certificate_digests.json")


def andrews_slices():
    """(n, k, cap) of the Andrews bijection-side grid, in order."""
    return [(n, k, cap) for n in range(8) for k in range(-1, n + 2)
            for cap in sorted({0, 1, n * n, 20, 30, 40})]


def grid():
    """(call, its name) for every certificate of the grid, in order."""
    calls = [(lambda n=n, m=m: macmahon.verify_macmahon(n, m), f"verify_macmahon({n}, {m})")
             for n in range(8) for m in range(8)]
    calls += [(lambda n=n, m=m, k=k: macmahon.phi_certificate(n, m, k),
               f"macmahon.phi_certificate({n}, {m}, {k})")
              for n in range(8) for m in range(8) for k in range(-m - 1, n + 2)]
    calls += [(lambda n=n, k=k: macmahon.psi_certificate(n, k),
               f"macmahon.psi_certificate({n}, {k})")
              for n in range(8) for k in range(-1, n + 2)]
    calls += [(lambda n=n, m=m: macmahon.cancelation_certificate(n, m),
               f"macmahon.cancelation_certificate({n}, {m})")
              for n in range(8) for m in range(8)]
    for name in ("phi_certificate", "involution_certificate"):
        calls += [(lambda n=n, k=k, cap=cap, f=getattr(andrews12, name): f(n, k, cap),
                   f"andrews12.{name}({n}, {k}, {cap})")
                  for n, k, cap in andrews_slices()]
    calls += [(lambda n=n, which=which: andrews12.verify_andrews(n, n * n + 15, which),
               f"andrews12.verify_andrews({n}, {n * n + 15}, {which!r})")
              for n in range(8) for which in ("identity", "rec_fn", "gn")]
    return calls


def digest(call) -> str:
    """The first 16 hex digits of the SHA-256 of the certificate's JSON,
    elapsed_ms left out, or of the text of the ValueError it raises."""
    try:
        row = call().to_json_obj()
        del row["elapsed_ms"]
        text = json.dumps(row, sort_keys=True)
    except ValueError as error:
        text = f"ValueError: {error}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests() -> dict:
    return {name: digest(call) for call, name in grid()}


def test_every_certificate_matches_its_digest():
    pinned = json.loads(DIGESTS.read_text())
    names = [name for _, name in grid()]
    assert names == list(pinned), "the grid is not the pinned file's"
    for call, name in grid():
        assert digest(call) == pinned[name], f"{name} differs from its pinned digest"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=0) + "\n")
