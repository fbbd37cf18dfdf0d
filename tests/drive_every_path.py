"""Every path by which the library reaches its users, run under a profiler
that records each function of src/qtelescope that is called.

The paths: every CLI row at a small size, in text and, where the row
takes it, with --format json, one row with --json PATH; a row's
precondition error that exits 2 with COMMAND and TARGET not first; the
help of qtelescope and of one row, which exit 0; an argv that names no
row, which exits 2; the console entry point cli.main; the three demos;
and every case of tests/bare_failure_path.py.
The profiler is installed before qtelescope is imported, so the calls
made at import (such as cli._certifying, which builds the row actions)
count.

    PYTHONPATH=src python -S tests/drive_every_path.py CALLED.json

writes to CALLED.json a JSON list of [file name, first line] per function
called: the code object's co_firstlineno, which for a decorated function
is the line of its first decorator.  It exits nonzero, with a traceback,
where a path ends with another exit status than the one expected.
"""

import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "qtelescope") + os.sep

called = set()


def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
        called.add((frame.f_code.co_filename[len(PACKAGE):], frame.f_code.co_firstlineno))


sys.setprofile(record)

from qtelescope import cli  # noqa: E402  (imported under the profiler)

# each row's arguments at a small size
ROW_ARGS = {
    ("verify", "macmahon"): ["--n-max", "2", "--m", "2"],
    ("verify", "andrews"): ["--n-max", "2"],
    ("check-bijection", "macmahon-phi"): ["--n", "2", "--m", "2", "--k", "1"],
    ("check-bijection", "macmahon-psi"): ["--n", "3", "--k", "1"],
    ("check-bijection", "macmahon-cancelation"): ["--n", "2", "--m", "2"],
    ("check-bijection", "andrews-phi"): ["--n", "4", "--k", "1", "--cap", "20"],
    ("check-bijection", "andrews-involution"): ["--n", "3", "--k", "3", "--cap", "20"],
    ("trace", "andrews"): ["--n", "3", "--k", "1", "--cap", "8"],
}


def expect(status, got, what):
    if got != status:
        raise SystemExit(f"{what}: exit status {got}, expected {status}")


def drive():
    if set(ROW_ARGS) != set(cli.ROWS):
        raise SystemExit(f"ROW_ARGS and cli.ROWS differ in {set(ROW_ARGS) ^ set(cli.ROWS)}")
    for row, args in ROW_ARGS.items():
        argv = [*row, *args]
        expect(0, cli.run(argv), argv)
        if any(flag.name == "--format" for flag in cli.ROWS[row][0]):
            expect(0, cli.run([*argv, "--format", "json"]), argv)
    with tempfile.TemporaryDirectory() as scratch:
        argv = ["verify", "andrews", "--n", "1", "--json", os.path.join(scratch, "certs.json")]
        expect(0, cli.run(argv), argv)
    argv = ["--n", "0", "check-bijection", "macmahon-psi", "--k", "0"]
    expect(cli.USAGE_ERROR, cli.run(argv), argv)
    for argv in (["--help"], ["verify", "macmahon", "--help"]):
        expect(0, cli.run(argv), argv)
    argv = ["verify", "nonsense"]
    expect(cli.USAGE_ERROR, cli.run(argv), argv)
    sys.argv = ["qtelescope", "check-bijection", "macmahon-psi", "--n", "2", "--k", "0"]
    try:
        cli.main()
    except SystemExit as exc:
        expect(0, exc.code, sys.argv)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    failure_path = ROOT / "tests" / "bare_failure_path.py"
    expect(0, runpy.run_path(str(failure_path))["main"](), failure_path.name)


if __name__ == "__main__":
    out = sys.argv[1]  # drive() replaces sys.argv
    drive()
    sys.setprofile(None)
    with open(out, "w") as fh:
        json.dump(sorted(called), fh)
