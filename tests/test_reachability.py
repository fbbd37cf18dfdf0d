"""src/ holds only what some path runs.

tests/drive_every_path.py runs every path by which the library reaches its
users (the CLI rows, the console entry point, the help texts, usage
errors, the demos and the failure controls of tests/bare_failure_path.py)
in one child interpreter on the bare standard library, under a profiler.  Every
function that `ast` finds in src/qtelescope must be among those it
reports called, except the pinned protocol methods below.  A function no
path calls is either wired into a path or leaves src/: a reference the
tests compare against moves into tests/.  Lambdas are expressions, not
definitions, and are not counted.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qtelescope"

# protocol methods no path calls, each kept for the protocol it completes
UNCALLED = {
    "qalgebra.LaurentPoly.__hash__": "polynomials compare by value, so they hash by value",
    "qalgebra.LaurentPoly.__repr__": "the unambiguous form of a polynomial, for debugging",
    "qalgebra.TruncatedSeries.__repr__": "the unambiguous form of a series, for debugging",
}


def definitions():
    """(file name, first line) -> dotted name of each def in the package;
    a decorated function's first line is its first decorator's."""
    found = {}

    def visit(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[file, first] = name
                visit(child, name, file)
            else:
                visit(child, prefix, file)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.name)
    return found


def test_every_function_in_src_is_called_by_some_path(tmp_path):
    out = tmp_path / "called.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    result = subprocess.run(
        [sys.executable, "-S", str(ROOT / "tests" / "drive_every_path.py"), str(out)],
        cwd=ROOT, env=env, capture_output=True, encoding="utf-8", timeout=300)
    assert result.returncode == 0, result.stderr
    called = {tuple(key) for key in json.loads(out.read_text())}
    uncalled = {name for key, name in definitions().items() if key not in called}
    new, now_called = uncalled - UNCALLED.keys(), UNCALLED.keys() - uncalled
    assert not new, f"no path calls {sorted(new)}"
    assert not now_called, f"pinned as uncalled, but called: {sorted(now_called)}"
