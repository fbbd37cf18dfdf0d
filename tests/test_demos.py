"""The narrative demos run to completion and print what they printed when
their output was recorded.

Each script in demos/ runs in its own interpreter with the source tree on
its path, as `python demos/<name>.py` would from an installed checkout.
Its standard output is compared byte for byte with
tests/demo_output/<name>.txt.  Regenerate those files only when a demo's
output is meant to change:
    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"


def run_demo(demo):
    env = dict(os.environ, PYTHONIOENCODING="utf-8")  # the demos draw with ■ and ·
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, encoding="utf-8", timeout=120)


def test_all_three_demos_are_found():
    assert [d.name for d in DEMOS] == ["andrews_problem12.py",
                                       "laurent_arithmetic.py",
                                       "macmahon_walkthrough.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero_with_its_recorded_output(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (RECORDED / f"{demo.stem}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    RECORDED.mkdir(exist_ok=True)
    for demo in DEMOS:
        result = run_demo(demo)
        if result.returncode != 0:
            sys.exit(f"{demo.name} failed:\n{result.stderr}")
        (RECORDED / f"{demo.stem}.txt").write_text(result.stdout, encoding="utf-8")
        print(f"recorded {demo.stem}.txt")
