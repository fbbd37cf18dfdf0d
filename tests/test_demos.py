"""The narrative demos run to completion.

Each script in demos/ runs in its own interpreter with the source tree on
its path, as `python demos/<name>.py` would from an installed checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_three_demos_are_found():
    assert [d.name for d in DEMOS] == ["andrews_problem12.py",
                                       "laurent_arithmetic.py",
                                       "macmahon_walkthrough.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
