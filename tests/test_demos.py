"""The demo scripts and the README quick start run as documented."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_quick_start_values():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    # each `expression   # Fraction(N) ...` line claims its value
    claims = re.findall(r"^(\S.*?)\s+# (Fraction\(\d+\))", block, re.M)
    values = [eval(expr, namespace) for expr, _ in claims]
    assert values == [eval(claim, {"Fraction": Fraction}) for _, claim in claims]
    assert values == [34, 12, 30]
