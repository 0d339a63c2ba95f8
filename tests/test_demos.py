"""The demo scripts, the README quick start and its command-line block run as documented."""

import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ldcflow import cli

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


def test_readme_command_line_block(tmp_path, monkeypatch, capsys):
    """The README's command-line block runs in order, and each `# prints:` line and the decoded certificate print what they claim."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme.split("## Command line", 1)[1], re.S).group(1)
    monkeypatch.chdir(tmp_path)
    printed = []
    for line in filter(None, block.splitlines()):
        command, _, claim = line.partition("  # ")
        words = shlex.split(command)
        if words[0] == "ldcflow":
            assert cli.main(words[1:]) == 0, line
        elif words[0] == "python":
            subprocess.run([sys.executable, *words[1:]], check=True, timeout=60)
        else:  # echo '<text>' > <file>
            assert words[0] == "echo" and words[2] == ">"
            Path(words[3]).write_text(words[1] + "\n")
        out = capsys.readouterr().out
        if claim.startswith("prints: "):
            assert out.strip() == claim.removeprefix("prints: "), line
            printed.append(out.strip())
        elif words[:2] == ["ldcflow", "decode"]:
            assert json.loads(out) == json.loads(claim), line
            printed.append(json.loads(out))
    assert printed == ["3", "NO", "OK", {"V": [2, 3]}]
