"""Every walkthrough under demos/ prints exactly its recorded output, and
README's quick start runs as written."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # Every demo is deterministic and prints exactly its text in tests/demo_output.
    done = _run([str(demo)])
    assert done.returncode == 0, done.stderr
    expected = (ROOT / "tests" / "demo_output" / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert done.stdout == expected


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block and "import" in block.group(1)
    done = _run(["-c", block.group(1)])
    assert done.returncode == 0, done.stderr
