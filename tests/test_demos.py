"""Every demo runs clean under -W error, and a demo that has a file in
demos/expected/ prints exactly that file.  Each runs in a temporary
working directory, where the records of the experiments it runs land."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    expected = ROOT / "demos" / "expected" / f"{demo.stem}.txt"
    if expected.exists():
        assert run.stdout == expected.read_text()
