"""Every demo runs to completion in dev mode with every warning an error,
and prints exactly what ``golden/demos.json`` holds.  Regenerate the golden
only when a demo's output is meant to change:

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).with_name("golden") / "demos.json"


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    # cwd is a scratch directory, so a demo that writes a file leaves the checkout clean
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", str(demo)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )


def test_the_demos_are_found():
    assert DEMOS
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout == json.loads(GOLDEN.read_text(encoding="utf-8"))[demo.name]


def record() -> None:
    golden = {}
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_demo(demo, Path(tmp))
        if result.returncode != 0 or result.stderr:
            sys.exit(f"{demo.name}: exit {result.returncode}\n{result.stderr}")
        golden[demo.name] = result.stdout
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
