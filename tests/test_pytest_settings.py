"""The repository's pytest settings report every failure instead of aborting the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_a_later_failing_test():
    assert False
'''


def test_a_failing_property_does_not_hide_the_next_failure(tmp_path):
    # run as CI runs tier-1: dev mode, every warning an error, these settings;
    # cwd and rootdir keep hypothesis' database and any cache out of the checkout
    (tmp_path / "test_pair.py").write_text(FAILING_PAIR)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-q", "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "2 failed" in proc.stdout
