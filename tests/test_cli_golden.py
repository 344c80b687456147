"""Byte-exact goldens of the CLI: exit code, stdout and the files a command writes.

``golden/cli.json`` pins the seeded output of every command, so a change
that moves one byte of a report, a passport store entry or a wake-up
trace fails here.  Each case runs its commands in a fresh directory with
relative paths, so no output depends on where the test runs.  Regenerate
the goldens only when an output is meant to change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from nfcbms import cli

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
KEY = "00112233445566778899aabbccddeeff"
OTHER_KEY = "ff" * 16
WRITTEN = ("store.ndjson", "trace.jsonl")  # every file a case may write


def _report(n: int, cells: int, temps: int) -> dict:
    return {
        "pack_id": (n % 256).to_bytes(1, "big").hex() * 6 + n.to_bytes(2, "big").hex(),
        "timestamp": 1_700_000_000 + n,
        "soc_permille": 900 - n,
        "soh_permille": 950,
        "cell_voltages_mv": [3650 + i for i in range(cells)],
        "temperatures_dk": [2930 + i for i in range(temps)],
        "status_flags": 16,
    }


INPUTS = {
    "one.json": [_report(1, 3, 1)],
    "three.json": [_report(n, 4, 2) for n in (1, 2, 3)],
    # 200 packs of 12 cells and 2 temperatures seal to 10456 bytes, over the 8192-byte cap
    "oversize.json": [_report(n, 12, 2) for n in range(1, 201)],
}


def _readout(seed: int, mode: str, reports: str) -> list:
    return ["--seed", str(seed), "--key", KEY, "readout", "--mode", mode,
            "--reports", reports, "--store", "store.ndjson"]


def _attack(seed: int, fmt: str) -> list:
    return ["--seed", str(seed), "attack", "--runs", "10", "--format", fmt]


CASES = {
    "handshake": [["--seed", "7", "--key", KEY, "handshake"]],
    "handshake-mismatched-key": [["--key", KEY, "handshake", "--controller-key", OTHER_KEY]],
    "readout-idle": [_readout(3, "idle", "one.json")],
    "readout-active": [_readout(4, "active", "three.json")],
    "readout-oversize": [_readout(5, "active", "oversize.json")],
    "history": [
        _readout(3, "idle", "one.json"),
        _readout(4, "active", "three.json"),
        ["history", _report(1, 0, 0)["pack_id"], "--store", "store.ndjson"],
    ],
    "wakeup-sim-both": [["wakeup-sim", "--method", "both"]],
    "wakeup-sim-ed-trace": [["wakeup-sim", "--method", "ed", "--trace-out", "trace.jsonl"]],
    "attack-seed0-json": [_attack(0, "json")],
    "attack-seed0-text": [_attack(0, "text")],
    "attack-seed7-json": [_attack(7, "json")],
    "attack-seed7-text": [_attack(7, "text")],
    "ban-verify": [["ban-verify"]],
}


def run_case(commands: list, workdir: Path) -> dict:
    """Run ``commands`` in ``workdir`` (the current directory) and record what they produce."""
    for name, reports in INPUTS.items():
        (workdir / name).write_text(json.dumps(reports), encoding="utf-8")
    results = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    files = {
        name: (workdir / name).read_bytes().decode("utf-8") if (workdir / name).exists() else None
        for name in WRITTEN
    }
    return {"commands": results, "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(CASES[name], tmp_path) == golden[name]


def test_goldens_cover_the_expected_exit_codes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    assert golden["handshake-mismatched-key"]["commands"][0]["exit"] == 1
    oversize = golden["readout-oversize"]
    assert oversize["commands"][0]["exit"] == 1
    assert json.loads(oversize["commands"][0]["stdout"]) == {
        "command": "readout",
        "detail": "encoded message is 10456 bytes, cap is 8192",
        "error": "OversizeMessage",
    }
    assert oversize["files"]["store.ndjson"] is None


def record() -> None:
    golden = {}
    start = os.getcwd()
    for name, commands in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                golden[name] = run_case(commands, Path(tmp))
            finally:
                os.chdir(start)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
