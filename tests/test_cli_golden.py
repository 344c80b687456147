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
import enum
import io
import json
import math
import os
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


HANDSHAKE_BAN = resources.files("nfcbms.data").joinpath("handshake.ban").read_text(encoding="utf-8")
CHALLENGE_FRESHNESS = ("assume NR |= fresh(chr)", "assume MN |= fresh(cht)")

INPUTS = {
    "one.json": json.dumps([_report(1, 3, 1)]),
    "three.json": json.dumps([_report(n, 4, 2) for n in (1, 2, 3)]),
    # 200 packs of 12 cells and 2 temperatures seal to 10456 bytes, over the 8192-byte cap
    "oversize.json": json.dumps([_report(n, 12, 2) for n in range(1, 201)]),
    # without the challenge-freshness assumptions G1.1/G1.2 are not derivable (exit 4)
    "stale.ban": "".join(
        line for line in HANDSHAKE_BAN.splitlines(keepends=True)
        if not line.startswith(CHALLENGE_FRESHNESS)
    ),
    "goals.ban": "# one bundled goal and one intermediate belief\n"
                 "G1.1: NR |= MN |= NR <-KM-> MN\n\n"
                 "S2: NR |= MN |~ (chr, NR <-KM-> MN)\n",
    # three readouts, out of time order: the trace lists them sorted
    "readouts.json": json.dumps({"duration_days": 1, "readouts": [
        {"start_s": 43200, "length_s": 60}, {"start_s": 3600, "length_s": 0.5},
        {"start_s": 7200.25, "length_s": 30},
    ]}),
}


def _readout(seed: int, mode: str, reports: str) -> list:
    return ["--seed", str(seed), "--key", KEY, "readout", "--mode", mode,
            "--reports", reports, "--store", "store.ndjson"]


def _attack(seed: int, fmt: str) -> list:
    return ["--seed", str(seed), "attack", "--runs", "10", "--format", fmt]


CASES = {
    "handshake": [["--seed", "7", "--key", KEY, "handshake"]],
    "handshake-mismatched-key": [["--key", KEY, "handshake", "--controller-key", OTHER_KEY]],
    "handshake-text": [["--seed", "7", "--key", KEY, "handshake", "--format", "text"]],
    "handshake-mismatched-key-text": [
        ["--key", KEY, "handshake", "--controller-key", OTHER_KEY, "--format", "text"],
    ],
    "readout-idle": [_readout(3, "idle", "one.json")],
    "readout-active": [_readout(4, "active", "three.json")],
    "readout-oversize": [_readout(5, "active", "oversize.json")],
    "readout-oversize-text": [_readout(5, "active", "oversize.json") + ["--format", "text"]],
    "readout-text": [_readout(4, "active", "three.json") + ["--format", "text"]],
    "history": [
        _readout(3, "idle", "one.json"),
        _readout(4, "active", "three.json"),
        ["history", _report(1, 0, 0)["pack_id"], "--store", "store.ndjson"],
    ],
    "history-text": [
        _readout(3, "idle", "one.json"),
        _readout(4, "active", "three.json"),
        ["history", _report(1, 0, 0)["pack_id"], "--store", "store.ndjson", "--format", "text"],
    ],
    "wakeup-sim-both": [["wakeup-sim", "--method", "both"]],
    "wakeup-sim-text": [["wakeup-sim", "--format", "text"]],
    "wakeup-sim-ed-trace": [["wakeup-sim", "--method", "ed", "--trace-out", "trace.jsonl"]],
    "wakeup-sim-eh-scenario-trace": [
        ["wakeup-sim", "--method", "eh", "--scenario", "readouts.json", "--trace-out", "trace.jsonl"],
    ],
    "attack-seed0-json": [_attack(0, "json")],
    "attack-seed0-text": [_attack(0, "text")],
    "attack-seed7-json": [_attack(7, "json")],
    "attack-seed7-text": [_attack(7, "text")],
    "ban-verify": [["ban-verify"]],
    "ban-verify-text": [["ban-verify", "--format", "text"]],
    "ban-verify-not-derivable-json": [["ban-verify", "--protocol", "stale.ban"]],
    "ban-verify-not-derivable-text": [["ban-verify", "--protocol", "stale.ban", "--format", "text"]],
    "ban-verify-goals-file": [["ban-verify", "--goals", "goals.ban"]],
}


def run_case(commands: list, workdir: Path) -> dict:
    """Run ``commands`` in ``workdir`` (the current directory) and record what they produce."""
    for name, text in INPUTS.items():
        (workdir / name).write_text(text, encoding="utf-8")
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
    assert golden["readout-oversize-text"]["commands"][0]["stdout"] == (
        "readout failed: OversizeMessage: encoded message is 10456 bytes, cap is 8192\n"
    )


# --- one parser for every call of main in a process ---


def _main(argv: list, capsys) -> tuple[int, str, str]:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh(argv: list, capsys) -> tuple[int, str, str]:
    """What a freshly built parser does with ``argv``: exit code, stdout, stderr."""
    try:
        args = cli.build_parser().parse_args(argv)
        code = args.fn(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_parser_carries_no_flag_into_the_next_command(capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    code, out, _ = _main(["--format", "text", "--seed", "7", "--key", KEY, "handshake"], capsys)
    assert (code, out) == (0, golden["handshake-text"]["commands"][0]["stdout"])
    argv = golden["handshake-mismatched-key"]["commands"][0]["argv"]  # seed 0, JSON
    code, out, _ = _main(argv, capsys)
    assert (code, out) == (1, golden["handshake-mismatched-key"]["commands"][0]["stdout"])
    _main(["--format", "text", "--seed", "7", "handshake"], capsys)
    code, out, _ = _main(["handshake"], capsys)
    assert json.loads(out)["seed"] == 0
    assert (code, out) == _fresh(["handshake"], capsys)[:2]


@pytest.mark.parametrize("bad", [
    ["--seed", "x", "handshake"],
    ["--format", "xml", "--seed", "9", "handshake"],
    ["--seed", "9", "readout", "--mode", "idle"],
    ["history"],
    ["nope"],
])
def test_a_usage_error_leaves_the_parser_as_it_was(bad, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    error = _main(bad, capsys)
    assert error[0] == 2
    assert error == _fresh(bad, capsys)
    assert run_case(CASES["history"], tmp_path) == golden["history"]


def test_help_is_wrapped_to_the_width_when_it_is_printed(monkeypatch, capsys):
    helps = {}
    for columns in ("60", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["readout", "--help"]):
            cached = _main(argv, capsys)
            assert cached[0] == 0
            assert cached == _fresh(argv, capsys)
            helps[columns, argv[0]] = cached[1]
    assert helps["60", "--help"] != helps["100", "--help"]


def test_goldens_hold_when_the_cases_run_in_reverse_order(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name in sorted(CASES, reverse=True):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert run_case(CASES[name], workdir) == golden[name], name


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 7


class Name(str):
    pass


SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
           | st.text() | st.sampled_from(list(Level)) | st.text(max_size=3).map(Name))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple) | st.lists(st.integers())
                   | st.dictionaries(st.text(), inner) | st.dictionaries(st.integers(), inner)),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_the_json_writer_writes_what_json_dumps_does(value):
    # NaN, infinities, bools, None, tuples, an IntEnum, str subclasses, non-ASCII text, int keys,
    # empty and nested containers: the ones it does not write itself go through json.dumps, re-indented
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


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
