"""Totality of the CLI: any argv and any input file ends in a documented exit code.

One hypothesis property draws a subcommand, its options and the files
they name (valid, empty, not UTF-8, JSON of the wrong types, NaN or huge
numbers, nesting past the parsers' recursion limit, a directory, a
missing path) and runs ``cli.main`` in-process.  Whatever it draws, the
exit code is one of the five documented codes, stderr never shows a
traceback, and a usage (2) or store (3) error raised after argument
parsing is exactly one line.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from nfcbms import adversary, cli

KEY_HEX = "00112233445566778899aabbccddeeff"
DEEP = 5000  # nesting depth past the default recursion limit


def _report(n: int) -> dict:
    return {
        "pack_id": f"{n:02x}" * 8,
        "timestamp": 1_700_000_000 + n,
        "soc_permille": 900,
        "soh_permille": 950,
        "cell_voltages_mv": [3650, 3651],
        "temperatures_dk": [2930],
        "status_flags": 16,
    }


# field names of every JSON input, so drawn objects reach past the first lookup
FIELDS = (
    *_report(1), "duration_days", "readouts", "start_s", "length_s",
    "supply_voltage_v", "bpc_vlps_current_ua", "bpc_active_current_ma",
    "ed_wakeup_latency_ms", "eh_wakeup_latency_ms",
)

numbers = (
    st.integers(-(1 << 70), 1 << 70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, -1, 65536, 10**400, 1e306])
)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=20)
    | st.sampled_from(["01" * 8, "inf", "nan", "zz"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=5), inner, max_size=6),
    max_leaves=20,
)

VALID = {  # option -> files it accepts
    "key": [KEY_HEX + "\n"],
    "reports": [json.dumps([_report(1)]), json.dumps([_report(n) for n in (1, 2, 3)])],
    "scenario": [json.dumps({"duration_days": 1, "readouts": [{"start_s": 60, "length_s": 30}]})],
    "model": [json.dumps({"supply_voltage_v": 3.0})],
    "protocol": [cli._bundled("handshake.ban")],
    "goals": [cli._bundled("handshake_goals.ban")],
}
FIXED = [
    b"",
    b"\xff\xfe not utf-8",
    b"[" * DEEP + b"]" * DEEP,
    b"{\"a\": " * DEEP + b"1" + b"}" * DEEP,
    b"principal NR\nassume NR |= " + b"(" * DEEP + b"NR" + b")" * DEEP,
    b"principal NR\nassume " + b"NR |= " * 600 + b"NR",
    b"NaN",
    b"[1e400]",
    b"{\"duration_days\": 1" + b"0" * 400 + b"}",
    json.dumps([_report(1), _report(1)]).encode(),
    json.dumps([_report(n) for n in range(1, 250)]).encode(),  # past the 8 KB record cap
    b"principal NR\ngoal G: NR |= fresh(",
]


@st.composite
def input_files(draw, option):
    """A file for ``option``: (kind, content); kind is 'file', 'dir' or 'missing'."""
    kind = draw(st.sampled_from(["file"] * 6 + ["dir", "missing"]))
    if kind != "file":
        return kind, b""
    content = draw(
        st.sampled_from(VALID[option]).map(str.encode)
        | st.sampled_from(FIXED)
        | json_values.map(lambda v: json.dumps(v).encode())
        | st.binary(max_size=40)
    )
    return kind, content


stores = st.sampled_from([
    ("missing", b""),
    ("dir", b""),
    ("file", b""),
    ("file", b"garbage\n"),
    ("file", b"[" * DEEP + b"]" * DEEP + b"\n"),
    ("file", b"\xff\xfe\n"),
    ("file", b'{"pack_id": "01'),  # an append cut short
])
seeds = st.integers(-3, 3) | st.integers(-(1 << 80), 1 << 80)
pack_ids = st.sampled_from(["01" * 8, "", "0102", "01" * 9, "zz"]) | st.text(max_size=18)


@st.composite
def invocations(draw):
    """argv for one command, with the files its options name (name -> (kind, content))."""
    files = {}

    def path(name, drawn):
        files[name] = drawn
        return ("file", name)  # replaced by the file's path once it exists

    argv = ["--seed", str(draw(seeds)), "--format", draw(st.sampled_from(["json", "text"]))]
    key = draw(st.sampled_from(["default", "hex", "file", "bad"]))
    if key == "hex":
        argv += ["--key", KEY_HEX]
    elif key == "file":
        argv += ["--key-file", path("key", draw(input_files("key")))]
    elif key == "bad":
        argv += ["--key", draw(st.text(max_size=34))]

    command = draw(st.sampled_from(
        ["handshake", "readout", "history", "wakeup-sim", "attack", "ban-verify"]
    ))
    argv.append(command)
    if command == "handshake":
        if draw(st.booleans()):
            argv += ["--controller-key", draw(st.sampled_from([KEY_HEX, "ff" * 16, "zz", ""]))]
    elif command == "readout":
        argv += ["--mode", draw(st.sampled_from(["idle", "active"])),
                 "--reports", path("reports", draw(input_files("reports"))),
                 "--store", path("store", draw(stores))]
    elif command == "history":
        argv += ["--store", path("store", draw(stores)), "--", draw(pack_ids)]
    elif command == "wakeup-sim":
        argv += ["--method", draw(st.sampled_from(["ed", "eh", "both"]))]
        if draw(st.booleans()):
            argv += ["--days", str(draw(numbers))]
        for option in ("scenario", "model"):
            if draw(st.booleans()):
                argv += [f"--{option}", path(option, draw(input_files(option)))]
        if draw(st.booleans()):
            trace = draw(st.sampled_from([("missing", b""), ("dir", b""), ("under-missing", b"")]))
            argv += ["--trace-out", path("trace", trace)]
    elif command == "attack":
        argv += ["--strategy", draw(st.sampled_from(adversary.STRATEGY_NAMES + ("all",))),
                 "--runs", str(draw(st.integers(-2, 2)))]
    else:
        argv += ["--max-depth", str(draw(st.integers(-2, 20)))]
        for option in ("protocol", "goals"):
            if draw(st.booleans()):
                argv += [f"--{option}", path(option, draw(input_files(option)))]
    return argv, files


def _materialise(argv: list, files: dict, root: Path) -> list:
    """Create the drawn files under ``root`` and point argv at them."""
    paths = {}
    for name, (kind, content) in files.items():
        target = root / name
        if kind == "file":
            target.write_bytes(content)
        elif kind == "dir":
            target.mkdir()
        elif kind == "under-missing":
            target = root / "no-such-dir" / name
        paths[name] = str(target)
    return [paths[arg[1]] if isinstance(arg, tuple) else arg for arg in argv]


@settings(max_examples=120, deadline=None)
@given(invocations())
def test_cli_ends_every_invocation_in_a_documented_exit_code(invocation):
    argv, files = invocation
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = _materialise(argv, files, Path(tmp))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
                parsed = True
            except SystemExit as exc:  # argparse's own usage errors
                code, parsed = exc.code, False
    stderr = err.getvalue()
    assert code in range(5)
    assert "Traceback" not in stderr
    if parsed and code in (cli.EXIT_USAGE, cli.EXIT_STORE):
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr


def _store_line(field: str, value, *, in_report: bool) -> str:
    """One stored idle readout of pack 01..01, with ``value`` in one entry or report field."""
    entry = {
        "pack_id": "01" * 8,
        "received_at": 1_700_000_001,
        "session_id": "s1",
        "source": "IDLE_DIAG",
        "diag": {
            "use_case": "IDLE_DIAG",
            "origin": "BPC",
            "sequence_no": 0,
            "reports": [_report(1)],
        },
    }
    (entry["diag"]["reports"][0] if in_report else entry)[field] = value
    return json.dumps(entry) + "\n"


def _assert_history_reads_data_or_corruption(line: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "s.ndjson"
        store.write_text(line, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["history", "01" * 8, "--store", str(store)])
    assert code in (cli.EXIT_OK, cli.EXIT_STORE), err.getvalue()
    if code == cli.EXIT_STORE:
        assert err.getvalue().startswith(f"store error: {store}:1: corrupt entry: ")
        assert err.getvalue().count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(tuple(_report(1))),
    json_values | st.sampled_from(["4100", "500", 900.9, True, 5000, [4100], "01 " * 8]),
)
def test_history_reads_any_stored_report_value_as_data_or_corruption(field, value):
    _assert_history_reads_data_or_corruption(_store_line(field, value, in_report=True))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["pack_id", "received_at", "session_id", "source", "diag"]),
    json_values | st.sampled_from(["02", "02" * 8, -5, 2**64, "ACTIVE_DIAG", "s2", {"x": [1, 2]}]),
)
def test_history_reads_any_stored_entry_value_as_data_or_corruption(field, value):
    _assert_history_reads_data_or_corruption(_store_line(field, value, in_report=False))
