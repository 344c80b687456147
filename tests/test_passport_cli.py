"""Passport store durability and the command-line harness."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nfcbms import cli, diagnostics as dg, passport, wakeup
from nfcbms.errors import StoreError

KEY_HEX = "00112233445566778899aabbccddeeff"


def report_dict(n: int = 1) -> dict:
    return {
        "pack_id": f"{n:02x}" * 8,
        "timestamp": 1_700_000_000 + n,
        "soc_permille": 900,
        "soh_permille": 950,
        "cell_voltages_mv": [3650, 3651, 3652],
        "temperatures_dk": [2930],
        "status_flags": 16,
    }


def write_reports(tmp_path, count: int, name: str = "reports.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps([report_dict(i + 1) for i in range(count)]))
    return str(path)


# --- store ---


def make_entry(n: int, received_at: int) -> passport.PassportEntry:
    packet = dg.idle_packet(dg.report_from_json(report_dict(n)), seq=n)
    return passport.PassportEntry(
        pack_id=packet.reports[0].pack_id,
        received_at=received_at,
        diag=packet,
        session_id=f"s{n}",
        source="IDLE_DIAG",
    )


def test_store_append_then_reopen_preserves_entries(tmp_path):
    path = tmp_path / "store.ndjson"
    store = passport.PassportStore(path)
    store.append(make_entry(1, 100))
    store.append(make_entry(2, 200))
    # a brand-new handle sees everything (append is flushed+fsynced)
    fresh = passport.PassportStore(path)
    assert len(fresh.entries()) == 2


def test_store_history_is_time_ordered(tmp_path):
    store = passport.PassportStore(tmp_path / "store.ndjson")
    store.append(make_entry(1, 300))
    store.append(make_entry(1, 100))
    store.append(make_entry(1, 200))
    stamps = [e.received_at for e in store.history(bytes([1]) * 8)]
    assert stamps == [100, 200, 300]


def test_store_history_unknown_pack_is_empty(tmp_path):
    store = passport.PassportStore(tmp_path / "store.ndjson")
    assert store.history(b"\xff" * 8) == []


def test_store_corruption_is_structured_error(tmp_path):
    path = tmp_path / "store.ndjson"
    store = passport.PassportStore(path)
    store.append(make_entry(1, 100))
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(StoreError):
        store.entries()


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_store_survives_an_append_cut_short(tmp_path, data):
    # a crash leaves any proper prefix of the last line, without its newline
    path = tmp_path / "store.ndjson"
    path.unlink(missing_ok=True)
    store = passport.PassportStore(path)
    for n in (1, 2):
        store.append(make_entry(n, 100 * n))
    committed = path.read_bytes()
    torn = json.dumps(make_entry(3, 300).to_json(), sort_keys=True).encode()
    torn = torn[:data.draw(st.integers(1, len(torn)), label="cut")]
    # only 0x0A ends a line: CR, NEL and U+2028 are data, and a cut can split a UTF-8 sequence
    extra = data.draw(st.lists(st.sampled_from([b"\r", b"\xc2\x85", "\u2028".encode(), b"\xe2\x80"]),
                               max_size=3), label="extra")
    path.write_bytes(committed + torn + b"".join(extra))
    listed = store.entries()
    assert [e.session_id for e in listed] == ["s1", "s2"]
    store.append(make_entry(4, 400))
    assert path.read_bytes().startswith(committed)
    assert store.entries() == listed + [make_entry(4, 400)]


def test_history_matches_packs_inside_aggregates(tmp_path):
    store = passport.PassportStore(tmp_path / "store.ndjson")
    packet = dg.collect_from_bpcs(
        [dg.report_from_json(report_dict(1)), dg.report_from_json(report_dict(2))], seq=0
    )
    store.append(
        passport.PassportEntry(
            pack_id=packet.reports[0].pack_id,
            received_at=50,
            diag=packet,
            session_id="agg",
            source="ACTIVE_DIAG",
        )
    )
    assert len(store.history(bytes([2]) * 8)) == 1


# --- CLI ---


def run_cli(args: list, capsys) -> tuple[int, str]:
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_handshake_ok(capsys):
    code, out = run_cli(["--seed", "7", "--key", KEY_HEX, "handshake"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"]["established"]
    assert len(payload["frames"]) == 5


def test_cli_handshake_deterministic(capsys):
    _, first = run_cli(["--seed", "7", "--key", KEY_HEX, "handshake"], capsys)
    _, second = run_cli(["--seed", "7", "--key", KEY_HEX, "handshake"], capsys)
    assert first == second
    _, third = run_cli(["--seed", "8", "--key", KEY_HEX, "handshake"], capsys)
    assert first != third


def test_cli_handshake_mismatched_keys_fails_at_message3(capsys):
    code, out = run_cli(
        ["--key", KEY_HEX, "handshake", "--controller-key", "ff" * 16], capsys
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["outcome"]["first_failure"]["message"] == 3


def test_cli_key_file_source(tmp_path, capsys):
    key_file = tmp_path / "master.key"
    key_file.write_text(KEY_HEX + "\n")
    code, out = run_cli(["--seed", "2", "--key-file", str(key_file), "handshake"], capsys)
    assert code == 0
    _, direct = run_cli(["--seed", "2", "--key", KEY_HEX, "handshake"], capsys)
    assert out == direct


@pytest.mark.parametrize("content", [None, b"\xff\xfe not utf-8"], ids=["missing", "not-utf8"])
def test_cli_unreadable_key_file_is_usage_error(content, tmp_path, capsys):
    key_file = tmp_path / "master.key"
    if content is not None:
        key_file.write_bytes(content)
    code = cli.main(["--key-file", str(key_file), "handshake"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read key file: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--key", "zz", "--key-file", "k.hex", "handshake"],
    ["--key", KEY_HEX, "handshake", "--key-file", "k.hex"],
    ["--key-file", "k.hex", "attack", "--key", KEY_HEX, "--runs", "1"],
], ids=["invalid-key", "options-split", "keyless-command"])
def test_cli_key_with_key_file_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.hex").write_text(KEY_HEX + "\n")
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert err == "error: give --key or --key-file, not both\n"


def test_cli_bad_key_is_usage_error(capsys):
    code, _ = run_cli(["--key", "zz", "handshake"], capsys)
    assert code == 2


def test_cli_no_key_material_in_reports(capsys):
    for args in (
        ["--seed", "3", "--key", KEY_HEX, "handshake"],
        ["--seed", "3", "--key", KEY_HEX, "attack", "--strategy", "replay", "--runs", "2"],
    ):
        _, out = run_cli(args, capsys)
        assert KEY_HEX not in out
        assert "ff" * 16 not in out


def test_cli_readout_idle_appends_one_entry(tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    code, out = run_cli(
        ["--key", KEY_HEX, "readout", "--mode", "idle",
         "--reports", write_reports(tmp_path, 1), "--store", str(store)],
        capsys,
    )
    assert code == 0
    entries = passport.PassportStore(store).entries()
    assert len(entries) == 1
    assert entries[0].source == "IDLE_DIAG"


def test_cli_readout_active_one_entry_many_reports(tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    code, _ = run_cli(
        ["--key", KEY_HEX, "readout", "--mode", "active",
         "--reports", write_reports(tmp_path, 3), "--store", str(store)],
        capsys,
    )
    assert code == 0
    entries = passport.PassportStore(store).entries()
    assert len(entries) == 1
    assert len(entries[0].diag.reports) == 3
    assert entries[0].source == "ACTIVE_DIAG"


def test_cli_readout_idle_rejects_two_reports(tmp_path, capsys):
    code, _ = run_cli(
        ["--key", KEY_HEX, "readout", "--mode", "idle",
         "--reports", write_reports(tmp_path, 2), "--store", str(tmp_path / "s.ndjson")],
        capsys,
    )
    assert code == 2


def test_cli_history_roundtrip(tmp_path, capsys):
    store = str(tmp_path / "s.ndjson")
    run_cli(["--key", KEY_HEX, "readout", "--mode", "idle",
             "--reports", write_reports(tmp_path, 1), "--store", store], capsys)
    code, out = run_cli(["history", "01" * 8, "--store", store], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 1


@pytest.mark.parametrize("typed, canonical", [
    ("01 01 01 01 01 01 01 01", "01" * 8),
    ("0A0B0C0D0E0F1011", "0a0b0c0d0e0f1011"),
    ("0a 0B0c0D 0e0F1011", "0a0b0c0d0e0f1011"),
])
def test_cli_history_prints_the_canonical_pack_id(typed, canonical, tmp_path, capsys):
    store = str(tmp_path / "s.ndjson")
    run_cli(["--key", KEY_HEX, "readout", "--mode", "idle",
             "--reports", write_reports(tmp_path, 1), "--store", store], capsys)
    entries = 1 if canonical == "01" * 8 else 0
    code, out = run_cli(["history", typed, "--store", store], capsys)
    assert code == 0
    payload = json.loads(out)
    assert (payload["pack_id"], len(payload["entries"])) == (canonical, entries)
    code, out = run_cli(["history", typed, "--store", store, "--format", "text"], capsys)
    assert code == 0
    assert out.splitlines()[0] == f"{entries} entries for pack {canonical}"


def test_cli_history_unknown_pack_empty_list(tmp_path, capsys):
    code, out = run_cli(["history", "aa" * 8, "--store", str(tmp_path / "s.ndjson")], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == []


def test_cli_history_corrupt_store_exit3(tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    store.write_text("garbage\n")
    code, _ = run_cli(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3


@pytest.mark.parametrize(
    "where, key, value, detail",
    [
        ("report", "soc_permille", 5000, "soc_permille 5000 > 1000"),
        ("report", "cell_voltages_mv", "4100", "cell_voltages_mv must be a list of integers, not str"),
        ("report", "soh_permille", 900.9, "soh_permille must be an integer, not float"),
        ("diag", "sequence_no", True, "sequence_no must be an integer, not bool"),
        ("entry", "received_at", "100", "received_at must be an integer, not str"),
        ("entry", "received_at", -5, "received_at outside [0, 2**64)"),
        ("entry", "received_at", 1 << 64, "received_at outside [0, 2**64)"),
        ("entry", "pack_id", "02", "entry pack_id must be the pack id of one of its reports"),
        ("entry", "pack_id", "02" * 8, "entry pack_id must be the pack id of one of its reports"),
        ("entry", "session_id", {"x": [1, 2]}, "session_id must be a string"),
        ("entry", "source", 7, "source must be the packet's use case IDLE_DIAG"),
        ("entry", "source", "ACTIVE_DIAG", "source must be the packet's use case IDLE_DIAG"),
    ],
    ids=["soc-out-of-range", "cells-string", "soh-float", "sequence-bool", "received-at-string",
         "received-at-negative", "received-at-past-64-bits", "pack-id-short",
         "pack-id-of-no-report", "session-id-object", "source-number", "source-other-use-case"],
)
def test_cli_history_out_of_range_or_mistyped_store_value_exit3(where, key, value, detail, tmp_path, capsys):
    line = make_entry(1, 100).to_json()
    target = {"entry": line, "diag": line["diag"], "report": line["diag"]["reports"][0]}[where]
    target[key] = value
    store = tmp_path / "s.ndjson"
    store.write_text(json.dumps(line) + "\n")
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err == f"store error: {store}:1: corrupt entry: {detail}\n"


TORN = b'{"diag": {"origin": 1, "reports": [{"cell_vol'  # an append cut short
WHOLE = json.dumps(make_entry(1, 100).to_json(), sort_keys=True).encode()  # an entry without its newline
# what a crash can leave after the last newline: only 0x0A ends a line, so
# CR, NEL (c2 85) and U+2028 are data, and a UTF-8 sequence may be cut short
TAILS = {
    "": TORN,
    "-torn-cr": TORN + b"\r",
    "-entry-cr": WHOLE + b"\r",
    "-entry-nel": WHOLE + b"\xc2\x85",
    "-entry-u2028": WHOLE + "\u2028".encode() + b"x",
    "-utf8-cut-short": TORN + b"\xe2\x80",
}


# ids: "0" and "1" for the plain torn tail, "0-<name>" and "1-<name>" for the others
@pytest.mark.parametrize("committed, tail", [
    pytest.param(committed, tail, id=f"{committed}{name}") for committed in (0, 1) for name, tail in TAILS.items()
])
def test_cli_uncommitted_tail_is_skipped_then_truncated(committed, tail, tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    readout = ["--key", KEY_HEX, "readout", "--mode", "idle",
               "--reports", write_reports(tmp_path, 1), "--store", str(store)]
    history = ["history", "01" * 8, "--store", str(store)]
    for _ in range(committed):
        run_cli(readout, capsys)
    with open(store, "ab") as fh:
        fh.write(tail)
    code, out = run_cli(history, capsys)
    assert code == 0
    listed = json.loads(out)["entries"]
    assert len(listed) == committed
    code, _ = run_cli(readout, capsys)
    assert code == 0
    lines = store.read_bytes().split(b"\n")
    assert lines[-1] == b""  # the file ends in a newline
    assert len(lines) == committed + 2
    assert all(json.loads(line)["pack_id"] == "01" * 8 for line in lines[:-1])
    code, out = run_cli(history, capsys)
    assert code == 0
    # the append removed nothing that history had listed (equal stamps keep file order)
    assert json.loads(out)["entries"] == listed + [json.loads(lines[-2])]


def test_cli_history_reads_back_raw_line_separators_inside_a_string(tmp_path, capsys):
    line = make_entry(1, 100).to_json()
    line["session_id"] = "s\u2028\x851"  # raw U+2028 and NEL: data, not line ends
    store = tmp_path / "s.ndjson"
    store.write_bytes(json.dumps(line, ensure_ascii=False).encode() + b"\n")
    code, out = run_cli(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 0
    assert [e["session_id"] for e in json.loads(out)["entries"]] == [line["session_id"]]


@pytest.mark.parametrize("content", ["[]", "{}", '"x"'])
def test_cli_readout_reports_file_must_hold_a_list_of_reports(content, tmp_path, capsys):
    reports = tmp_path / "reports.json"
    reports.write_text(content)
    code = cli.main(["--key", KEY_HEX, "readout", "--mode", "active",
                     "--reports", str(reports), "--store", str(tmp_path / "s.ndjson")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: bad reports file: expected a non-empty JSON list of reports\n"
    assert not (tmp_path / "s.ndjson").exists()


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # past the decoder's recursion limit


def run_cli_error(argv: list, capsys) -> tuple[int, str]:
    """Run a command that must fail: nothing on stdout, one line on stderr."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return code, captured.err


READOUT = ["--key", KEY_HEX, "readout", "--mode", "active", "--reports", "f", "--store", "s.ndjson"]
REPORT_OVERFLOW = json.dumps([report_dict(1)]).replace('"timestamp": 1700000001', '"timestamp": 1e400')


def one_report(**fields) -> str:
    """A reports file of one report, with ``fields`` replaced."""
    return json.dumps([dict(report_dict(1), **fields)])


@pytest.mark.parametrize(
    "argv, content, expected",
    [
        (READOUT, DEEP_JSON, "error: bad reports file: maximum recursion depth exceeded"),
        (["wakeup-sim", "--scenario", "f"], DEEP_JSON,
         "error: bad scenario file: maximum recursion depth exceeded"),
        (["wakeup-sim", "--model", "f"], DEEP_JSON,
         "error: bad model file: maximum recursion depth exceeded"),
        (READOUT, json.dumps([report_dict(1), report_dict(1)]),
         "error: bad reports file: pack id 0101010101010101 appears twice"),
        (READOUT, REPORT_OVERFLOW, "error: bad reports file: timestamp must be an integer, not float"),
        (READOUT, one_report(cell_voltages_mv="4100"),
         "error: bad reports file: cell_voltages_mv must be a list of integers, not str"),
        (READOUT, one_report(temperatures_dk=[2930.0]),
         "error: bad reports file: temperatures_dk entry must be an integer, not float"),
        (READOUT, one_report(soh_permille=900.9),
         "error: bad reports file: soh_permille must be an integer, not float"),
        (READOUT, one_report(soc_permille="500"),
         "error: bad reports file: soc_permille must be an integer, not str"),
        (READOUT, one_report(status_flags=True),
         "error: bad reports file: status_flags must be an integer, not bool"),
        (["wakeup-sim", "--scenario", "f"], '{"duration_days": 1' + "0" * 400 + "}",
         "error: bad scenario file: int too large to convert to float"),
        (READOUT, b"[\xff]", "error: cannot read reports file: 'utf-8' codec"),
        (["wakeup-sim", "--scenario", "f"], b'{"duration_days": "\xff"}',
         "error: cannot read scenario file: 'utf-8' codec"),
        (["wakeup-sim", "--model", "f"], b'{"supply_voltage_v": "\xff"}',
         "error: cannot read model file: 'utf-8' codec"),
    ],
    ids=["reports-deep", "scenario-deep", "model-deep", "reports-duplicate-pack",
         "reports-infinite-timestamp", "reports-string-cells", "reports-float-temperature",
         "reports-float-soh", "reports-string-soc", "reports-bool-flags", "scenario-huge-int",
         "reports-not-utf8", "scenario-not-utf8", "model-not-utf8"],
)
def test_cli_rejects_a_bad_input_file(argv, content, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if isinstance(content, str):
        content = content.encode("utf-8")
    (tmp_path / "f").write_bytes(content)
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert err.startswith(expected)
    assert not (tmp_path / "s.ndjson").exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--key-file", "", "handshake"], "error: cannot read key file: "),
        (["handshake", "--controller-key", ""], "error: bad key material: master key must be 16 bytes"),
        (["wakeup-sim", "--scenario", ""], "error: cannot read scenario file: "),
        (["wakeup-sim", "--model", ""], "error: cannot read model file: "),
        (["wakeup-sim", "--method", "ed", "--trace-out", ""], "error: cannot write trace file: "),
        (["wakeup-sim", "--trace-out", ""], "error: --trace-out needs --method ed|eh"),
        (["ban-verify", "--protocol", ""], "error: cannot read input file: "),
        (["ban-verify", "--goals", ""], "error: cannot read input file: "),
        (READOUT[:-4] + ["--reports", "", "--store", "s.ndjson"],
         "error: cannot read reports file: "),
    ],
    ids=["key-file", "controller-key", "scenario", "model", "trace-out", "trace-out-both",
         "protocol", "goals", "reports"],
)
def test_cli_empty_file_option_is_not_a_missing_option(argv, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert err.startswith(expected)
    assert list(tmp_path.iterdir()) == []


def test_cli_readout_rejects_more_reports_than_the_count_field_holds(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reports = [dict(report_dict(1), pack_id=f"{n:016x}") for n in range(dg.MAX_REPORTS + 1)]
    (tmp_path / "f").write_text(json.dumps(reports))
    code, err = run_cli_error(READOUT, capsys)
    assert code == 2
    assert err == "error: bad reports file: 65536 reports, a packet carries at most 65535\n"


def test_cli_history_store_line_repeating_a_pack_id_exit3(tmp_path, capsys):
    # pack ids are distinct within a packet, so a stored packet that repeats one is corrupt
    line = make_entry(1, 100).to_json()
    line["source"] = line["diag"]["use_case"] = "ACTIVE_DIAG"
    line["diag"]["origin"] = "BMS_CONTROLLER"
    line["diag"]["reports"] *= 2
    store = tmp_path / "s.ndjson"
    store.write_text(json.dumps(line) + "\n")
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err == f"store error: {store}:1: corrupt entry: pack id {'01' * 8} appears twice\n"


@pytest.mark.parametrize("blank", ["", "   "], ids=["empty", "spaces"])
def test_cli_history_blank_store_line_is_corruption(blank, tmp_path, capsys):
    # appends never write a blank line, so one between two entries is not a valid entry
    entry = json.dumps(make_entry(1, 100).to_json())
    store = tmp_path / "s.ndjson"
    store.write_text(f"{entry}\n{blank}\n{entry}\n")
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err == f"store error: {store}:2: corrupt entry: Expecting value: line 1 column {len(blank) + 1} (char {len(blank)})\n"


def test_cli_history_deeply_nested_store_line_is_corruption(tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    store.write_text(DEEP_JSON + "\n")
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err.startswith(f"store error: {store}:1: corrupt entry: maximum recursion depth")


@pytest.mark.parametrize("pack_id", ["", "0102", "01" * 9])
def test_cli_history_pack_id_must_be_8_bytes(pack_id, tmp_path, capsys):
    code, err = run_cli_error(["history", pack_id, "--store", str(tmp_path / "s.ndjson")], capsys)
    assert code == 2
    assert err == f"error: pack id must be 8 bytes, got {len(pack_id) // 2}\n"


def test_cli_history_undecodable_store_exit3(tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    store.write_bytes(b"\xff\xfe\n")
    code = cli.main(["history", "01" * 8, "--store", str(store)])
    captured = capsys.readouterr()
    assert code == 3
    assert "corrupt store" in captured.err
    assert captured.err.count("\n") == 1


def test_cli_store_env_default(tmp_path, capsys, monkeypatch):
    # one process, two values of BMS_STORE_PATH: each command without
    # --store reads the variable when it runs, not when the parser was built
    monkeypatch.chdir(tmp_path)
    reports = write_reports(tmp_path, 1)
    sessions = {}
    for name, seed in (("a.ndjson", "1"), ("b.ndjson", "2")):
        store = tmp_path / name
        monkeypatch.setenv(passport.ENV_STORE_PATH, str(store))
        code, out = run_cli(["--seed", seed, "--key", KEY_HEX, "readout", "--mode", "idle",
                             "--reports", reports], capsys)
        assert code == 0
        assert json.loads(out)["store"] == str(store)
        sessions[name] = json.loads(out)["session_id"]
        code, out = run_cli(["history", "01" * 8], capsys)
        assert code == 0
        assert [e["session_id"] for e in json.loads(out)["entries"]] == [sessions[name]]
    assert sessions["a.ndjson"] != sessions["b.ndjson"]
    for name, session_id in sessions.items():
        assert [e.session_id for e in passport.PassportStore(tmp_path / name).entries()] == [session_id]
    assert not (tmp_path / "passport_store.ndjson").exists()


def test_cli_wakeup_sim_eh_idle_figure(capsys):
    code, out = run_cli(["wakeup-sim", "--method", "eh", "--days", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["avg_power_uw"] == pytest.approx(98.34, rel=1e-12)
    assert payload["idle_power_uw"] == pytest.approx(98.34, rel=1e-12)


def test_cli_wakeup_sim_trace_out(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, _ = run_cli(
        ["wakeup-sim", "--method", "ed", "--days", "1", "--trace-out", str(trace)], capsys
    )
    assert code == 0
    lines = trace.read_text().strip().splitlines()
    assert json.loads(lines[0])["state"] == "idle"


def test_cli_wakeup_sim_trace_out_simulates_each_design_once(tmp_path, capsys, monkeypatch):
    simulate, calls = wakeup.simulate, []

    def counted(model, scenario, method):
        calls.append(method)
        return simulate(model, scenario, method)

    monkeypatch.setattr(wakeup, "simulate", counted)
    trace = tmp_path / "trace.jsonl"
    code, _ = run_cli(["wakeup-sim", "--method", "ed", "--trace-out", str(trace)], capsys)
    assert code == 0
    assert sorted(calls) == [wakeup.Method.ED, wakeup.Method.EH]
    one_day = wakeup.StorageScenario(duration_days=1.0)
    assert trace.read_text() == simulate(wakeup.PowerModel(), one_day, wakeup.Method.ED).to_jsonl() + "\n"


def test_cli_wakeup_sim_scenario_with_days_is_usage_error(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text('{"duration_days": 2}')
    code, err = run_cli_error(["wakeup-sim", "--scenario", str(scenario), "--days", "365"], capsys)
    assert code == 2
    assert err == "error: give --scenario or --days, not both: the scenario file sets the duration\n"
    # alone or omitted, --days is one day by default
    assert run_cli(["wakeup-sim"], capsys) == run_cli(["wakeup-sim", "--days", "1"], capsys)


BAD_SCENARIO = "error: bad scenario: "
BAD_SCENARIO_FILE = "error: bad scenario file: "  # a scenario file holds JSON numbers only
BAD_MODEL = "error: bad model file: "  # a power model is range-checked when the file is read


@pytest.mark.parametrize(
    "argv, files, expected",
    [
        (["--days", "nan"], {}, BAD_SCENARIO),
        (["--days", "inf"], {}, BAD_SCENARIO),
        (["--days", "1e300"], {}, BAD_SCENARIO),
        (["--days", "1e-12"], {}, BAD_SCENARIO),
        (["--scenario", "s.json"],
         {"s.json": '{"duration_days": 1, "readouts": [{"start_s": NaN, "length_s": 60}]}'},
         BAD_SCENARIO),
        (["--scenario", "s.json"], {"s.json": '{"duration_days": "inf"}'}, BAD_SCENARIO_FILE),
        (["--scenario", "s.json"], {"s.json": '{"duration_days": Infinity}'}, BAD_SCENARIO),
        (["--model", "m.json"], {"m.json": '{"supply_voltage_v": "x"}'}, BAD_MODEL),
        (["--model", "m.json"], {"m.json": '{"bpc_active_current_ma": 1e306}'}, BAD_MODEL),
        (["--model", "m.json"], {"m.json": '{"ntag_standby_current_ua": 1e16}'}, BAD_MODEL),
        (["--model", "m.json"],
         {"m.json": '{"ed_wakeup_latency_ms": 1e306, "eh_wakeup_latency_ms": 1e306}'}, BAD_MODEL),
        (["--model", "m.json"], {"m.json": '{"supply_voltage_v": 1' + "0" * 400 + "}"}, BAD_MODEL),
        (["--scenario", "s.json"], {"s.json": '{"duration_days": "365"}'}, BAD_SCENARIO_FILE),
        (["--scenario", "s.json"],
         {"s.json": '{"duration_days": 1, "readouts": [{"start_s": "3600", "length_s": 60}]}'},
         BAD_SCENARIO_FILE),
        (["--scenario", "s.json"],
         {"s.json": '{"duration_days": 1, "readouts": [{"start_s": 3600, "length_s": true}]}'},
         BAD_SCENARIO_FILE),
        (["--scenario", "s.json"], {"s.json": '{"duration_days": null}'}, BAD_SCENARIO_FILE),
        (["--model", "m.json"], {"m.json": '{"supply_voltage_v": true}'}, BAD_MODEL),
        (["--scenario", "s.json"],
         {"s.json": '{"duration_days": 1, "readouts": [{"start_s": -1, "length_s": 60}]}'},
         BAD_SCENARIO + "readout windows need positive length and start >= 0\n"),
        (["--scenario", "s.json"],
         {"s.json": '{"duration_days": 1, "readouts": [{"start_s": 3600, "length_s": 0}]}'},
         BAD_SCENARIO + "readout windows need positive length and start >= 0\n"),
    ],
    ids=["days-nan", "days-inf", "days-1e300", "days-1e-12",
         "start-nan", "duration-inf", "duration-infinity", "model-not-a-number",
         "model-huge-current", "model-power-past-64-bits", "model-huge-latency",
         "model-int-past-float-range", "duration-string", "start-string", "length-bool",
         "duration-null", "model-bool", "start-negative", "length-zero"],
)
def test_cli_wakeup_sim_rejects_out_of_range_input(argv, files, expected, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = cli.main(["wakeup-sim"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(expected)
    assert captured.err.count("\n") == 1


def test_cli_wakeup_sim_trace_out_needs_one_method(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    code, err = run_cli_error(["wakeup-sim", "--trace-out", str(trace)], capsys)
    assert code == 2
    assert "--method ed|eh" in err
    assert not trace.exists()


def test_cli_wakeup_sim_unwritable_trace_out_is_usage_error(tmp_path, capsys):
    trace = tmp_path / "missing" / "trace.jsonl"
    code, err = run_cli_error(["wakeup-sim", "--method", "ed", "--trace-out", str(trace)], capsys)
    assert code == 2
    assert err.startswith("error: cannot write trace file: ")


def test_cli_attack_replay_blocked_at_message3(capsys):
    code, out = run_cli(
        ["--seed", "5", "--format", "text", "attack", "--strategy", "replay", "--runs", "3"],
        capsys,
    )
    assert code == 0
    assert "blocked at message 3" in out


def test_cli_attack_all_zero_successes(capsys):
    code, out = run_cli(["--seed", "5", "attack", "--runs", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["total_successes"] == 0


def test_cli_ban_verify_bundled_protocol(capsys):
    code, out = run_cli(["ban-verify"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["derived"]
    assert len(payload["result"]["steps"]) >= 8


def test_cli_ban_verify_missing_goal_exit4(tmp_path, capsys):
    protocol = tmp_path / "p.ban"
    protocol.write_text(
        """
principal NR
principal MN
key KM
nonce chr
assume NR |= NR <-KM-> MN
message m2: NR <| {{(chr, NR <-KM-> MN)}KM}KM
goal G: NR |= MN |= NR <-KM-> MN
"""
    )
    code, out = run_cli(["ban-verify", "--protocol", str(protocol)], capsys)
    assert code == 4
    payload = json.loads(out)
    assert not payload["result"]["derived"]


def test_cli_ban_verify_deep_assumption_restated_as_a_goal_is_a_one_step_proof(tmp_path, capsys):
    statement = "NR |= MN |= " * 3 + "NR |= fresh(chr)"  # seven nested beliefs
    protocol = tmp_path / "p.ban"
    protocol.write_text(f"principal NR\nprincipal MN\nnonce chr\nassume {statement}\ngoal G: {statement}\n")
    code, out = run_cli(["ban-verify", "--protocol", str(protocol)], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["steps"] == [{"id": 0, "rule": "assumption", "premises": [], "statement": statement}]
    assert result["goals"] == {statement: 0}


def test_cli_ban_verify_parse_error_exit2(tmp_path, capsys):
    protocol = tmp_path / "bad.ban"
    protocol.write_text("assume NR |= fresh(chr")
    code, _ = run_cli(["ban-verify", "--protocol", str(protocol)], capsys)
    assert code == 2


def test_cli_ban_verify_parse_error_names_the_position_once(tmp_path, capsys):
    protocol = tmp_path / "bad.ban"
    protocol.write_text("protocol handshake\n")
    code = cli.main(["ban-verify", "--protocol", str(protocol)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: parse error: line 1: unknown directive 'protocol' (at position 0)\n"


def test_cli_ban_verify_undecodable_protocol_is_usage_error(tmp_path, capsys):
    protocol = tmp_path / "bad.ban"
    protocol.write_bytes(b"principal \xff\n")
    code = cli.main(["ban-verify", "--protocol", str(protocol)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot read input file: ")


@pytest.mark.parametrize(
    "statement, position",
    [
        ("(" * 5000 + "NR" + ")" * 5000, 128),  # past the parser's recursion limit
        ("NR |= " * 600 + "NR", 384),  # parses, but too deep to hash in derivation
    ],
    ids=["parentheses", "beliefs"],
)
def test_cli_ban_verify_deeply_nested_statement_is_parse_error(statement, position, tmp_path, capsys):
    protocol = tmp_path / "deep.ban"
    protocol.write_text(f"principal NR\nassume {statement}\n")
    code, err = run_cli_error(["ban-verify", "--protocol", str(protocol)], capsys)
    assert code == 2
    assert err == f"error: parse error: line 2: statement longer than 128 tokens (at position {position})\n"


@pytest.mark.parametrize(
    "protocol, goals, expected",
    [
        ("principal NR\n", None,
         "error: no goals: the protocol has no goal lines and no --goals file was given\n"),
        (None, "# no goal lines\n", "error: no goals: the goals file has none\n"),
        (None, "H: NR |= MN |= fresh(cht)\nH: MN |= NR |= NR <-KM-> MN\n",
         "error: parse error: line 2: goal label 'H' appears twice (at position 0)\n"),
        ("principal NR\nnonce chr\nmessage m1: NR |= fresh(chr)\ngoal G: NR |= fresh(chr)\n", None,
         "error: parse error: line 3: message statements must be sees facts (at position 0)\n"),
        ("principal NR\nassume NR |= $\n", None,
         "error: parse error: line 2: unexpected character '$' (at position 6)\n"),
    ],
    ids=["protocol-without-goals", "empty-goals-file", "goals-file-repeats-a-label",
         "message-not-a-sees-fact", "stray-dollar"],
)
def test_cli_ban_verify_needs_goals_each_with_one_label(protocol, goals, expected, tmp_path, capsys):
    argv = ["ban-verify"]
    for option, text in (("--protocol", protocol), ("--goals", goals)):
        if text is not None:
            (tmp_path / option[2:]).write_text(text)
            argv += [option, str(tmp_path / option[2:])]
    code, err = run_cli_error(argv, capsys)
    assert code == 2
    assert err == expected


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_cli_ban_verify_needs_a_depth_of_at_least_one(depth, capsys):
    code = cli.main(["ban-verify", "--max-depth", depth])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --max-depth must be at least 1, got {depth}\n"


@pytest.mark.parametrize("runs", ["0", "-5"])
def test_cli_attack_needs_at_least_one_run(runs, capsys):
    code = cli.main(["attack", "--runs", runs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --runs must be at least 1, got {runs}\n"


def test_console_script_subprocess_roundtrip(tmp_path):
    # real process boundary: append in one process, read in another
    store = str(tmp_path / "s.ndjson")
    reports = write_reports(tmp_path, 1)
    env_cmd = [sys.executable, "-m", "nfcbms.cli"]
    first = subprocess.run(
        env_cmd + ["--key", KEY_HEX, "readout", "--mode", "idle",
                   "--reports", reports, "--store", store],
        capture_output=True, text=True,
    )
    assert first.returncode == 0
    second = subprocess.run(
        env_cmd + ["history", "01" * 8, "--store", store],
        capture_output=True, text=True,
    )
    assert second.returncode == 0
    assert len(json.loads(second.stdout)["entries"]) == 1
