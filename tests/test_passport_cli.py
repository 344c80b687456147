"""Passport store durability and the command-line harness."""

from __future__ import annotations

import dataclasses
import fcntl
import gc
import json
import subprocess
import sys
import tracemalloc
from importlib import resources

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nfcbms import adversary, cli, diagnostics as dg, passport, wakeup
from nfcbms.errors import NfcBmsError, RangeViolation, StoreError, TagMismatch

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


@pytest.mark.parametrize("existing", [0, 1])
@pytest.mark.parametrize("field, value", [("soc_permille", True), ("timestamp", 1.5)])
def test_store_refuses_an_entry_its_reader_would_reject(field, value, existing, tmp_path, capsys):
    # the reader's type rule is the report's own: Python code cannot build such a report,
    # so no such entry reaches the store, and the store keeps its bytes and takes later appends
    path = tmp_path / "s.ndjson"
    store = passport.PassportStore(path)
    for _ in range(existing):
        store.append(make_entry(1, 100))
    before = path.read_bytes() if existing else None
    detail = f"{field} must be an integer, not {type(value).__name__}"
    with pytest.raises(RangeViolation, match=f"^{detail}$"):
        dataclasses.replace(make_entry(1, 0).diag.reports[0], **{field: value})
    assert (path.read_bytes() if path.exists() else None) == before
    store.append(make_entry(1, 300))
    code, out = run_cli(["history", "01" * 8, "--store", str(path)], capsys)
    assert code == 0
    assert [e["received_at"] for e in json.loads(out)["entries"]] == [100] * existing + [300]


# values that are not integers: bools, floats, strs, None, lists, tuples and bytes
MISTYPED = (st.booleans() | st.floats() | st.text(max_size=3) | st.none()
            | st.lists(st.integers(0, 9), max_size=2) | st.tuples(st.integers(0, 9)) | st.binary(max_size=2))


def mostly(valid, wrong):
    """A value of ``valid`` nine times in ten, else one of ``wrong``."""
    return st.integers(0, 9).flatmap(lambda k: wrong if k == 0 else valid)


def ints(lo: int, hi: int):
    return mostly(st.integers(lo, hi), st.sampled_from([lo - 1, hi + 1]) | MISTYPED)


def int_lists(lo: int, hi: int, max_size: int):
    listed = st.lists(st.integers(lo, hi), min_size=1, max_size=max_size)
    one_wrong = st.tuples(listed, st.sampled_from([lo - 1, hi + 1]) | MISTYPED).map(lambda t: t[0] + [t[1]])
    return mostly(listed | listed.map(tuple), one_wrong | MISTYPED)


REPORT_VALUES = {
    "pack_id": mostly(st.binary(min_size=8, max_size=8),
                      st.binary(min_size=7, max_size=9) | st.binary(min_size=8, max_size=8).map(bytearray)
                      | MISTYPED),
    "timestamp": ints(0, (1 << 64) - 1),
    "soc_permille": ints(0, 1000),
    "soh_permille": ints(0, 1000),
    "cell_voltages_mv": int_lists(0, 5000, 32),
    "temperatures_dk": int_lists(-(1 << 15), (1 << 15) - 1, 4),
    "status_flags": ints(0, 0xFFFF),
}


# the rest of a packet and an entry: use_case and origin from either enum or as ints
PACKET_VALUES = {
    "use_case": mostly(st.sampled_from(dg.UseCase), st.sampled_from(dg.Origin) | st.integers(0, 4) | MISTYPED),
    "origin": mostly(st.sampled_from(dg.Origin), st.sampled_from(dg.UseCase) | st.integers(0, 3) | MISTYPED),
    "container": mostly(st.just(tuple), st.just(list)),
    "sequence_no": ints(0, (1 << 32) - 1),
    "received_at": ints(0, (1 << 64) - 1),
    "session_id": mostly(st.text(max_size=4), MISTYPED),
    "source": mostly(st.sampled_from([u.name for u in dg.UseCase]), st.sampled_from([o.name for o in dg.Origin])
                     | MISTYPED),
}
VALID_PACKET = dict(use_case=dg.UseCase.IDLE_DIAG, origin=dg.Origin.BPC, container=tuple, sequence_no=0,
                    received_at=0, session_id="s1", source="IDLE_DIAG")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.fixed_dictionaries(REPORT_VALUES), rest=st.fixed_dictionaries(PACKET_VALUES))
# a float timestamp passes every range check, and struct cannot encode it
@example(fields=dict(report_dict(1), pack_id=bytes([1]) * 8, timestamp=1.5), rest=VALID_PACKET)
# a use case given as an origin, or an origin as a use case, is written under a name the reader refuses
@example(fields=dict(report_dict(1), pack_id=bytes([1]) * 8), rest=dict(VALID_PACKET, origin=dg.UseCase.IDLE_DIAG))
@example(fields=dict(report_dict(1), pack_id=bytes([1]) * 8), rest=dict(VALID_PACKET, use_case=dg.Origin.BPC,
                                                                      source="BPC"))
# an entry's diag given as something other than a packet: checked first, so its reports are never read
@example(fields=dict(report_dict(1), pack_id=bytes([1]) * 8), rest=dict(VALID_PACKET, diag="IDLE_DIAG"))
@example(fields=dict(report_dict(1), pack_id=bytes([1]) * 8), rest=dict(VALID_PACKET, diag=None))
@example(fields=dict(report_dict(1), pack_id=bytes([1]) * 8),
         rest=dict(VALID_PACKET, diag=list(make_entry(1, 0).diag.reports)))
@example(fields=dict(report_dict(1), pack_id=bytes([1]) * 8),
         rest=dict(VALID_PACKET, diag=dg.packet_to_json(make_entry(1, 0).diag)))
def test_a_built_report_packet_and_entry_round_trip_exactly(fields, rest, tmp_path):
    # whatever Python code passes in, building raises a structured error or gives values
    # that the wire codec, the JSON view and the store all give back unchanged
    try:
        report = dg.BpcReport(**fields)
        packet = dg.DiagPacket(rest["use_case"], rest["origin"], rest["container"]([report]), rest["sequence_no"])
        entry = passport.PassportEntry(fields["pack_id"], rest["received_at"], rest.get("diag", packet),
                                       rest["session_id"], rest["source"])
    except NfcBmsError as exc:
        if "diag" in rest:
            assert str(exc) == f"diag must be a DiagPacket, not {type(rest['diag']).__name__}"
        return
    assert dg.decode_diag(dg.encode_diag(packet)) == packet
    assert dg.packet_from_json(json.loads(json.dumps(dg.packet_to_json(packet)))) == packet
    store = passport.PassportStore(tmp_path / "s.ndjson")
    store.path.unlink(missing_ok=True)
    store.append(entry)
    assert store.history(entry.pack_id) == [entry]


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


# each stored entry: the packs its reports come from (one is an idle readout), and its stamp
STORED = st.lists(st.tuples(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
                            st.integers(0, 3)), max_size=12)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stored=STORED, pack=st.integers(1, 5))
def test_history_is_the_sorted_entries_that_carry_the_pack(stored, pack, tmp_path):
    # history keeps only matches as it reads, so it must agree with filtering the full list
    entries = []
    for i, (packs, received_at) in enumerate(stored):
        reports = [dg.report_from_json(report_dict(n)) for n in packs]
        packet = dg.idle_packet(reports[0], seq=i) if i % 2 else dg.collect_from_bpcs(reports, seq=i)
        entries.append(passport.PassportEntry(packet.reports[0].pack_id, received_at, packet, f"s{i}",
                                              packet.use_case.name))
    path = tmp_path / "s.ndjson"
    path.write_text("".join(json.dumps(e.to_json(), sort_keys=True) + "\n" for e in entries))
    store = passport.PassportStore(path)
    assert store.entries() == entries
    carried = bytes([pack]) * 8
    expected = sorted((e for e in entries if carried in [r.pack_id for r in e.diag.reports]),
                      key=lambda e: e.received_at)
    assert store.history(carried) == expected


def test_history_holds_one_line_and_its_matches_whatever_the_store_size(tmp_path):
    # one entry of pack 1 among entries of four other packs each: the query reads every line but
    # holds one at a time, so its peak is a small share of the store and grows far less than the store
    other = dg.collect_from_bpcs([dg.report_from_json(report_dict(n)) for n in range(2, 6)], seq=0)
    entry = passport.PassportEntry(other.reports[0].pack_id, 5, other, "s", "ACTIVE_DIAG")
    line = json.dumps(entry.to_json()) + "\n"
    match = make_entry(1, 7)
    sizes, peaks = [], []
    for count in (500, 2000):
        path = tmp_path / f"s{count}.ndjson"
        path.write_text(line * (count // 2) + json.dumps(match.to_json()) + "\n" + line * (count - count // 2 - 1))
        gc.collect()  # a full collection also empties the interpreter's free lists
        tracemalloc.start()
        try:
            assert passport.PassportStore(path).history(match.pack_id) == [match]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(path.stat().st_size)
        assert peaks[-1] < sizes[-1] / 4, (count, peaks[-1], sizes[-1])
    # what does grow is CPython's tuple free list, which keeps up to 2000 freed tuples of each size
    # (a reports tuple per line read): tens of bytes per line, where reading the store whole took 2x its size
    assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4, (peaks, sizes)


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


def test_cli_readouts_without_seed_store_distinct_session_ids(tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    readout = ["--key", KEY_HEX, "readout", "--mode", "idle",
               "--reports", write_reports(tmp_path, 1), "--store", str(store)]
    assert [run_cli(readout, capsys)[0] for _ in range(2)] == [0, 0]
    first, second = passport.PassportStore(store).entries()
    assert first.session_id != second.session_id


def test_cli_readout_without_seed_refuses_the_frames_of_an_earlier_one(tmp_path, capsys, monkeypatch):
    # the controller's frames 2, 4 and 6 of one readout, recorded and played into a later readout
    # of another state: the reader's challenges are fresh, so it refuses them and nothing is stored
    store = tmp_path / "s.ndjson"
    recorded = {}

    class Record:
        def on_frame(self, frame_no, direction, wire):
            if frame_no in (2, 4, 6):
                assert direction == "controller->reader"
                recorded[frame_no] = wire
            return wire

    class Substitute:
        def on_frame(self, frame_no, direction, wire):
            return recorded.get(frame_no, wire)

    honest = adversary.LinkChannel

    def readout(strategy, soh: int) -> int:
        monkeypatch.setattr(adversary, "LinkChannel", lambda: honest(strategy))
        reports = tmp_path / f"soh-{soh}.json"
        reports.write_text(json.dumps([dict(report_dict(1), soh_permille=soh)]))
        return run_cli(["--key", KEY_HEX, "readout", "--mode", "idle", "--reports", str(reports),
                        "--store", str(store)], capsys)[0]

    assert readout(Record(), 980) == 0
    assert sorted(recorded) == [2, 4, 6]
    before = store.read_bytes()
    assert readout(Substitute(), 610) == 1
    assert store.read_bytes() == before


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
        ("entry", "pack_id", 5, "pack_id must be a string, not int"),
        ("report", "pack_id", 5, "pack_id must be a string, not int"),
        ("entry", "session_id", {"x": [1, 2]}, "session_id must be a string, not dict"),
        ("entry", "source", 7, "source must be the packet's use case IDLE_DIAG"),
        ("entry", "source", "ACTIVE_DIAG", "source must be the packet's use case IDLE_DIAG"),
        # two faults: every type is checked before any range
        ("report", ("soc_permille", "cell_voltages_mv"), (5000, "4100"),
         "cell_voltages_mv must be a list of integers, not str"),
    ],
    ids=["soc-out-of-range", "cells-string", "soh-float", "sequence-bool", "received-at-string",
         "received-at-negative", "received-at-past-64-bits", "pack-id-short",
         "pack-id-of-no-report", "pack-id-number", "report-pack-id-number", "session-id-object",
         "source-number", "source-other-use-case",
         "soc-out-of-range-and-cells-string"],
)
def test_cli_history_out_of_range_or_mistyped_store_value_exit3(where, key, value, detail, tmp_path, capsys):
    line = make_entry(1, 100).to_json()
    target = {"entry": line, "diag": line["diag"], "report": line["diag"]["reports"][0]}[where]
    target.update(zip(key, value) if isinstance(key, tuple) else [(key, value)])
    store = tmp_path / "s.ndjson"
    store.write_text(json.dumps(line) + "\n")
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err == f"store error: {store}:1: corrupt entry: {detail}\n"


@pytest.mark.parametrize("pack_id, detail", [
    (bytearray(bytes([1]) * 8), "pack_id must be bytes, not bytearray"),  # equal to the report's id, unhashable
    (5, "pack_id must be bytes, not int"),
], ids=["pack-id-bytearray", "pack-id-number"])
def test_an_entry_built_in_python_types_its_pack_id_before_any_range(pack_id, detail):
    entry = make_entry(1, 100)
    with pytest.raises(RangeViolation, match=f"^{detail}$"):
        dataclasses.replace(entry, pack_id=pack_id)


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
        (READOUT, one_report(pack_id=5), "error: bad reports file: pack_id must be a string, not int"),
        # two faults: every type is checked before any range
        (READOUT, one_report(soc_permille=5000, cell_voltages_mv="4100"),
         "error: bad reports file: cell_voltages_mv must be a list of integers, not str"),
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
         "reports-float-soh", "reports-string-soc", "reports-bool-flags", "reports-number-pack-id",
         "reports-soc-range-and-cells-type", "scenario-huge-int", "reports-not-utf8",
         "scenario-not-utf8", "model-not-utf8"],
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


def test_cli_history_corrupt_line_after_the_last_match_exit3(tmp_path, capsys):
    # every line is checked before it is matched, and faults are reported in file order
    match, other = (json.dumps(make_entry(n, 100 * n).to_json()) for n in (1, 2))
    store = tmp_path / "s.ndjson"
    store.write_text(f"{match}\n{other}\n{match}\n{other}\n{{not json\n{other}\n[]\n")
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err == (f"store error: {store}:5: corrupt entry: "
                   "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n")


def test_cli_history_undecodable_byte_after_a_corrupt_line_is_a_corrupt_store(tmp_path, capsys):
    # the whole store is decoded before any line is parsed, so the decode error comes first
    store = tmp_path / "s.ndjson"
    store.write_bytes(b"{not json\n" + json.dumps(make_entry(1, 100).to_json()).encode() + b"\n\xff\n")
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err.startswith(f"store error: {store}: corrupt store: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("before", [b"", "caf\u00e9\u2028".encode()], ids=["ascii", "utf-8"])
def test_cli_history_names_an_undecodable_byte_by_its_place_in_the_store(before, tmp_path, capsys):
    # valid UTF-8 text in an earlier string does not hide the bad byte, and its position counts every line
    good = json.dumps(dict(make_entry(1, 100).to_json(), session_id="SID")).encode().replace(b"SID", before)
    store = tmp_path / "s.ndjson"
    store.write_bytes(good + b"\n" + good[:9] + b"\xe9\n" + b"\xff")  # the uncommitted tail is never decoded
    code, err = run_cli_error(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3
    assert err == (f"store error: {store}: corrupt store: 'utf-8' codec can't decode byte 0xe9 "
                   f"in position {len(good) + 10}: invalid continuation byte\n")


def test_an_append_waits_for_a_running_history_read(tmp_path):
    # the shared lock is held from the first line to the last entry built, and released after
    path = tmp_path / "s.ndjson"
    store = passport.PassportStore(path)
    for n in (1, 2):
        store.append(make_entry(n, 100 * n))
    reading = store._read()
    assert next(reading) == make_entry(1, 100)
    with open(path, "rb") as other:
        with pytest.raises(BlockingIOError):
            fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert list(reading) == [make_entry(2, 200)]
        fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)


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


def test_cli_wakeup_sim_builds_trace_events_only_for_trace_out(tmp_path, capsys, monkeypatch):
    built = []

    class Counted(wakeup.TraceEvent):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(wakeup, "TraceEvent", Counted)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"duration_days": 1, "readouts": [
        {"start_s": 60 * n, "length_s": 5} for n in (3, 1, 2)]}))
    for method in ("both", "ed", "eh"):
        code, _ = run_cli(["wakeup-sim", "--method", method, "--scenario", str(scenario)], capsys)
        assert code == 0
    assert built == []
    trace = tmp_path / "trace.jsonl"
    code, _ = run_cli(["wakeup-sim", "--method", "eh", "--scenario", str(scenario),
                       "--trace-out", str(trace)], capsys)
    assert code == 0
    assert len(built) == len(trace.read_text().splitlines()) == 1 + 3 * 3


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


BUNDLED_BAN = resources.files("nfcbms.data").joinpath("handshake.ban").read_text(encoding="utf-8")
BUNDLED_PREMISES = [line for line in BUNDLED_BAN.splitlines() if line.startswith(("assume ", "message "))]


@pytest.mark.parametrize("dropped", BUNDLED_PREMISES)
def test_cli_ban_verify_needs_every_bundled_premise_but_plaintext_m1(dropped, tmp_path, capsys):
    assert len(BUNDLED_PREMISES) == 11  # six assumptions, messages m1-m5
    protocol = tmp_path / "ablated.ban"
    protocol.write_text("\n".join(line for line in BUNDLED_BAN.splitlines() if line != dropped))
    code, out = run_cli(["ban-verify", "--protocol", str(protocol)], capsys)
    result = json.loads(out)["result"]
    if dropped.startswith("message m1:"):
        assert code == 0
        assert set(result["goals"]) == {"NR |= MN |= NR <-KM-> MN", "MN |= NR |= NR <-KM-> MN",
                                        "NR |= MN |= NR <-KS-> MN", "MN |= NR |= NR <-KS-> MN"}
    else:
        assert code == 4
        assert not result["derived"]


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


def test_cli_protocol_error_that_escapes_a_command_exits_1(capsys, monkeypatch):
    def broken_suite(*args, **kwargs):
        raise TagMismatch("x")

    monkeypatch.setattr(adversary, "run_attack_suite", broken_suite)
    code, err = run_cli_error(["attack", "--runs", "1"], capsys)
    assert code == 1
    assert err == "protocol error: TagMismatch: x\n"


def test_cli_readout_into_a_store_under_a_regular_file_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    store = blocker / "store.ndjson"
    code, err = run_cli_error(
        ["--key", KEY_HEX, "readout", "--mode", "idle", "--reports", write_reports(tmp_path, 1),
         "--store", str(store)],
        capsys,
    )
    assert code == 3
    assert err.startswith(f"store error: cannot append to {store}: ")
    assert blocker.read_text() == ""


def test_cli_history_of_a_directory_store_exits_3(tmp_path, capsys):
    code, err = run_cli_error(["history", "01" * 8, "--store", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith(f"store error: cannot read {tmp_path}: ")


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
