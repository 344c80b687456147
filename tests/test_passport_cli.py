"""Passport store durability and the command-line harness."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from nfcbms import cli, diagnostics as dg, passport
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


def test_cli_history_unknown_pack_empty_list(tmp_path, capsys):
    code, out = run_cli(["history", "aa" * 8, "--store", str(tmp_path / "s.ndjson")], capsys)
    assert code == 0
    assert json.loads(out)["entries"] == []


def test_cli_history_corrupt_store_exit3(tmp_path, capsys):
    store = tmp_path / "s.ndjson"
    store.write_text("garbage\n")
    code, _ = run_cli(["history", "01" * 8, "--store", str(store)], capsys)
    assert code == 3


def test_cli_store_env_default(tmp_path, capsys, monkeypatch):
    store = tmp_path / "env.ndjson"
    monkeypatch.setenv(passport.ENV_STORE_PATH, str(store))
    assert str(passport.default_store_path()) == str(store)


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
