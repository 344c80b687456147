"""Smoke tests of the benchmark itself; run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import profile_workload
import run
import tracing
import workloads
from nfcbms import adversary
from nfcbms import secure_channel as sc

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_clean_at_a_tiny_size(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, tmp_path)
    wl.warm_up()
    loop = run.Loop(wl, tracing.Tracer())
    loop.run(0.2)
    assert loop.attempted >= 1
    assert loop.failed == 0, loop.errors


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_input_digest(name, tmp_path):
    first = workloads.WORKLOADS[name](5, tmp_path / "a").digest
    again = workloads.WORKLOADS[name](5, tmp_path / "b").digest
    other = workloads.WORKLOADS[name](6, tmp_path / "c").digest
    assert first == again != other


def test_cli_prints_declared_metrics_and_layer_shares_add_up():
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "handshake_storm",
             "--seed", "2", "--seconds", "0.3", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, timeout=300, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }
    shares = [m["value"] for name, m in result["metrics"].items() if name.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0)
    assert list(layers.metric_units()) == [m["name"] for m in BENCH["per_layer"]]


def test_attack_digest_gate_rejects_changed_outcomes(tmp_path, monkeypatch):
    wl = workloads.AttackGauntlet(0, tmp_path)
    for j in range(workloads.DIGEST_PREFIX_CALLS):
        a = wl.args(j)
        wl.check(a, wl.run(a))
    assert wl.finish() == []
    monkeypatch.setattr(wl, "recorded_digest", lambda: "0" * 64)
    ops = workloads.DIGEST_PREFIX_CALLS * wl.OPS_PER_CALL
    assert wl.finish() and wl.finish()[0][1] == ops


@pytest.mark.parametrize("name", ["handshake_storm", "bulk_stream", "cli_mix"])
def test_written_trace_holds_no_key_material(name, tmp_path, monkeypatch):
    session_keys = []
    derive = sc.derive_session_keys

    def recording_derive(*args):
        keys = derive(*args)
        session_keys.append(keys)
        return keys

    monkeypatch.setattr(sc, "derive_session_keys", recording_derive)
    wl = workloads.WORKLOADS[name](7, tmp_path / "work")
    master = bytes.fromhex(wl.key_hex) if name == "cli_mix" else wl.master.bytes
    tracer = tracing.Tracer()
    j = 0 if name != "cli_mix" else 1  # op 1 of cli_mix is a readout
    a = wl.args(j)
    tracer.install()
    try:
        out = tracer.op(j, wl.run, a)
    finally:
        tracer.uninstall()
    wl.check(a, out)
    trace = tmp_path / "trace.jsonl"
    tracer.write(trace)
    assert session_keys and len(tracer.spans) > 10
    secrets = [master] + [k for keys in session_keys for k in (keys.k_enc, keys.k_mac)]
    needles = secrets + [s.hex().encode() for s in secrets]
    assert adversary.scan_secrecy(trace.read_bytes(), needles) == []


def test_profile_entry_point_reports_self_time():
    stats = profile_workload.profile("attack_gauntlet", 1, 0.2)
    assert stats.total_calls > 0


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in run.HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "handshake_storm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert not Path(tmp_path / "perfbench" / "_out").exists()
