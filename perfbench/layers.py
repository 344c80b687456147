"""Per-layer metrics from the traced ops.

Counts and self times are per traced op (in ``attack_gauntlet`` per
adversary run, as one call holds several), times adjusted as the op's
own time is (see calib.py); shares are a layer's self time over the
traced ops' wall time.  The driver remainder is the time inside
an op that no layer span covers, so the layer shares plus
``share.driver_remainder`` add up to 1.  Every metric is reported for every
workload, as zero where the workload never calls that function.
"""

from __future__ import annotations

from nfcbms import adversary

from tracing import CLI_COMMANDS, DRIVER, HANDSHAKE_STEPS, LAYERS

UNITS = {
    "calls": "1/op", "self_us": "us/op",
    "bytes": "B/op", "transcript_bytes": "B/op", "plaintext_bytes": "B/op",
}
PROBE_UNITS = {
    "probe.handshake_us": "us",
    "probe.seal_open_52b_us": "us",
    "probe.decode_diag_us": "us",
    "probe.wakeup_year_ms": "ms",
    "probe.ban_verify_ms": "ms",
    "probe.passport_append_us": "us",
    "probe.history_2000_ms": "ms",
    "cli.import_ms": "ms",
}
COMMAND_METRICS = {  # filled from the untraced ops of the traced run
    "payload_mb_per_s": "MB/s",
    "readout_p50_ms": "ms",
    "history_p50_ms": "ms",
    "wakeup_sim_p50_ms": "ms",
    "ban_verify_p50_ms": "ms",
    "cold_start_ms": "ms",
}


def _span_fields() -> list:
    """(span name, fields) for every traced function that has metrics."""
    return [
        *[(f"secure_channel.{f}", ("calls", "self_us"))
          for f in ("derive_session_keys", "double_encrypt", "double_decrypt")],
        ("secure_channel.seal_record", ("calls", "self_us", "bytes")),
        ("secure_channel.open_record", ("calls", "self_us", "bytes", "tag_mismatch")),
        *[(f"handshake.{step}", ("calls", "self_us", "failed")) for step in HANDSHAKE_STEPS],
        *[(f"sndef.{f}", ("calls", "self_us", "bytes"))
          for f in ("encode_message", "decode_message", "encode_secure_payload", "decode_secure_payload")],
        *[(f"diagnostics.{f}", ("calls", "self_us", "bytes")) for f in ("encode_diag", "decode_diag")],
        ("adversary.run_session", ("self_us",)),
        ("adversary.scan_secrecy", ("self_us", "transcript_bytes", "plaintext_bytes")),
        ("adversary.link", ("frames", "bytes")),
        *[(f"adversary.attack.{s}", ("runs", "self_us", "blocked")) for s in adversary.STRATEGY_NAMES],
        ("passport.append", ("calls", "self_us")),
        ("passport.entries", ("calls", "self_us", "lines_parsed")),
        ("passport.history", ("self_us",)),
        ("wakeup.simulate", ("calls", "self_us", "events")),
        ("ban.parse_protocol", ("self_us",)),
        ("ban.derive", ("self_us", "rounds", "steps")),
        *[(f"cli.main.{c}", ("self_us",)) for c in CLI_COMMANDS if c not in ("handshake", "attack")],
    ]


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for span, fields in _span_fields():
        for field in fields:
            units[f"{span}.{field}"] = UNITS.get(field, "1/op")
    units["adversary.scan_secrecy.share"] = "ratio"
    for layer in (*LAYERS, "driver_remainder"):
        units[f"share.{layer}"] = "ratio"
    units["trace.op_wall_us"] = "us/op"
    units["trace.overhead_ratio"] = "ratio"
    units.update(PROBE_UNITS)
    units.update(COMMAND_METRICS)
    return units


def layer_metrics(loop, tracer) -> dict:
    """Span-derived metrics of the traced ops: name -> (value, unit)."""
    summary = tracer.summary(loop.scales)
    empty = {"calls": 0, "failed": 0, "self_ns": 0, "wall_ns": 0}
    driver = summary.get(DRIVER, empty)
    ops = max(driver["calls"], 1) * loop.wl.OPS_PER_CALL
    wall_ns = max(driver["wall_ns"], 1)
    out = {}
    for span, fields in _span_fields():
        row = summary.get(span, empty)
        for field in fields:
            if field == "self_us":
                value = row["self_ns"] / 1e3 / ops
            elif field in ("calls", "failed"):
                value = row[field] / ops
            else:
                value = row.get(field, 0) / ops
            out[f"{span}.{field}"] = (value, UNITS.get(field, "1/op"))
    out["adversary.scan_secrecy.share"] = (
        summary.get("adversary.scan_secrecy", empty)["self_ns"] / wall_ns, "ratio"
    )
    for layer in LAYERS:
        self_ns = sum(row["self_ns"] for name, row in summary.items() if name.split(".")[0] == layer)
        out[f"share.{layer}"] = (self_ns / wall_ns, "ratio")
    out["share.driver_remainder"] = (driver["self_ns"] / wall_ns, "ratio")
    out["trace.op_wall_us"] = (wall_ns / 1e3 / ops, "us/op")
    untraced = [t for t in loop.latency_ns if t != float("inf")]
    traced = [t for t in loop.traced_ns if t != float("inf")]
    ratio = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced)) if traced and untraced else 0.0
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out
