"""Layer probes: each public layer function timed alone on fixed inputs.

The inputs do not depend on the seed, so a layer change shows its local
effect here even when the end-to-end effect is diluted.  Each probe
runs three bursts and reports the lowest burst median, which drops the
bursts a neighbour on the shared machine slowed down.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

from nfcbms import ban, diagnostics, handshake, passport, wakeup
from nfcbms import secure_channel as sc

KEY = sc.MasterKey(bytes(range(16)))


def _median_us(fn, reps: int, bursts: int = 3) -> float:
    """Lowest burst median of ``fn``'s time: the burst that ran at full machine speed."""
    medians = []
    for _ in range(bursts):
        times = []
        for i in range(reps):
            start = time.perf_counter_ns()
            fn(i)
            times.append(time.perf_counter_ns() - start)
        medians.append(statistics.median(times))
    return min(medians) / 1e3


def _report(n: int, cells: int) -> diagnostics.BpcReport:
    return diagnostics.BpcReport(
        pack_id=bytes([n % 256]) * 8,
        timestamp=1_700_000_000 + n,
        soc_permille=900,
        soh_permille=950,
        cell_voltages_mv=tuple(3600 + c for c in range(cells)),
        temperatures_dk=(2930, 2940),
        status_flags=int(diagnostics.StatusFlags.STORED),
    )


def _entry(n: int) -> passport.PassportEntry:
    packet = diagnostics.idle_packet(_report(n % 20, 4), seq=n)
    return passport.PassportEntry(
        pack_id=packet.reports[0].pack_id,
        received_at=1_700_000_000 + n,
        diag=packet,
        session_id=f"{n:016x}",
        source="IDLE_DIAG",
    )


def probe_handshake(i: int) -> None:
    reader = handshake.HandshakeState.reader(b"NRD1", b"MNC1", KEY, random.Random(i))
    controller = handshake.HandshakeState.controller(b"MNC1", b"NRD1", KEY, random.Random(i + 1))
    handshake.run_honest_handshake(reader, controller)


def import_ms(src: Path, reps: int = 5) -> float:
    """Median time to import ``nfcbms.cli`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import nfcbms.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True,
            timeout=120,
        )
        times.append(float(out.stdout) * 1e3)
    return statistics.median(times)


def run_probes(workdir: Path, src: Path) -> dict:
    """Probe name -> median time, in the unit its name ends with."""
    out = {}
    out["probe.handshake_us"] = _median_us(probe_handshake, 200)

    keys = sc.SessionKeys(k_enc=bytes(range(16, 32)), k_mac=bytes(range(32, 48)))
    sender, receiver = sc.ChannelState.for_keys(keys), sc.ChannelState.for_keys(keys)
    rng = random.Random(0)
    plain = bytes(range(52))
    out["probe.seal_open_52b_us"] = _median_us(
        lambda i: sc.open_record(receiver, sc.seal_record(sender, plain, b"", rng)), 2000
    )

    raw = diagnostics.encode_diag(
        diagnostics.collect_from_bpcs([_report(n, 8) for n in range(3)], seq=1)
    )
    out["probe.decode_diag_us"] = _median_us(lambda i: diagnostics.decode_diag(raw), 2000)

    year = wakeup.StorageScenario(
        duration_days=365,
        readouts=tuple(wakeup.Readout(h * 3600.0, 30.0) for h in range(365 * 24)),
    )
    model = wakeup.PowerModel()
    out["probe.wakeup_year_ms"] = _median_us(
        lambda i: wakeup.simulate(model, year, wakeup.Method.ED), 7
    ) / 1e3

    protocol = resources.files("nfcbms.data").joinpath("handshake.ban").read_text(encoding="utf-8")
    out["probe.ban_verify_ms"] = _median_us(
        lambda i: ban.verify_protocol(ban.parse_protocol(protocol)), 100
    ) / 1e3

    store = passport.PassportStore(workdir / "probe-append.ndjson")
    entry = _entry(0)
    out["probe.passport_append_us"] = _median_us(lambda i: store.append(entry), 200)

    history = workdir / "probe-history.ndjson"
    history.write_text(
        "".join(json.dumps(_entry(n).to_json(), sort_keys=True) + "\n" for n in range(2000)),
        encoding="utf-8",
    )
    big = passport.PassportStore(history)
    pack = bytes([7]) * 8
    out["probe.history_2000_ms"] = _median_us(lambda i: big.history(pack), 5) / 1e3

    out["cli.import_ms"] = import_ms(src)
    return out
