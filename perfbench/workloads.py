"""Seeded inputs, the timed operation and the output checks of each workload.

Every workload is a closed loop with one client: the benchmark loop asks
for the arguments of call ``j`` (untimed), runs :meth:`Workload.run`
(timed) and then :meth:`Workload.check` (untimed).  A call is one op,
except in ``attack_gauntlet``, where it is ``OPS_PER_CALL`` adversary
runs.  All inputs derive from the workload name and the seed and are
generated in ``__init__``, before any timing; per-call endpoint and
command seeds are ``base + j`` so every call gets fresh ones without a
pre-built list.  :attr:`Workload.digest` hashes every generated input,
so two runs can be shown to have used identical inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

from nfcbms import adversary, cli, diagnostics, handshake, sndef
from nfcbms import secure_channel as sc
from nfcbms.errors import NfcBmsError

READER_ID = b"NRD1"
CONTROLLER_ID = b"MNC1"
MAX_PLAINTEXT = 8000  # largest packet that still fits the 8192-byte NDEF cap once sealed
MIN_REPORT = 26  # one report with one cell and no temperatures
IDLE_UW = {"ed": 117.81, "eh": 98.34}  # the paper's idle figures
BAN_GOALS = {  # the bundled goals G1.1, G1.2, G2.1 and G2.2 as ban-verify prints them
    "NR |= MN |= NR <-KM-> MN",
    "MN |= NR |= NR <-KM-> MN",
    "NR |= MN |= NR <-KS-> MN",
    "MN |= NR |= NR <-KS-> MN",
}


class CheckFailed(Exception):
    """An op returned a wrong result."""


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _report(rng: random.Random, pack_id: bytes, cells: int, temps: int) -> diagnostics.BpcReport:
    return diagnostics.BpcReport(
        pack_id=pack_id,
        timestamp=rng.randrange(1 << 33, 1 << 40),
        soc_permille=rng.randrange(1001),
        soh_permille=rng.randrange(1001),
        cell_voltages_mv=tuple(rng.randrange(2500, 4300) for _ in range(cells)),
        temperatures_dk=tuple(rng.randrange(2500, 3500) for _ in range(temps)),
        status_flags=int(diagnostics.StatusFlags.STORED),
    )


def _active_packet(rng: random.Random, size: int, seq: int) -> diagnostics.DiagPacket:
    """An active-diagnostic packet whose encoding is about ``size`` bytes."""
    left = size - diagnostics.HEADER_LEN
    reports, ids = [], set()
    while left >= MIN_REPORT or not reports:
        temps = min(rng.randint(0, 4), max(0, (left - MIN_REPORT) // 2))
        room = (left - 24 - 2 * temps) // 2
        cells = max(1, min(room, 32) if room <= 32 + 6 else rng.randint(1, 32))
        pack_id = rng.randbytes(8)
        while pack_id in ids:
            pack_id = rng.randbytes(8)
        ids.add(pack_id)
        reports.append(_report(rng, pack_id, cells, temps))
        left -= 24 + 2 * cells + 2 * temps
    return diagnostics.collect_from_bpcs(reports, seq)


def _log_spaced(rng: random.Random, k: int, lo: float, hi: float) -> list:
    """``k`` values from ``lo`` to ``hi`` in equal log steps, in a seeded order.

    Every seed gets the same values, so the work per op, and with it op
    latency, does not swing with the luck of the draw; only contents and
    order vary.
    """
    values = [lo * (hi / lo) ** (i / (k - 1)) for i in range(k)]
    rng.shuffle(values)
    return values


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _packet_hex(packet: diagnostics.DiagPacket) -> str:
    return diagnostics.encode_diag(packet).hex()


class Workload:
    name = ""
    WARM_UP_CALLS = 20
    OPS_PER_CALL = 1  # ops one call of run() covers; per-op figures divide by it
    GAMMA: float  # how strongly op time follows the machine's slow phases (calib.py)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digest = ""

    def args(self, j: int):
        raise NotImplementedError

    def run(self, a):
        raise NotImplementedError

    def check(self, a, out) -> int:
        """Raise CheckFailed on a wrong result; return verified payload bytes."""
        raise NotImplementedError

    def kind(self, a) -> str:
        return "op"

    def warm_up(self) -> None:
        for j in range(-self.WARM_UP_CALLS, 0):
            a = self.args(j)
            self.check(a, self.run(a))

    def finish(self) -> list:
        """Run-level gates after the last op: (failure message, ops it covers) pairs."""
        return []

    def info(self) -> dict:
        return {}


# --- honest sessions over the link ---


def _hs_body(wire: bytes) -> bytes:
    return sndef.decode_message(wire).records[0].payload[handshake.FRAME_HEADER_LEN:]


def check_session(master: sc.MasterKey, packets: list, channel, outcome) -> int:
    """Re-open every delivered record under independently derived keys."""
    if not outcome.established or outcome.first_failure is not None:
        raise CheckFailed(f"honest session failed: {outcome.to_json()['first_failure']}")
    if outcome.secrecy_hits:
        raise CheckFailed("plaintext window found on the link")
    if outcome.packets_delivered != len(packets) or outcome.frames_on_link != 5 + len(packets):
        raise CheckFailed("packets or frames missing")
    frames = [f.delivered for f in channel.transcript]
    try:
        ch_r = sc.Nonce(_hs_body(frames[0]))
        ch_t = sc.Nonce(_hs_body(frames[1])[:16])
        chan = sc.ChannelState.for_keys(sc.derive_session_keys(master, ch_r, ch_t))
        # message 4 opens the controller->reader chain that the packets continue
        sc.open_record(chan, sndef.decode_secure_payload(_hs_body(frames[3])))
        delivered = 0
        for packet, wire in zip(packets, frames[5:]):
            record = sndef.decode_message(wire).records[0]
            plain = sc.open_record(chan, sndef.decode_secure_payload(record.payload))
            if diagnostics.decode_diag(plain) != packet:
                raise CheckFailed("decoded packet differs from the packet sent")
            delivered += len(plain)
    except NfcBmsError as exc:
        raise CheckFailed(f"delivered frames do not verify: {exc!r}") from None
    return delivered


class _SessionWorkload(Workload):
    """One honest ``adversary.run_session`` per op, one fleet master key."""

    def _base(self, rng: random.Random) -> dict:
        self.master = sc.MasterKey(rng.randbytes(16))
        self.reader_base = rng.randrange(1 << 40)
        self.controller_base = rng.randrange(1 << 40)
        return {
            "master": self.master.bytes.hex(),
            "reader_base": self.reader_base,
            "controller_base": self.controller_base,
        }

    def packets_for(self, j: int) -> list:
        raise NotImplementedError

    def args(self, j: int):
        reader = adversary.EndpointConfig(READER_ID, self.master, self.reader_base + j)
        controller = adversary.EndpointConfig(CONTROLLER_ID, self.master, self.controller_base + j)
        return reader, controller, self.packets_for(j)

    def run(self, a):
        reader, controller, packets = a
        channel = adversary.LinkChannel()
        return channel, adversary.run_session(channel, reader, controller, packets)

    def check(self, a, out) -> int:
        return check_session(self.master, a[2], *out)


class HandshakeStorm(_SessionWorkload):
    """Smallest messages: the handshake itself is the cost."""

    name = "handshake_storm"
    POOL = 1024
    EMPTY_EVERY = 4  # one session in four carries no packet
    GAMMA = 0.85

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        inputs = self._base(rng)
        self.pool = [
            diagnostics.idle_packet(_report(rng, rng.randbytes(8), rng.randint(1, 8), rng.randint(0, 2)), i)
            for i in range(self.POOL)
        ]
        inputs["packets"] = [_packet_hex(p) for p in self.pool]
        self.digest = _digest(inputs)

    def packets_for(self, j: int) -> list:
        if j % self.EMPTY_EVERY == 0:
            return []
        return [self.pool[j % self.POOL]]


class BulkStream(_SessionWorkload):
    """Long sessions of active-diagnostic packets from 34 B up to the NDEF cap."""

    name = "bulk_stream"
    POOL = 32
    PACKETS = 12
    GAMMA = 0.1
    WARM_UP_CALLS = 1

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        inputs = self._base(rng)
        smallest = diagnostics.HEADER_LEN + MIN_REPORT
        self.pool = [
            [
                _active_packet(rng, round(size), seq)
                for seq, size in enumerate(_log_spaced(rng, self.PACKETS, smallest, MAX_PLAINTEXT))
            ]
            for _ in range(self.POOL)
        ]
        inputs["sessions"] = [[_packet_hex(p) for p in s] for s in self.pool]
        self.digest = _digest(inputs)

    def packets_for(self, j: int) -> list:
        return self.pool[j % self.POOL]


# --- adversary gauntlet ---


DIGEST_PREFIX_CALLS = 10
DIGEST_FILE = Path(__file__).with_name("attack_digests.json")


def attack_outcome(report) -> list:
    """The per-strategy histograms of one suite report, in a stable form."""
    return [
        [name, s.runs, s.successes, s.leaks, sorted(s.blocked_at.items()), sorted(s.errors.items())]
        for name, s in report.strategies.items()
    ]


class AttackGauntlet(Workload):
    """Adversary runs against fresh master keys, all five strategies.

    One call runs ``run_attack_suite`` with ``RUNS`` runs for each
    strategy in turn, one strategy per suite so the trace can tell them
    apart, and so every call does the same mix of work.  Each suite also
    plays its strategy's fixed canonical demo once; batched this way the
    demos are a few per cent of a call's time, where one run per call
    would make them about half.
    """

    name = "attack_gauntlet"
    RUNS = 16
    OPS_PER_CALL = RUNS * len(adversary.STRATEGY_NAMES)
    GAMMA = 0.85
    WARM_UP_CALLS = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.base = _rng(self.name, seed).randrange(1 << 40)
        self.digest = _digest({
            "base": self.base, "strategies": adversary.STRATEGY_NAMES, "runs": self.RUNS,
        })
        self.prefix = hashlib.sha256()
        self.calls_seen = 0
        self.histograms: dict = {}

    def args(self, j: int):
        return self.base + j, j

    def run(self, a):
        return [
            adversary.run_attack_suite(a[0], self.RUNS, strategies=(name,))
            for name in adversary.STRATEGY_NAMES
        ]

    def check(self, a, out) -> int:
        j = a[1]
        strategies = [(name, s) for report in out for name, s in report.strategies.items()]
        won = [name for name, s in strategies if s.successes]
        if won or any(report.total_successes for report in out):
            raise CheckFailed(f"attacks succeeded: {won}")
        runs = [(name, s.runs) for name, s in strategies]
        if runs != [(name, self.RUNS) for name in adversary.STRATEGY_NAMES]:
            raise CheckFailed(f"suites ran other strategies or run counts: {runs}")
        if 0 <= j < DIGEST_PREFIX_CALLS:
            outcome = [row for report in out for row in attack_outcome(report)]
            self.prefix.update(json.dumps(outcome).encode())
        if j >= 0:
            self.calls_seen += 1
            for strategy, s in strategies:
                hist = self.histograms.setdefault(strategy, {"blocked_at": {}, "errors": {}})
                for key, table in (("blocked_at", s.blocked_at), ("errors", s.errors)):
                    for k, v in table.items():
                        hist[key][str(k)] = hist[key].get(str(k), 0) + v
        return 0

    def recorded_digest(self) -> str | None:
        table = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
        return table["digests"].get(str(self.seed))

    def finish(self) -> list:
        if self.calls_seen < DIGEST_PREFIX_CALLS:
            return []
        expected = self.recorded_digest()
        if expected is not None and expected != self.prefix.hexdigest():
            message = (f"attack histograms of the first {DIGEST_PREFIX_CALLS} calls differ "
                       f"from the digest recorded for seed {self.seed}")
            return [(message, DIGEST_PREFIX_CALLS * self.OPS_PER_CALL)]
        return []

    def info(self) -> dict:
        recorded = self.recorded_digest()
        return {
            "histograms": self.histograms,
            "prefix_digest": self.prefix.hexdigest() if self.calls_seen >= DIGEST_PREFIX_CALLS else None,
            "digest_gate": "unrecorded seed" if recorded is None else "checked",
        }


# --- operator command mix through the CLI ---


class CliMix(Workload):
    """Readouts into a growing store, history queries, wakeup-sim, ban-verify, cold CLI runs."""

    name = "cli_mix"
    FLEET = 256
    CYCLE = 40  # op kinds and report files repeat with this period
    GAMMA = 0.75
    WARM_UP_CALLS = CYCLE
    COLD_AT, WAKEUP_AT, BAN_AT = 0, 20, (10, 30)
    HISTORY_EVERY = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        rng = _rng(self.name, seed)
        self.key_hex = rng.randbytes(16).hex()
        self.seed_base = rng.randrange(1 << 30)
        fleet = []
        while len(fleet) < self.FLEET:
            pid = rng.randbytes(8)
            if pid not in fleet:
                fleet.append(pid)
        self.files = []
        inputs = {"key": self.key_hex, "seed_base": self.seed_base, "reports": []}
        workdir.mkdir(parents=True, exist_ok=True)
        slots = [c for c in range(self.CYCLE) if self._kind(c) == "readout"]
        self.file_slot = {c: i for i, c in enumerate(slots)}  # readout position in the cycle -> file
        for i, count in enumerate(_log_spaced(rng, len(slots), 1, 64)):
            packs = rng.sample(fleet, round(count))
            # a fixed report shape, so a file's cost depends on its pack count alone
            reports = [diagnostics.report_to_json(_report(rng, p, 12, 2)) for p in packs]
            path = workdir / f"reports-{i:03d}.json"
            path.write_text(json.dumps(reports), encoding="utf-8")
            packet = diagnostics.collect_from_bpcs(
                [diagnostics.report_from_json(r) for r in reports], 0
            )
            self.files.append((str(path), reports, len(diagnostics.encode_diag(packet))))
            inputs["reports"].append(reports)
        readouts = [
            {"start_s": h * 3600 + rng.randrange(600), "length_s": rng.randrange(5, 60)}
            for h in range(365 * 24)
        ]
        scenario = {"duration_days": 365, "readouts": readouts}
        self.scenario = workdir / "scenario-year-hourly.json"
        self.scenario.write_text(json.dumps(scenario), encoding="utf-8")
        inputs["scenario"] = scenario
        self.history_picks = [rng.randrange(64) for _ in range(self.CYCLE)]
        inputs["history_picks"] = self.history_picks
        self.digest = _digest(inputs)
        self.store = workdir / "passport.ndjson"
        self.appended: dict = {}  # (store path, pack id hex) -> entries holding the pack
        self.env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def _kind(self, j: int) -> str:
        c = j % self.CYCLE
        if c == self.COLD_AT:
            return "cold_start"
        if c == self.WAKEUP_AT:
            return "wakeup_sim"
        if c in self.BAN_AT:
            return "ban_verify"
        if c % self.HISTORY_EVERY == self.HISTORY_EVERY - 1:
            return "history"
        return "readout"

    def _file_for(self, j: int) -> tuple:
        return self.files[self.file_slot[j % self.CYCLE]]

    def args(self, j: int):
        kind = self._kind(j)
        store = str(self.store if j >= 0 else self.workdir / "warm-up.ndjson")
        seed = str(self.seed_base + j)
        common = ["--seed", seed, "--key", self.key_hex]
        if kind == "readout":
            path, reports, size = self._file_for(j)
            argv = ["readout", *common, "--mode", "active", "--reports", path, "--store", store]
            return kind, argv, (reports, size)
        if kind == "history":
            # a pack of the most recent readout's file
            last = j - 1
            while self._kind(last) != "readout":
                last -= 1
            reports = self._file_for(last)[1]
            pack = reports[self.history_picks[j % self.CYCLE] % len(reports)]["pack_id"]
            return kind, ["history", pack, "--store", store], pack
        if kind == "wakeup_sim":
            return kind, ["wakeup-sim", "--scenario", str(self.scenario)], None
        if kind == "ban_verify":
            return kind, ["ban-verify"], None
        return kind, [sys.executable, "-m", "nfcbms.cli", "handshake", *common], None

    def kind(self, a) -> str:
        return a[0]

    def run(self, a):
        kind, argv, _ = a
        if kind == "cold_start":
            proc = subprocess.run(argv, capture_output=True, text=True, env=self.env, timeout=120)
            return proc.returncode, proc.stdout
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, a, out) -> int:
        kind, argv, expect = a
        code, stdout = out
        if code != 0:
            raise CheckFailed(f"{kind} exited {code}")
        payload = json.loads(stdout)
        if kind == "readout":
            reports, size = expect
            (entry,) = payload["entries_appended"]
            if entry["diag"]["reports"] != reports or entry["source"] != "ACTIVE_DIAG":
                raise CheckFailed("stored readout differs from the reports sent")
            for r in reports:
                key = (argv[-1], r["pack_id"])
                self.appended[key] = self.appended.get(key, 0) + 1
            return size
        if kind == "history":
            got = len(payload["entries"])
            if got != self.appended.get((argv[-1], expect), 0):
                raise CheckFailed(f"history returned {got} entries")
        elif kind == "wakeup_sim":
            methods = payload["comparison"]["methods"]
            if {m: methods[m]["idle_power_uw"] for m in IDLE_UW} != IDLE_UW:
                raise CheckFailed("idle figures differ from 117.81/98.34 uW")
        elif kind == "ban_verify":
            result = payload["result"]
            if not result["derived"] or set(result["goals"]) != BAN_GOALS:
                raise CheckFailed("bundled goals G1.1-G2.2 not derived")
        elif not payload["outcome"]["established"]:
            raise CheckFailed("cold handshake not established")
        return 0

    def warm_up(self) -> None:
        super().warm_up()
        (self.workdir / "warm-up.ndjson").unlink()


WORKLOADS = {w.name: w for w in (HandshakeStorm, BulkStream, AttackGauntlet, CliMix)}
