"""Simulated NFC link with pluggable adversaries.

The link connects a reader endpoint and a controller endpoint and
carries NDEF-framed bytes: handshake frames as HANDSHAKE records,
sealed diagnostics as SNDEF_SECURE records.  The adversary is
Dolev-Yao over this link (it can read, modify, and inject every frame)
but computationally bounded: it never holds the master key.

``drive_session`` walks ``handshake.FLOW`` over the link.  Each blocked
attack is pinned to the exact frame number and error that stopped it.
Confidentiality is checked with an engineering proxy: no
8-byte-or-longer substring of any workload plaintext may appear
anywhere in the bytes the link carried, each frame as sent and, where
the adversary changed it, as delivered.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain

from . import diagnostics, handshake as hs, secure_channel as sc, sndef
from .errors import NfcBmsError, UnknownType

SECRECY_WINDOW = 8
# the widest block of which every window holds a 4-aligned copy: window j holds
# the block at ceil(j / 4) * 4 <= j + 3, which ends by j + 7
BLOCK = SECRECY_WINDOW // 2
_FORMATS = {BLOCK: "I", SECRECY_WINDOW: "Q"}
# the most link windows a scan searches its plaintexts for one by one: those
# around the aligned blocks the plaintexts meet; past this it hashes every link
# window once instead
SCAN_DIRECT_MAX_WINDOWS = 64
# the principal ids of every session the CLI and the attack suite drive
READER_ID, CONTROLLER_ID = b"NRD1", b"MNC1"


@dataclass
class EndpointConfig:
    principal_id: bytes
    master: sc.MasterKey
    seed: int

    def endpoint(self, role: hs.Role, peer_id: bytes) -> hs.HandshakeState:
        """A fresh handshake endpoint of this principal, its rng seeded from ``seed``."""
        return hs.HandshakeState(role, self.principal_id, peer_id, self.master, random.Random(self.seed))


@dataclass
class FrameLog:
    frame_no: int
    direction: str
    sent: bytes
    delivered: bytes


@dataclass
class LinkChannel:
    """In-order frame transport; the strategy may rewrite deliveries."""

    strategy: object | None = None  # None is an honest link
    transcript: list = field(default_factory=list)

    def transfer(self, direction: str, wire: bytes) -> bytes:
        frame_no = len(self.transcript) + 1
        delivered = wire
        if self.strategy is not None:
            delivered = self.strategy.on_frame(frame_no, direction, wire)
        self.transcript.append(FrameLog(frame_no, direction, wire, delivered))
        return delivered

    def transcript_blob(self) -> bytes:
        """Every byte the link carried: each frame as sent, then as delivered
        only where the strategy changed it."""
        return b"".join(f.sent if f.sent == f.delivered else f.sent + f.delivered for f in self.transcript)


# --- adversary strategies ---


@dataclass
class Replay:
    """Substitute one frame with the same-slot frame of an earlier session."""

    frame_index: int = 2
    prior_frames: list = field(default_factory=list)

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        if frame_no == self.frame_index and frame_no <= len(self.prior_frames):
            return self.prior_frames[frame_no - 1]
        return wire


@dataclass
class Reflect:
    """Bounce the controller's own challenge ciphertext back as message 3."""

    _msg2_chal: bytes | None = None
    _reader_id: bytes | None = None

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        if frame_no == 1:
            self._reader_id = _unwrap(wire, sndef.RecordType.HANDSHAKE)[1:1 + hs.ID_LEN]
        if frame_no == 2:
            self._msg2_chal = _unwrap(wire, sndef.RecordType.HANDSHAKE)[hs.FRAME_HEADER_LEN + 16:]
        if frame_no == 3 and self._msg2_chal is not None:
            forged = hs.frame(3, self._reader_id, self._msg2_chal)
            return sndef.encode_message(sndef.RecordType.HANDSHAKE, forged)
        return wire


@dataclass
class BitFlip:
    """Flip one bit of one frame in transit."""

    frame_index: int = 4
    bit_index: int = 0  # taken modulo the frame's bit length

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        if frame_no != self.frame_index:
            return wire
        bit = self.bit_index % (len(wire) * 8)
        mutated = bytearray(wire)
        mutated[bit // 8] ^= 1 << (bit % 8)
        return bytes(mutated)


# --- session driver ---


@dataclass
class FailureInfo:
    frame_no: int
    operation: str
    error: str
    detail: str = ""  # the error's message; not part of the JSON outcome


@dataclass
class SessionOutcome:
    established_reader: bool = False
    established_controller: bool = False
    packets_delivered: int = 0
    first_failure: FailureInfo | None = None
    secrecy_hits: list = field(default_factory=list)
    frames_on_link: int = 0

    @property
    def established(self) -> bool:
        return self.established_reader and self.established_controller

    def to_json(self) -> dict:
        return {
            "established": self.established,
            "established_reader": self.established_reader,
            "established_controller": self.established_controller,
            "packets_delivered": self.packets_delivered,
            "first_failure": (
                None
                if self.first_failure is None
                else {
                    "message": self.first_failure.frame_no,
                    "operation": self.first_failure.operation,
                    "error": self.first_failure.error,
                }
            ),
            "secrecy_hits": self.secrecy_hits,
            "frames_on_link": self.frames_on_link,
        }


@dataclass
class DrivenSession:
    """What one driven session leaves for its caller to build on."""

    outcome: SessionOutcome
    reader: hs.HandshakeState
    plaintexts: list  # the encoded workload, in send order
    received: list = field(default_factory=list)  # packets the reader opened and decoded


def _attempt(outcome: SessionOutcome, frame_no: int, operation: str, fn):
    """``fn()``, or None with the first protocol error kept as the outcome's first failure."""
    try:
        return fn()
    except NfcBmsError as exc:
        if outcome.first_failure is None:
            outcome.first_failure = FailureInfo(frame_no, operation, type(exc).__name__, str(exc))
        return None


def _unwrap(wire: bytes, type_code: sndef.RecordType) -> bytes:
    """The payload of the one record, of type ``type_code``, a link frame carries."""
    record = sndef.decode_message(wire).records[0]
    if record.type_code != type_code:
        raise UnknownType(f"expected {type_code.name}, got {record.type_code.name}")
    return record.payload


def _words(data: bytes, width: int = SECRECY_WINDOW):
    """Every ``width``-byte window of ``data`` as a native-order integer:
    one zero-copy view per phase, window i in view ``i % width``."""
    view = memoryview(data)
    for k in range(min(width, len(data) - width + 1)):
        yield view[k:k + (len(data) - k) // width * width].cast(_FORMATS[width])


def _blocks(data: bytes) -> memoryview:
    """The 4-aligned blocks of ``data`` as native-order 32-bit integers: one zero-copy view."""
    return memoryview(data)[:len(data) // BLOCK * BLOCK].cast(_FORMATS[BLOCK])


def _met_windows(blob: bytes, values: set) -> set | None:
    """The 8-byte windows of ``blob`` whose first 4-aligned block holds one of
    ``values``, the at most 4 that start 0-3 bytes before each such block, or
    None when those could be more than ``SCAN_DIRECT_MAX_WINDOWS``."""
    starts = []
    for value in values:
        block = value.to_bytes(BLOCK, sys.byteorder)
        at = blob.find(block)
        while at >= 0:
            if at % BLOCK == 0:
                starts.append(at)
                if BLOCK * len(starts) > SCAN_DIRECT_MAX_WINDOWS:
                    return None
            at = blob.find(block, at // BLOCK * BLOCK + BLOCK)
    last = len(blob) - SECRECY_WINDOW
    return {blob[j:j + SECRECY_WINDOW] for at in starts for j in range(max(0, at - BLOCK + 1), min(at, last) + 1)}


def scan_secrecy(transcript_blob: bytes, plaintexts: list) -> list:
    """The first >= 8-byte window of each plaintext that leaks into the
    transcript, in hex.

    The transcript's 4-aligned blocks go into one set.  Every 8-byte window
    holds one of them, so a plaintext none of whose 4-byte windows is in the
    set cannot leak.  The block values the plaintexts do meet are expanded
    once into the transcript windows that start 0-3 bytes before their
    aligned copies, and each plaintext that met the set is searched for
    those; when they could be more than ``SCAN_DIRECT_MAX_WINDOWS``, it is
    checked against one set of every transcript window instead.  Only a
    plaintext holding one of them pays for the window-by-window search that
    names its first leaking window.
    """
    link_blocks = set(_blocks(transcript_blob))
    met = [set().union(*map(link_blocks.intersection, _words(plain, BLOCK))) for plain in plaintexts]
    suspects = [plain for plain, values in zip(plaintexts, met) if values]
    near = _met_windows(transcript_blob, set().union(*met))
    if near is None:  # too many to search for: one set of every link window
        link = set(chain.from_iterable(_words(transcript_blob)))
        suspects = [plain for plain in suspects if not all(map(link.isdisjoint, _words(plain)))]
    else:
        suspects = [plain for plain in suspects if any(window in plain for window in near)]
    hits = []
    for plain in suspects:
        for i in range(len(plain) - SECRECY_WINDOW + 1):
            window = plain[i:i + SECRECY_WINDOW]
            if window in transcript_blob:
                hits.append(window.hex())
                break  # one hit per plaintext is enough evidence
    return hits


def drive_session(
    channel: LinkChannel,
    reader_cfg: EndpointConfig,
    controller_cfg: EndpointConfig,
    workload: list,
) -> DrivenSession:
    """Full handshake plus workload delivery over the (possibly hostile) link.

    Every frame travels as a one-record NDEF message.  Protocol errors
    are recorded in the outcome, never raised: the outcome names the
    message number and error that ended the session.
    """
    reader = reader_cfg.endpoint(hs.Role.READER, controller_cfg.principal_id)
    controller = controller_cfg.endpoint(hs.Role.CONTROLLER, reader_cfg.principal_id)
    plaintexts = [diagnostics.encode_diag(p) for p in workload]
    session = DrivenSession(SessionOutcome(), reader, plaintexts)
    outcome = session.outcome
    handshake, secure = sndef.RecordType.HANDSHAKE, sndef.RecordType.SNDEF_SECURE

    frame = reader.reader_start()
    for msg_no, direction, operation in hs.FLOW:
        wire = channel.transfer(direction, sndef.encode_message(handshake, frame))
        receive = getattr(hs.receiver(direction, reader, controller), operation)
        frame = _attempt(outcome, msg_no, operation, lambda: receive(_unwrap(wire, handshake)))
        if frame is None:  # a failure, or the final step, which sends nothing
            break
    outcome.established_reader = reader.phase == hs.Phase.ESTABLISHED
    outcome.established_controller = controller.phase == hs.Phase.ESTABLISHED

    if outcome.established:
        for frame_no, plain in enumerate(session.plaintexts, start=len(hs.FLOW) + 1):
            sealed = _attempt(outcome, frame_no, "seal_record", lambda: sndef.encode_message(
                secure, sndef.encode_secure_payload(sc.seal_record(controller.channel, plain, b"", controller.rng))
            ))
            if sealed is None:
                break
            wire = channel.transfer("controller->reader", sealed)
            packet = _attempt(outcome, frame_no, "open_record", lambda: diagnostics.decode_diag(
                sc.open_record(reader.channel, sndef.decode_secure_payload(_unwrap(wire, secure)))
            ))
            if packet is None:
                break
            session.received.append(packet)
    outcome.packets_delivered = len(session.received)
    outcome.frames_on_link = len(channel.transcript)
    return session


def run_session(
    channel: LinkChannel,
    reader_cfg: EndpointConfig,
    controller_cfg: EndpointConfig,
    workload: list,
) -> SessionOutcome:
    """:func:`drive_session` plus the secrecy scan of the whole transcript."""
    session = drive_session(channel, reader_cfg, controller_cfg, workload)
    session.outcome.secrecy_hits = scan_secrecy(channel.transcript_blob(), session.plaintexts)
    return session.outcome


def run_chosen_challenge(controller_cfg: EndpointConfig, probes: list, rng: random.Random) -> SessionOutcome:
    """Adversary-as-reader runs with the chosen challenges ``probes``; must die
    at the key confirmation, since without the key it answers with garbage.

    The harness holds the key, so it also checks the oracle shape of
    every response (double transform, never single) and records a
    secrecy hit for each response that is not.
    """
    outcome = SessionOutcome()
    fake_reader_id = b"ADVR"
    responses = []
    for probe in probes:
        controller = controller_cfg.endpoint(hs.Role.CONTROLLER, fake_reader_id)
        m1 = hs.frame(1, fake_reader_id, probe)
        m2 = _attempt(outcome, 2, "controller_respond", lambda: controller.controller_respond(m1))
        if m2 is None:
            continue
        responses.append((probe, m2[hs.FRAME_HEADER_LEN + 16:]))
        # no key, so the best available answer is noise
        forged = hs.frame(3, fake_reader_id, rng.randbytes(32))
        if _attempt(outcome, 4, "controller_key_confirm",
                    lambda: controller.controller_key_confirm(forged)) is not None:
            outcome.established_controller = True  # would be an attack success
    for probe, response in responses:
        plain = hs.challenge_plain(controller_cfg.principal_id, sc.Nonce(probe))
        single = controller_cfg.master.aes.cbc_encrypt(bytes(16), plain)
        double = sc.double_encrypt(controller_cfg.master, plain)
        if response == single or response != double:
            outcome.secrecy_hits.append("single-pass-oracle:" + probe.hex())
    return outcome


# --- attack suite ---


@dataclass
class StrategyReport:
    runs: int = 0
    successes: int = 0
    leaks: int = 0
    blocked_at: Counter = field(default_factory=Counter)  # frame no -> count
    errors: Counter = field(default_factory=Counter)  # error name -> count
    demo: dict | None = None  # canonical fixed-shape run

    def to_json(self) -> dict:
        return {
            "runs": self.runs,
            "successes": self.successes,
            "leaks": self.leaks,
            "blocked_at": {str(k): v for k, v in sorted(self.blocked_at.items())},
            "errors": dict(sorted(self.errors.items())),
            "demo": self.demo,
        }


@dataclass
class AttackReport:
    seed: int
    strategies: dict = field(default_factory=dict)

    @property
    def total_successes(self) -> int:
        return sum(r.successes for r in self.strategies.values())

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "total_successes": self.total_successes,
            "strategies": {k: v.to_json() for k, v in self.strategies.items()},
        }


def _random_workload(rng: random.Random, count: int) -> list:
    packets = []
    for i in range(count):
        reports = [
            diagnostics.BpcReport(
                pack_id=rng.randbytes(8),
                timestamp=rng.randrange(1 << 33, 1 << 40),
                soc_permille=rng.randrange(1001),
                soh_permille=rng.randrange(1001),
                cell_voltages_mv=tuple(rng.randrange(5001) for _ in range(rng.randrange(1, 9))),
                temperatures_dk=tuple(rng.randrange(2500, 3500) for _ in range(2)),
                status_flags=int(diagnostics.StatusFlags.STORED),
            )
            for _ in range(rng.randrange(1, 4))
        ]
        packets.append(diagnostics.collect_from_bpcs(reports, seq=i))
    return packets


def _session_configs(rng: random.Random) -> tuple[EndpointConfig, EndpointConfig]:
    master = sc.MasterKey(rng.randbytes(16))
    reader_cfg = EndpointConfig(READER_ID, master, rng.randrange(1 << 48))
    controller_cfg = EndpointConfig(CONTROLLER_ID, master, rng.randrange(1 << 48))
    return reader_cfg, controller_cfg


def _harvest_honest_frames(
    reader_cfg: EndpointConfig, controller_cfg: EndpointConfig, workload: list, rng: random.Random
) -> list:
    prior = [replace(cfg, seed=rng.randrange(1 << 48)) for cfg in (reader_cfg, controller_cfg)]
    channel = LinkChannel()
    drive_session(channel, *prior, workload)
    return [f.delivered for f in channel.transcript]


RUNS_PER_STRATEGY = 100


def _on_link(strategy, reader_cfg, controller_cfg, workload) -> tuple:
    """One session over a link ``strategy`` may rewrite (None is the honest
    link): won if plaintext leaked, or if a manipulated session still
    delivered everything."""
    channel = LinkChannel(strategy=strategy)
    outcome = run_session(channel, reader_cfg, controller_cfg, workload)
    manipulated = any(f.sent != f.delivered for f in channel.transcript)
    return outcome, bool(outcome.secrecy_hits) or (
        manipulated and outcome.established
        and outcome.packets_delivered == len(workload)
        and outcome.first_failure is None
    )


def _replay(reader_cfg, controller_cfg, workload, rng, demo) -> tuple:
    prior = _harvest_honest_frames(reader_cfg, controller_cfg, workload, rng)
    strategy = Replay(frame_index=2 if demo else rng.randrange(1, len(prior) + 1), prior_frames=prior)
    return _on_link(strategy, reader_cfg, controller_cfg, workload)


def _bitflip(reader_cfg, controller_cfg, workload, rng, demo) -> tuple:
    frames = len(hs.FLOW) + len(workload)
    frame_index, bit_index = (4, 123) if demo else (rng.randrange(1, frames + 1), rng.randrange(1 << 16))
    return _on_link(BitFlip(frame_index, bit_index), reader_cfg, controller_cfg, workload)


def _chosen_challenge(reader_cfg, controller_cfg, workload, rng, demo) -> tuple:
    """The adversary as reader, off the link: won if the controller reaches
    Established, or if a response has the single-pass oracle's shape."""
    probes = [sc.new_nonce(rng).bytes for _ in range(2 if demo else 3)]
    outcome = run_chosen_challenge(controller_cfg, probes, rng)
    return outcome, outcome.established_controller or bool(outcome.secrecy_hits)


# One play per strategy: ``(reader_cfg, controller_cfg, workload, rng, demo)``
# -> ``(outcome, won)``, one run of that attack and whether it succeeded, where
# ``demo`` asks for the canonical fixed shape.  Insertion order is the strategy
# index that seeds every run.
STRATEGIES = {
    "eavesdrop": lambda *run: _on_link(None, *run[:3]),  # passive: the honest link, whose transcript it reads
    "replay": _replay,
    "reflect": lambda *run: _on_link(Reflect(), *run[:3]),
    "bitflip": _bitflip,
    "chosen-challenge": _chosen_challenge,
}
STRATEGY_NAMES = tuple(STRATEGIES)


def _run(name: str, rng: random.Random, demo: bool = False) -> tuple:
    """One run of strategy ``name`` against fresh endpoints: ``(outcome, won)``."""
    reader_cfg, controller_cfg = _session_configs(rng)
    workload = _random_workload(rng, 1 if demo else rng.randrange(1, 4))
    return STRATEGIES[name](reader_cfg, controller_cfg, workload, rng, demo)


def canonical_demo(name: str, seed: int) -> SessionOutcome:
    """One fixed-shape run per strategy, e.g. replay always re-sends
    message 2 of an earlier session, so reports have a stable headline
    failure point per strategy."""
    outcome, _ = _run(name, random.Random(seed * 7919 + STRATEGY_NAMES.index(name)), demo=True)
    return outcome


def run_attack_suite(
    seed: int,
    runs_per_strategy: int = RUNS_PER_STRATEGY,
    strategies: tuple = STRATEGY_NAMES,
) -> AttackReport:
    """Run every strategy against fresh sessions; zero successes expected.

    A strategy succeeds only if the adversary drives a session to
    Established with a manipulated frame accepted, or extracts workload
    plaintext (secrecy hit).
    """
    report = AttackReport(seed=seed)
    for name in strategies:
        strat_index = STRATEGY_NAMES.index(name)
        sreport = StrategyReport()
        sreport.demo = canonical_demo(name, seed).to_json()
        report.strategies[name] = sreport
        for i in range(runs_per_strategy):
            sreport.runs += 1
            outcome, won = _run(name, random.Random(seed * 1_000_003 + strat_index * 10_007 + i))
            if won:
                sreport.successes += 1
            if outcome.secrecy_hits:
                sreport.leaks += 1
            if outcome.first_failure is not None:
                sreport.blocked_at[outcome.first_failure.frame_no] += 1
                sreport.errors[outcome.first_failure.error] += 1
    return report
