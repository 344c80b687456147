"""Simulated NFC link with pluggable adversaries.

The link connects a reader endpoint and a controller endpoint and
carries NDEF-framed bytes: handshake frames as HANDSHAKE records,
sealed diagnostics as SNDEF_SECURE records.  The adversary is
Dolev-Yao over this link (it can read, modify, and inject every frame)
but computationally bounded: it never holds the master key.

Each blocked attack is pinned to the exact frame number and error that
stopped it.  Confidentiality is checked with an engineering proxy: no
8-byte-or-longer substring of any workload plaintext may appear
anywhere in the link transcript.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import diagnostics, handshake as hs, secure_channel as sc, sndef
from .errors import BadFlags, NfcBmsError

SECRECY_WINDOW = 8


@dataclass
class EndpointConfig:
    principal_id: bytes
    master: sc.MasterKey
    seed: int

    def rng(self) -> random.Random:
        return random.Random(self.seed)


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
    _count: int = 0

    def transfer(self, direction: str, wire: bytes) -> bytes:
        self._count += 1
        delivered = wire
        if self.strategy is not None:
            delivered = self.strategy.on_frame(self._count, direction, wire)
        self.transcript.append(FrameLog(self._count, direction, wire, delivered))
        return delivered

    def transcript_blob(self) -> bytes:
        return b"".join(f.sent + f.delivered for f in self.transcript)


# --- adversary strategies ---


@dataclass
class Eavesdrop:
    """Passive: records everything, changes nothing."""

    observed: list = field(default_factory=list)

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        self.observed.append(wire)
        return wire


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
            self._reader_id = wire[sndef.RECORD_HEADER_LEN + 1:sndef.RECORD_HEADER_LEN + 5]
        if frame_no == 2:
            frame = wire[sndef.RECORD_HEADER_LEN:]
            self._msg2_chal = frame[hs.FRAME_HEADER_LEN + 16:]
        if frame_no == 3 and self._msg2_chal is not None:
            forged = hs.HandshakeMessage(3, self._reader_id, self._msg2_chal).to_bytes()
            return _wrap(sndef.NdefRecord(sndef.RecordType.HANDSHAKE, forged))
        return wire


@dataclass
class ChosenChallenge:
    """Probe the controller with chosen reader challenges.

    The adversary plays the reader role with nonces of its choosing and
    records the responses; it holds no key, so it can only answer the
    controller's counter-challenge with garbage.
    """

    probes: list = field(default_factory=list)
    responses: list = field(default_factory=list)


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


def _wrap(record: sndef.NdefRecord) -> bytes:
    """A link frame: a one-record NDEF message."""
    return sndef.encode_message(sndef.NdefMessage([record]))


def _unwrap(wire: bytes) -> sndef.NdefRecord:
    """The one record a link frame carries."""
    records = sndef.decode_message(wire).records
    if len(records) != 1:
        raise BadFlags(f"a link frame is one record, got {len(records)}")
    return records[0]


def _handshake_payload(wire: bytes) -> bytes:
    record = _unwrap(wire)
    if record.type_code != sndef.RecordType.HANDSHAKE:
        raise sndef.UnknownType(f"expected HANDSHAKE, got {record.type_code.name}")
    return record.payload


def scan_secrecy(transcript_blob: bytes, plaintexts: list) -> list:
    """All >= 8-byte plaintext windows that leak into the transcript."""
    hits = []
    for plain in plaintexts:
        for i in range(len(plain) - SECRECY_WINDOW + 1):
            window = plain[i:i + SECRECY_WINDOW]
            if window in transcript_blob:
                hits.append(window.hex())
                break  # one hit per plaintext is enough evidence
    return hits


# One row per handshake frame after message 1: the message number a
# failure is reported at (the message the receiving step would send, 5
# for the final check), the frame's direction, and the step of the
# receiving endpoint that consumes it and produces the next frame.
HANDSHAKE_FLOW = (
    (2, "reader->controller", "controller_respond"),
    (3, "controller->reader", "reader_answer"),
    (4, "reader->controller", "controller_key_confirm"),
    (5, "controller->reader", "reader_key_confirm"),
    (5, "reader->controller", "controller_finalize"),
)


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
    reader = hs.HandshakeState.reader(
        reader_cfg.principal_id, controller_cfg.principal_id, reader_cfg.master, reader_cfg.rng()
    )
    controller = hs.HandshakeState.controller(
        controller_cfg.principal_id, reader_cfg.principal_id, controller_cfg.master,
        controller_cfg.rng(),
    )
    plaintexts = [diagnostics.encode_diag(p) for p in workload]
    session = DrivenSession(SessionOutcome(), reader, plaintexts)
    outcome = session.outcome

    def step(frame_no: int, operation: str, fn):
        try:
            return fn()
        except NfcBmsError as exc:
            outcome.first_failure = FailureInfo(frame_no, operation, type(exc).__name__, str(exc))
            return None

    frame = reader.reader_start().to_bytes()
    for msg_no, direction, operation in HANDSHAKE_FLOW:
        record = sndef.NdefRecord(sndef.RecordType.HANDSHAKE, frame)
        wire = channel.transfer(direction, _wrap(record))
        receive = getattr(controller if direction.endswith("controller") else reader, operation)
        reply = step(msg_no, operation, lambda: receive(_handshake_payload(wire)))
        if reply is None:  # a failure, or the final step, which sends nothing
            break
        frame = reply.to_bytes()
    outcome.established_reader = reader.phase == hs.Phase.ESTABLISHED
    outcome.established_controller = controller.phase == hs.Phase.ESTABLISHED

    if outcome.established:
        for frame_no, plain in enumerate(session.plaintexts, start=6):
            sealed = step(frame_no, "seal_record", lambda: _wrap(
                sndef.wrap_secure(sc.seal_record(controller.channel, plain, b"", controller.rng))
            ))
            if sealed is None:
                break
            wire = channel.transfer("controller->reader", sealed)
            packet = step(frame_no, "open_record", lambda: diagnostics.decode_diag(
                sc.open_record(reader.channel, sndef.unwrap_secure(_unwrap(wire)))
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


def run_chosen_challenge(
    controller_cfg: EndpointConfig, strategy: ChosenChallenge, rng: random.Random
) -> SessionOutcome:
    """Adversary-as-reader probing runs; must die at the key confirmation.

    The harness holds the key, so it also checks the oracle shape of
    every response (double transform, never single) and records a
    secrecy hit for each response that is not.
    """
    outcome = SessionOutcome()
    fake_reader_id = b"ADVR"
    for probe in strategy.probes:
        controller = hs.HandshakeState.controller(
            controller_cfg.principal_id, fake_reader_id, controller_cfg.master,
            controller_cfg.rng(),
        )
        m1 = hs.HandshakeMessage(1, fake_reader_id, probe).to_bytes()
        try:
            m2 = controller.controller_respond(m1)
        except NfcBmsError as exc:
            outcome.first_failure = outcome.first_failure or FailureInfo(
                2, "controller_respond", type(exc).__name__
            )
            continue
        strategy.responses.append((probe, m2.body[16:]))
        # no key, so the best available answer is noise
        forged = hs.HandshakeMessage(3, fake_reader_id, rng.randbytes(32)).to_bytes()
        try:
            controller.controller_key_confirm(forged)
            outcome.established_controller = True  # would be an attack success
        except NfcBmsError as exc:
            outcome.first_failure = outcome.first_failure or FailureInfo(
                4, "controller_key_confirm", type(exc).__name__
            )
    for probe, response in strategy.responses:
        plain = (controller_cfg.principal_id + probe).ljust(32, b"\x00")
        single = sc._aes_cbc(controller_cfg.master.bytes, bytes(16), plain, decrypt=False)
        double = sc.double_encrypt(controller_cfg.master, plain, pad=False)
        if response == single or response != double:
            outcome.secrecy_hits.append("single-pass-oracle:" + probe.hex())
    return outcome


# --- attack suite ---


@dataclass
class StrategyReport:
    runs: int = 0
    successes: int = 0
    leaks: int = 0
    blocked_at: dict = field(default_factory=dict)  # frame no -> count
    errors: dict = field(default_factory=dict)  # error name -> count
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
    reader_cfg = EndpointConfig(b"NRD1", master, rng.randrange(1 << 48))
    controller_cfg = EndpointConfig(b"MNC1", master, rng.randrange(1 << 48))
    return reader_cfg, controller_cfg


def _harvest_honest_frames(
    reader_cfg: EndpointConfig, controller_cfg: EndpointConfig, workload: list, rng: random.Random
) -> list:
    prior_reader = EndpointConfig(reader_cfg.principal_id, reader_cfg.master, rng.randrange(1 << 48))
    prior_controller = EndpointConfig(
        controller_cfg.principal_id, controller_cfg.master, rng.randrange(1 << 48)
    )
    channel = LinkChannel()
    drive_session(channel, prior_reader, prior_controller, workload)
    return [f.delivered for f in channel.transcript]


RUNS_PER_STRATEGY = 100


def _on_link(make_strategy):
    """Runner that puts the strategy ``make_strategy`` builds on the link of one session."""

    def run(reader_cfg, controller_cfg, workload, rng):
        channel = LinkChannel(strategy=make_strategy(reader_cfg, controller_cfg, workload, rng))
        outcome = run_session(channel, reader_cfg, controller_cfg, workload)
        return outcome, _link_attack_won(outcome, channel, workload)

    return run


def _probing(count: int):
    """Runner for the adversary as reader: ``count`` chosen challenges, no link.
    The attack wins if the controller reaches Established."""

    def run(reader_cfg, controller_cfg, workload, rng):
        strategy = ChosenChallenge(probes=[sc.new_nonce(rng).bytes for _ in range(count)])
        outcome = run_chosen_challenge(controller_cfg, strategy, rng)
        return outcome, outcome.established_controller

    return run


def _random_replay(reader_cfg, controller_cfg, workload, rng) -> Replay:
    prior = _harvest_honest_frames(reader_cfg, controller_cfg, workload, rng)
    n_frames = 5 + len(workload)
    return Replay(frame_index=rng.randrange(1, min(n_frames, len(prior)) + 1), prior_frames=prior)


def _random_bitflip(reader_cfg, controller_cfg, workload, rng) -> BitFlip:
    n_frames = 5 + len(workload)
    return BitFlip(frame_index=rng.randrange(1, n_frames + 1), bit_index=rng.randrange(1 << 16))


def _link_attack_won(outcome: SessionOutcome, channel: LinkChannel, workload: list) -> bool:
    """Plaintext leaked, or a manipulated session still delivered everything."""
    manipulated = any(f.sent != f.delivered for f in channel.transcript)
    return bool(outcome.secrecy_hits) or (
        manipulated and outcome.established
        and outcome.packets_delivered == len(workload)
        and outcome.first_failure is None
    )


class StrategyPlay(NamedTuple):
    """How one strategy is played.  Both runners take ``(reader_cfg,
    controller_cfg, workload, rng)`` and return ``(outcome, won)``, where
    ``won`` says the attack succeeded."""

    demo: Callable  # the canonical fixed-shape run
    randomized: Callable  # one seeded run of the suite


_eavesdrop = _on_link(lambda *_: Eavesdrop())
_reflect = _on_link(lambda *_: Reflect())

# Insertion order is the strategy index that seeds every run.
STRATEGIES = {
    "eavesdrop": StrategyPlay(_eavesdrop, _eavesdrop),
    "replay": StrategyPlay(
        _on_link(lambda r, c, w, rng: Replay(2, _harvest_honest_frames(r, c, w, rng))),
        _on_link(_random_replay),
    ),
    "reflect": StrategyPlay(_reflect, _reflect),
    "bitflip": StrategyPlay(
        _on_link(lambda *_: BitFlip(frame_index=4, bit_index=123)), _on_link(_random_bitflip)
    ),
    "chosen-challenge": StrategyPlay(_probing(2), _probing(3)),
}
STRATEGY_NAMES = tuple(STRATEGIES)


def canonical_demo(name: str, seed: int) -> SessionOutcome:
    """One fixed-shape run per strategy, e.g. replay always re-sends
    message 2 of an earlier session, so reports have a stable headline
    failure point per strategy."""
    rng = random.Random(seed * 7919 + STRATEGY_NAMES.index(name))
    reader_cfg, controller_cfg = _session_configs(rng)
    workload = _random_workload(rng, 1)
    outcome, _ = STRATEGIES[name].demo(reader_cfg, controller_cfg, workload, rng)
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
            rng = random.Random(seed * 1_000_003 + strat_index * 10_007 + i)
            reader_cfg, controller_cfg = _session_configs(rng)
            workload = _random_workload(rng, rng.randrange(1, 4))
            sreport.runs += 1
            outcome, won = STRATEGIES[name].randomized(reader_cfg, controller_cfg, workload, rng)
            if won:
                sreport.successes += 1
            if outcome.secrecy_hits:
                sreport.leaks += 1
            if outcome.first_failure is not None:
                sreport.blocked_at[outcome.first_failure.frame_no] = (
                    sreport.blocked_at.get(outcome.first_failure.frame_no, 0) + 1
                )
                sreport.errors[outcome.first_failure.error] = (
                    sreport.errors.get(outcome.first_failure.error, 0) + 1
                )
    return report
