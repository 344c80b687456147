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
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from . import diagnostics, handshake as hs, secure_channel as sc, sndef
from .errors import NfcBmsError, UnknownType

SECRECY_WINDOW = 8
# a session walks the transcript once for one set of windows only if one of
# its plaintexts has more windows than this; near 64 a walk and a
# window-by-window search cost about the same, whatever the transcript length
SCAN_DIRECT_MAX_WINDOWS = 64


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

    def transfer(self, direction: str, wire: bytes) -> bytes:
        frame_no = len(self.transcript) + 1
        delivered = wire
        if self.strategy is not None:
            delivered = self.strategy.on_frame(frame_no, direction, wire)
        self.transcript.append(FrameLog(frame_no, direction, wire, delivered))
        return delivered

    def transcript_blob(self) -> bytes:
        return b"".join(f.sent + f.delivered for f in self.transcript)


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
            forged = hs.HandshakeMessage(3, self._reader_id, self._msg2_chal).to_bytes()
            return sndef.encode_message(sndef.RecordType.HANDSHAKE, forged)
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


def _words(data: bytes):
    """Every 8-byte window of ``data`` as native-order 64-bit integers:
    one zero-copy view per phase, window i in view ``i % 8``."""
    view = memoryview(data)
    for k in range(min(SECRECY_WINDOW, len(data) - SECRECY_WINDOW + 1)):
        yield view[k:k + (len(data) - k) // SECRECY_WINDOW * SECRECY_WINDOW].cast("Q")


def _is_long(plain: bytes) -> bool:
    return len(plain) - SECRECY_WINDOW + 1 > SCAN_DIRECT_MAX_WINDOWS


def _disjoint(plaintexts: list, transcript_blob: bytes) -> bool:
    """No window of any of ``plaintexts`` is in the transcript: one set of
    their windows, checked in one walk of the transcript's windows."""
    mine = set(chain.from_iterable(chain.from_iterable(map(_words, plaintexts))))
    return all(mine.isdisjoint(words) for words in _words(transcript_blob))


def scan_secrecy(transcript_blob: bytes, plaintexts: list) -> list:
    """The first >= 8-byte window of each plaintext that leaks into the
    transcript, in hex.

    A session with a plaintext of more than ``SCAN_DIRECT_MAX_WINDOWS``
    windows checks one set of the windows of all its plaintexts against the
    transcript in one linear pass; when nothing leaks, as in any honest
    session, that is all.  On a hit, each long plaintext is checked on its
    own.  Only a short or a leaking plaintext pays for the window-by-window
    search that names its first leaking window.
    """
    if any(map(_is_long, plaintexts)) and _disjoint(plaintexts, transcript_blob):
        return []
    hits = []
    for plain in plaintexts:
        if _is_long(plain) and _disjoint([plain], transcript_blob):
            continue
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
    handshake, secure = sndef.RecordType.HANDSHAKE, sndef.RecordType.SNDEF_SECURE

    frame = reader.reader_start().to_bytes()
    for msg_no, direction, operation in HANDSHAKE_FLOW:
        wire = channel.transfer(direction, sndef.encode_message(handshake, frame))
        receive = getattr(controller if direction.endswith("controller") else reader, operation)
        reply = _attempt(outcome, msg_no, operation, lambda: receive(_unwrap(wire, handshake)))
        if reply is None:  # a failure, or the final step, which sends nothing
            break
        frame = reply.to_bytes()
    outcome.established_reader = reader.phase == hs.Phase.ESTABLISHED
    outcome.established_controller = controller.phase == hs.Phase.ESTABLISHED

    if outcome.established:
        for frame_no, plain in enumerate(session.plaintexts, start=6):
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
        m2 = _attempt(outcome, 2, "controller_respond", lambda: controller.controller_respond(m1))
        if m2 is None:
            continue
        strategy.responses.append((probe, m2.body[16:]))
        # no key, so the best available answer is noise
        forged = hs.HandshakeMessage(3, fake_reader_id, rng.randbytes(32)).to_bytes()
        if _attempt(outcome, 4, "controller_key_confirm",
                    lambda: controller.controller_key_confirm(forged)) is not None:
            outcome.established_controller = True  # would be an attack success
    for probe, response in strategy.responses:
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


def _replay(reader_cfg, controller_cfg, workload, rng, demo) -> Replay:
    prior = _harvest_honest_frames(reader_cfg, controller_cfg, workload, rng)
    last = min(5 + len(workload), len(prior))
    return Replay(frame_index=2 if demo else rng.randrange(1, last + 1), prior_frames=prior)


def _bitflip(reader_cfg, controller_cfg, workload, rng, demo) -> BitFlip:
    if demo:
        return BitFlip(frame_index=4, bit_index=123)
    return BitFlip(frame_index=rng.randrange(1, 5 + len(workload) + 1), bit_index=rng.randrange(1 << 16))


def _chosen_challenge(reader_cfg, controller_cfg, workload, rng, demo) -> ChosenChallenge:
    return ChosenChallenge(probes=[sc.new_nonce(rng).bytes for _ in range(2 if demo else 3)])


# One factory per strategy: ``(reader_cfg, controller_cfg, workload, rng,
# demo)`` -> that run's adversary, where ``demo`` asks for the canonical
# fixed shape.  Insertion order is the strategy index that seeds every run.
STRATEGIES = {
    "eavesdrop": lambda *_: None,  # passive: the honest link, whose transcript it reads
    "replay": _replay,
    "reflect": lambda *_: Reflect(),
    "bitflip": _bitflip,
    "chosen-challenge": _chosen_challenge,
}
STRATEGY_NAMES = tuple(STRATEGIES)


def _link_attack_won(outcome: SessionOutcome, channel: LinkChannel, workload: list) -> bool:
    """Plaintext leaked, or a manipulated session still delivered everything."""
    manipulated = any(f.sent != f.delivered for f in channel.transcript)
    return bool(outcome.secrecy_hits) or (
        manipulated and outcome.established
        and outcome.packets_delivered == len(workload)
        and outcome.first_failure is None
    )


def _play(name, reader_cfg, controller_cfg, workload, rng, demo=False) -> tuple:
    """One run of strategy ``name``: ``(outcome, won)``, where ``won`` says
    the attack succeeded.  The adversary as reader plays off the link and
    wins if the controller reaches Established; every other adversary
    plays on the link of one session."""
    strategy = STRATEGIES[name](reader_cfg, controller_cfg, workload, rng, demo)
    if isinstance(strategy, ChosenChallenge):
        outcome = run_chosen_challenge(controller_cfg, strategy, rng)
        return outcome, outcome.established_controller
    channel = LinkChannel(strategy=strategy)
    outcome = run_session(channel, reader_cfg, controller_cfg, workload)
    return outcome, _link_attack_won(outcome, channel, workload)


def canonical_demo(name: str, seed: int) -> SessionOutcome:
    """One fixed-shape run per strategy, e.g. replay always re-sends
    message 2 of an earlier session, so reports have a stable headline
    failure point per strategy."""
    rng = random.Random(seed * 7919 + STRATEGY_NAMES.index(name))
    reader_cfg, controller_cfg = _session_configs(rng)
    workload = _random_workload(rng, 1)
    outcome, _ = _play(name, reader_cfg, controller_cfg, workload, rng, demo=True)
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
            outcome, won = _play(name, reader_cfg, controller_cfg, workload, rng)
            if won:
                sreport.successes += 1
            if outcome.secrecy_hits:
                sreport.leaks += 1
            if outcome.first_failure is not None:
                sreport.blocked_at[outcome.first_failure.frame_no] += 1
                sreport.errors[outcome.first_failure.error] += 1
    return report
