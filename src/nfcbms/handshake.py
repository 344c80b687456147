"""Five-message mutual authentication and session key confirmation.

Reader (external NFC reader) and controller (BMS side) both hold the
pre-embedded master key.  The exchange:

    1  reader     -> controller : ch_r                      (plaintext)
    2  controller -> reader     : ch_t | EE(id_c | ch_r)
    3  reader     -> controller : DD(id_r | ch_t)
    4  controller -> reader     : seal(id_c | X)    X  = raw msg1 | msg3
    5  reader     -> controller : seal(id_r | X')   X' = raw msg2 | msg4

``EE`` is the double CBC encryption, ``DD`` the double CBC decryption:
the controller only ever answers challenges in the encrypt direction
and the reader only in the decrypt direction, so a reflected response
never verifies.  Messages 4/5 ride the freshly keyed record channel
(chains starting at the all-zero sentinel), so key confirmation doubles
as channel bring-up, and they bind the raw transcript bytes: flipping
any earlier bit surfaces at or before message 5.

Wire frame (big endian): ``msg_no(1) | sender_id(4) | body_len(2) | body``.
Body layouts: m1 = ch_r(16); m2 = ch_t(16) | chal(32); m3 = chal(32);
m4/m5 = secure record payload as defined by the sndef codec.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from . import secure_channel as sc
from .errors import (
    AuthFailure,
    CodecError,
    InvalidNonce,
    KeyConfirmFailure,
    MalformedMessage,
    TagMismatch,
    WrongPhase,
)
from .sndef import decode_secure_payload, encode_secure_payload

ID_LEN = 4
FRAME_HEADER_LEN = 7

BODY_LEN = {1: 16, 2: 48, 3: 32}  # m4/m5 bodies are variable length


class Role(IntEnum):
    READER = 1
    CONTROLLER = 2


class Phase(IntEnum):
    INIT = 0
    CHALLENGED = 1
    AUTHENTICATED = 2
    KEY_CONFIRM_SENT = 3
    ESTABLISHED = 4
    FAILED = 5


@dataclass(frozen=True)
class HandshakeMessage:
    msg_no: int
    sender_id: bytes
    body: bytes

    def to_bytes(self) -> bytes:
        return (
            struct.pack(">B", self.msg_no)
            + self.sender_id
            + struct.pack(">H", len(self.body))
            + self.body
        )


def parse_frame(raw: bytes, *, expect_no: int, expect_sender: bytes) -> HandshakeMessage:
    """Structural validation of one wire frame."""
    if len(raw) < FRAME_HEADER_LEN:
        raise MalformedMessage("frame shorter than header")
    msg_no = raw[0]
    sender_id = raw[1:1 + ID_LEN]
    (body_len,) = struct.unpack_from(">H", raw, 1 + ID_LEN)
    body = raw[FRAME_HEADER_LEN:]
    if msg_no != expect_no:
        raise MalformedMessage(f"expected message {expect_no}, got {msg_no}")
    if sender_id != expect_sender:
        raise MalformedMessage("unexpected sender id")
    if len(body) != body_len:
        raise MalformedMessage("body length field disagrees with frame size")
    fixed = BODY_LEN.get(msg_no)
    if fixed is not None and body_len != fixed:
        raise MalformedMessage(f"message {msg_no} body must be {fixed} bytes")
    return HandshakeMessage(msg_no, sender_id, body)


def challenge_plain(principal_id: bytes, nonce: sc.Nonce) -> bytes:
    """``id | nonce``, zero-extended to the two blocks the double transforms take."""
    return (principal_id + nonce.bytes).ljust(sc.CHALLENGE_LEN, b"\x00")


@dataclass
class HandshakeState:
    """One endpoint of the handshake; single-threaded per session.
    ``transcript[n - 1]`` is frame n as this endpoint sent or received it."""

    role: Role
    self_id: bytes
    peer_id: bytes
    master: sc.MasterKey
    rng: object
    phase: Phase = field(default=Phase.INIT, init=False)
    ch_r: sc.Nonce | None = field(default=None, init=False)
    ch_t: sc.Nonce | None = field(default=None, init=False)
    channel: sc.ChannelState | None = field(default=None, init=False)
    transcript: list = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        for name, pid in (("self_id", self.self_id), ("peer_id", self.peer_id)):
            if len(pid) != ID_LEN:
                raise ValueError(f"{name} must be {ID_LEN} bytes")
            if pid == bytes(ID_LEN):
                raise ValueError(f"{name} must be non-zero")
        if self.self_id == self.peer_id:
            raise ValueError("reader and controller ids must differ")

    @classmethod
    def reader(cls, self_id: bytes, peer_id: bytes, master: sc.MasterKey, rng) -> "HandshakeState":
        return cls(Role.READER, self_id, peer_id, master, rng)

    @classmethod
    def controller(cls, self_id: bytes, peer_id: bytes, master: sc.MasterKey, rng) -> "HandshakeState":
        return cls(Role.CONTROLLER, self_id, peer_id, master, rng)

    @property
    def session_keys(self) -> sc.SessionKeys | None:
        return self.channel.keys if self.channel else None

    def _require(self, role: Role, phase: Phase) -> None:
        if self.role != role or self.phase != phase:
            raise WrongPhase(
                f"{self.role.name} in phase {self.phase.name} cannot run this step"
            )

    def _fail(self, exc: Exception) -> Exception:
        self.phase = Phase.FAILED
        return exc

    def _emit(self, msg_no: int, body: bytes) -> HandshakeMessage:
        msg = HandshakeMessage(msg_no, self.self_id, body)
        self.transcript.append(msg.to_bytes())
        return msg

    def _receive(self, raw: bytes, msg_no: int) -> HandshakeMessage:
        try:
            msg = parse_frame(raw, expect_no=msg_no, expect_sender=self.peer_id)
        except MalformedMessage as exc:
            raise self._fail(exc)
        self.transcript.append(raw)
        return msg

    def _peer_nonce(self, raw: bytes) -> sc.Nonce:
        """The peer's challenge: a valid nonce, not the reader's own (None on the controller)."""
        try:
            nonce = sc.Nonce(raw)
        except InvalidNonce as exc:
            raise self._fail(exc)
        if nonce == self.ch_r:
            raise self._fail(InvalidNonce("peer challenge equals our challenge"))
        return nonce

    def _open_channel(self, phase: Phase) -> None:
        """Both challenges are in: derive the session keys and key the record channel."""
        self.channel = sc.ChannelState.for_keys(sc.derive_session_keys(self.master, self.ch_r, self.ch_t))
        self.phase = phase

    # --- message 1: reader opens with its challenge ---

    def reader_start(self) -> HandshakeMessage:
        self._require(Role.READER, Phase.INIT)
        self.ch_r = sc.new_nonce(self.rng)
        self.phase = Phase.CHALLENGED
        return self._emit(1, self.ch_r.bytes)

    # --- message 2: controller answers and issues its own challenge ---

    def controller_respond(self, msg1: bytes) -> HandshakeMessage:
        self._require(Role.CONTROLLER, Phase.INIT)
        self.ch_r = self._peer_nonce(self._receive(msg1, 1).body)
        while True:
            self.ch_t = sc.new_nonce(self.rng)
            if self.ch_t.bytes != self.ch_r.bytes:
                break
        chal = sc.double_encrypt(self.master, challenge_plain(self.self_id, self.ch_r))
        self.phase = Phase.CHALLENGED
        return self._emit(2, self.ch_t.bytes + chal)

    # --- message 3: reader verifies the controller and answers back ---

    def reader_answer(self, msg2: bytes) -> HandshakeMessage:
        self._require(Role.READER, Phase.CHALLENGED)
        msg = self._receive(msg2, 2)
        ch_t_raw, chal = msg.body[:16], msg.body[16:]
        expected = challenge_plain(self.peer_id, self.ch_r)
        if sc.double_decrypt(self.master, chal) != expected:
            raise self._fail(AuthFailure("controller challenge response does not verify"))
        self.ch_t = self._peer_nonce(ch_t_raw)
        answer = sc.double_decrypt(self.master, challenge_plain(self.self_id, self.ch_t))
        self._open_channel(Phase.AUTHENTICATED)
        return self._emit(3, answer)

    # --- messages 4 and 5: key confirmation over the new record channel ---

    def _seal_confirm(self, msg_no: int) -> HandshakeMessage:
        # X (message 4) / X' (message 5): frames msg_no - 3 and msg_no - 1,
        # which the sealer received and the opener sent
        view = self.transcript[msg_no - 4] + self.transcript[msg_no - 2]
        record = sc.seal_record(self.channel, self.self_id + view, b"", self.rng)
        return self._emit(msg_no, encode_secure_payload(record))

    def _open_confirm(self, raw: bytes, msg_no: int) -> None:
        """Open the peer's confirmation and compare it with the frames we sent."""
        msg = self._receive(raw, msg_no)
        try:
            plaintext = sc.open_record(self.channel, decode_secure_payload(msg.body))
        except CodecError as exc:
            raise self._fail(MalformedMessage("undecodable confirmation")) from exc
        except TagMismatch as exc:
            raise self._fail(KeyConfirmFailure("confirmation sealed under wrong key or tampered")) from exc
        if plaintext != self.peer_id + self.transcript[msg_no - 4] + self.transcript[msg_no - 2]:
            raise self._fail(KeyConfirmFailure("transcript view diverges"))

    def controller_key_confirm(self, msg3: bytes) -> HandshakeMessage:
        """Message 4: verify the reader's answer, then confirm the key."""
        self._require(Role.CONTROLLER, Phase.CHALLENGED)
        try:
            msg = self._receive(msg3, 3)
        except MalformedMessage as exc:
            raise AuthFailure("malformed challenge answer") from exc
        # encrypt-direction check of a decrypt-direction value: a value we
        # produced ourselves (or any reflected ciphertext) can never pass
        expected = challenge_plain(self.peer_id, self.ch_t)
        if sc.double_encrypt(self.master, msg.body) != expected:
            raise self._fail(AuthFailure("reader challenge answer does not verify"))
        self._open_channel(Phase.KEY_CONFIRM_SENT)
        return self._seal_confirm(4)

    def reader_key_confirm(self, msg4: bytes) -> HandshakeMessage:
        """Message 5: check the controller's confirmation and answer in kind."""
        self._require(Role.READER, Phase.AUTHENTICATED)
        self._open_confirm(msg4, 4)
        self.phase = Phase.ESTABLISHED
        return self._seal_confirm(5)

    def controller_finalize(self, msg5: bytes) -> None:
        """Receipt of message 5: the controller's side is established."""
        self._require(Role.CONTROLLER, Phase.KEY_CONFIRM_SENT)
        self._open_confirm(msg5, 5)
        self.phase = Phase.ESTABLISHED


def run_honest_handshake(
    reader: HandshakeState, controller: HandshakeState
) -> list[bytes]:
    """Drive both endpoints directly (no link in between); returns the frames."""
    m1 = reader.reader_start().to_bytes()
    m2 = controller.controller_respond(m1).to_bytes()
    m3 = reader.reader_answer(m2).to_bytes()
    m4 = controller.controller_key_confirm(m3).to_bytes()
    m5 = reader.reader_key_confirm(m4).to_bytes()
    controller.controller_finalize(m5)
    return [m1, m2, m3, m4, m5]
