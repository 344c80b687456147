"""Handshake state machines: layouts, authentication, transcript binding."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import reference_crypto as ref
from nfcbms import handshake as hs, secure_channel as sc
from nfcbms.errors import (
    AuthFailure,
    InvalidNonce,
    KeyConfirmFailure,
    MalformedMessage,
    NfcBmsError,
    WrongPhase,
)

KEY = sc.MasterKey(bytes(16))
READER_ID = b"NR__"
CONTROLLER_ID = b"MN__"


class ScriptedRng:
    """Returns pre-arranged byte chunks; fails loudly when exhausted."""

    def __init__(self, *chunks: bytes):
        self.chunks = list(chunks)

    def randbytes(self, n: int) -> bytes:
        chunk = self.chunks.pop(0)
        assert len(chunk) == n
        return chunk


def endpoints(seed: int = 0, key_r: sc.MasterKey = KEY, key_c: sc.MasterKey = KEY):
    reader = hs.HandshakeState.reader(READER_ID, CONTROLLER_ID, key_r, random.Random(seed))
    controller = hs.HandshakeState.controller(
        CONTROLLER_ID, READER_ID, key_c, random.Random(seed + 1)
    )
    return reader, controller


# --- message 1 ---


def test_message1_layout():
    reader, _ = endpoints()
    msg = reader.reader_start()
    frame = msg.to_bytes()
    assert len(msg.body) == 16
    # sender id plus body is the 20-byte plaintext unit on the wire
    assert len(frame) - 1 - 2 == 20
    assert frame[0] == 1
    assert frame[1:5] == READER_ID
    assert reader.phase == hs.Phase.CHALLENGED


def test_message1_nonce_never_zero_over_1000_seeds():
    for seed in range(1000):
        reader, _ = endpoints(seed)
        assert reader.reader_start().body != bytes(16)


def test_message1_differs_across_seeds():
    r1, _ = endpoints(1)
    r2, _ = endpoints(2)
    assert r1.reader_start().body != r2.reader_start().body


# --- message 2 ---


def test_message2_rejects_zero_nonce():
    _, controller = endpoints()
    msg1 = hs.HandshakeMessage(1, READER_ID, bytes(16)).to_bytes()
    with pytest.raises(InvalidNonce):
        controller.controller_respond(msg1)
    assert controller.phase == hs.Phase.FAILED


def test_message2_encrypted_field_double_decrypts_to_id_and_nonce():
    reader, controller = endpoints(3)
    m1 = reader.reader_start()
    m2 = controller.controller_respond(m1.to_bytes())
    chal = m2.body[16:]
    plain = sc.double_decrypt(KEY, chal)
    assert plain == (CONTROLLER_ID + m1.body).ljust(32, b"\x00")


def test_message2_golden_bytes_zero_key_fixed_nonces():
    reader = hs.HandshakeState.reader(
        READER_ID, CONTROLLER_ID, KEY, ScriptedRng(bytes([1]) * 16)
    )
    controller = hs.HandshakeState.controller(
        CONTROLLER_ID, READER_ID, KEY, ScriptedRng(bytes([2]) * 16)
    )
    m1 = reader.reader_start()
    m2 = controller.controller_respond(m1.to_bytes())
    assert m2.to_bytes().hex() == (
        "024d4e5f5f003002020202020202020202020202020202"
        "40b537b5a82d7d4e55e3df11a0e602b89a905284f7ef7d55856f1e440f602e8d"
    )
    # recomputed against the block cipher reference
    expected = ref.cbc_encrypt(
        KEY.bytes, bytes(16),
        ref.cbc_encrypt(KEY.bytes, bytes(16), (CONTROLLER_ID + bytes([1]) * 16).ljust(32, b"\x00")),
    )
    assert m2.body[16:] == expected


def test_malformed_message1_rejected():
    _, controller = endpoints()
    with pytest.raises(MalformedMessage):
        controller.controller_respond(b"\x01" + READER_ID + b"\x00\x10" + bytes(15))


# --- message 3 ---


def test_wrong_master_key_fails_at_reader():
    wrong = sc.MasterKey(bytes([7]) * 16)
    reader, controller = endpoints(4, key_r=KEY, key_c=wrong)
    m1 = reader.reader_start()
    m2 = controller.controller_respond(m1.to_bytes())
    with pytest.raises(AuthFailure):
        reader.reader_answer(m2.to_bytes())
    assert reader.phase == hs.Phase.FAILED


def test_equal_challenges_rejected():
    reader, _ = endpoints(5)
    m1 = reader.reader_start()
    ch_r = m1.body
    chal = sc.double_encrypt(KEY, (CONTROLLER_ID + ch_r).ljust(32, b"\x00"))
    forged_m2 = hs.HandshakeMessage(2, CONTROLLER_ID, ch_r + chal).to_bytes()
    with pytest.raises(InvalidNonce):
        reader.reader_answer(forged_m2)


def test_message3_double_encrypts_back_to_reader_challenge():
    reader, controller = endpoints(6)
    m1 = reader.reader_start()
    m2 = controller.controller_respond(m1.to_bytes())
    m3 = reader.reader_answer(m2.to_bytes())
    plain = sc.double_encrypt(KEY, m3.body)
    assert plain == (READER_ID + m2.body[:16]).ljust(32, b"\x00")


def test_challenge_responses_never_bit_identical():
    # controller answers in the encrypt direction, reader in the decrypt
    # direction; for distinct nonces the two 32-byte responses differ
    for seed in range(100):
        reader, controller = endpoints(seed)
        m1 = reader.reader_start()
        m2 = controller.controller_respond(m1.to_bytes())
        m3 = reader.reader_answer(m2.to_bytes())
        assert m2.body[16:] != m3.body


# --- message 4 ---


def test_reflected_challenge_fails():
    reader, controller = endpoints(7)
    m1 = reader.reader_start()
    m2 = controller.controller_respond(m1.to_bytes())
    # bounce the controller's own encrypted challenge back as message 3
    reflected = hs.HandshakeMessage(3, READER_ID, m2.body[16:]).to_bytes()
    with pytest.raises(AuthFailure):
        controller.controller_key_confirm(reflected)
    assert controller.phase == hs.Phase.FAILED


def test_message3_wrong_length_fails_auth():
    reader, controller = endpoints(8)
    m1 = reader.reader_start()
    controller.controller_respond(m1.to_bytes())
    short = hs.HandshakeMessage(3, READER_ID, bytes(16)).to_bytes()
    with pytest.raises(AuthFailure) as excinfo:
        controller.controller_key_confirm(short)
    assert isinstance(excinfo.value.__cause__, MalformedMessage)


def test_message4_round_trip_carries_transcript():
    reader, controller = endpoints(9)
    m1 = reader.reader_start()
    m2 = controller.controller_respond(m1.to_bytes())
    m3 = reader.reader_answer(m2.to_bytes())
    m4 = controller.controller_key_confirm(m3.to_bytes())
    # open on the reader side: plaintext is id | raw msg1 | raw msg3
    from nfcbms.sndef import decode_secure_payload

    plain = sc.open_record(reader.channel, decode_secure_payload(m4.body))
    assert plain == CONTROLLER_ID + m1.to_bytes() + m3.to_bytes()


# --- message 5 and completion ---


def test_honest_run_establishes_both_sides():
    reader, controller = endpoints(10)
    frames = hs.run_honest_handshake(reader, controller)
    assert len(frames) == 5
    assert reader.phase == hs.Phase.ESTABLISHED
    assert controller.phase == hs.Phase.ESTABLISHED
    assert reader.session_keys == controller.session_keys
    # the channel is live for app traffic in both directions
    rec = sc.seal_record(controller.channel, b"after handshake", b"", controller.rng)
    assert sc.open_record(reader.channel, rec) == b"after handshake"


def test_modified_message1_caught_at_key_confirm():
    reader, controller = endpoints(11)
    m1 = reader.reader_start().to_bytes()
    tampered = bytearray(m1)
    tampered[10] ^= 1  # inside ch_r
    m2 = controller.controller_respond(bytes(tampered))
    with pytest.raises(AuthFailure):
        reader.reader_answer(m2.to_bytes())


def test_message4_under_wrong_session_key_is_key_confirm_failure():
    reader, controller = endpoints(12)
    m1 = reader.reader_start()
    m2 = controller.controller_respond(m1.to_bytes())
    m3 = reader.reader_answer(m2.to_bytes())
    controller.controller_key_confirm(m3.to_bytes())
    # forge message 4 under unrelated keys
    other = sc.ChannelState.for_keys(
        sc.SessionKeys(k_enc=bytes(range(16)), k_mac=bytes(range(16, 32)))
    )
    forged_record = sc.seal_record(
        other, CONTROLLER_ID + m1.to_bytes() + m3.to_bytes(), b"", random.Random(0)
    )
    from nfcbms.sndef import encode_secure_payload

    forged = hs.HandshakeMessage(4, CONTROLLER_ID, encode_secure_payload(forged_record))
    with pytest.raises(KeyConfirmFailure):
        reader.reader_key_confirm(forged.to_bytes())


def test_replayed_message5_from_other_session_fails():
    reader_a, controller_a = endpoints(13)
    frames_a = hs.run_honest_handshake(reader_a, controller_a)

    reader_b, controller_b = endpoints(14)
    m1 = reader_b.reader_start().to_bytes()
    m2 = controller_b.controller_respond(m1).to_bytes()
    m3 = reader_b.reader_answer(m2).to_bytes()
    m4 = controller_b.controller_key_confirm(m3).to_bytes()
    reader_b.reader_key_confirm(m4)
    with pytest.raises(KeyConfirmFailure):
        controller_b.controller_finalize(frames_a[4])


def test_message4_reflected_as_message5_diverges_from_the_transcript():
    # both chains start at the zero sentinel under one k_mac, so the
    # controller's own message 4, re-headed as the reader's message 5,
    # passes the tag check: only the transcript comparison stops it
    reader, controller = endpoints(16)
    m1 = reader.reader_start().to_bytes()
    m2 = controller.controller_respond(m1).to_bytes()
    m3 = reader.reader_answer(m2).to_bytes()
    m4 = controller.controller_key_confirm(m3)
    reflected = hs.HandshakeMessage(5, READER_ID, m4.body).to_bytes()
    with pytest.raises(KeyConfirmFailure, match="^transcript view diverges$"):
        controller.controller_finalize(reflected)
    assert controller.phase == hs.Phase.FAILED


def test_truncated_message5_is_malformed():
    reader, controller = endpoints(15)
    m1 = reader.reader_start().to_bytes()
    m2 = controller.controller_respond(m1).to_bytes()
    m3 = reader.reader_answer(m2).to_bytes()
    m4 = controller.controller_key_confirm(m3).to_bytes()
    m5 = reader.reader_key_confirm(m4).to_bytes()
    with pytest.raises(MalformedMessage):
        controller.controller_finalize(m5[:40])


def test_state_machine_rejects_out_of_order_operations():
    reader, controller = endpoints(16)
    with pytest.raises(WrongPhase):
        reader.reader_answer(b"x" * 55)
    with pytest.raises(WrongPhase):
        reader.reader_key_confirm(b"x" * 55)
    with pytest.raises(WrongPhase):
        controller.controller_key_confirm(b"x" * 39)
    with pytest.raises(WrongPhase):
        controller.controller_finalize(b"x" * 55)
    m1 = reader.reader_start()
    with pytest.raises(WrongPhase):
        reader.reader_start()  # can't restart
    # role confusion
    with pytest.raises(WrongPhase):
        controller.reader_start()


def test_wrong_keys_never_pass_challenged_either_role():
    # neither role moves its honest peer past CHALLENGED without the key
    rng = random.Random(17)
    for _ in range(50):
        wrong = sc.MasterKey(rng.randbytes(16))

        # keyless controller against an honest reader
        reader, controller = endpoints(rng.randrange(1 << 30), key_c=wrong)
        m1 = reader.reader_start()
        m2 = controller.controller_respond(m1.to_bytes())
        with pytest.raises(AuthFailure):
            reader.reader_answer(m2.to_bytes())
        assert reader.channel is None  # reader never got past CHALLENGED

        # keyless reader against an honest controller
        reader, controller = endpoints(rng.randrange(1 << 30), key_r=wrong)
        m1 = reader.reader_start()
        m2 = controller.controller_respond(m1.to_bytes())
        with pytest.raises(AuthFailure):
            reader.reader_answer(m2.to_bytes())  # reader itself cannot verify
        # even a reader that blindly answers anyway is caught
        forged_answer = sc.double_decrypt(wrong, (READER_ID + m2.body[:16]).ljust(32, b"\x00"))
        forged = hs.HandshakeMessage(3, READER_ID, forged_answer).to_bytes()
        with pytest.raises(AuthFailure):
            controller.controller_key_confirm(forged)
        assert controller.channel is None


def test_completeness_sample_of_seeded_sessions():
    for seed in range(50):
        reader, controller = endpoints(seed * 31 + 1)
        hs.run_honest_handshake(reader, controller)
        assert reader.session_keys == controller.session_keys
        assert reader.phase == controller.phase == hs.Phase.ESTABLISHED


def test_transcript_binding_1000_fuzzed_runs():
    # any single-bit modification of messages 1-4 fails at or before message 5
    rng = random.Random(99)
    for _ in range(1000):
        assert_bitflip_fails(rng)


def assert_bitflip_fails(rng: random.Random) -> None:
    reader, controller = endpoints(rng.randrange(1 << 30))
    target = rng.randrange(1, 5)
    flipped_one = False

    def maybe_flip(frame: bytes, no: int) -> bytes:
        nonlocal flipped_one
        if no != target:
            return frame
        flipped_one = True
        mutated = bytearray(frame)
        bit = rng.randrange(len(mutated) * 8)
        mutated[bit // 8] ^= 1 << (bit % 8)
        return bytes(mutated)

    try:
        m1 = maybe_flip(reader.reader_start().to_bytes(), 1)
        m2 = maybe_flip(controller.controller_respond(m1).to_bytes(), 2)
        m3 = maybe_flip(reader.reader_answer(m2).to_bytes(), 3)
        m4 = maybe_flip(controller.controller_key_confirm(m3).to_bytes(), 4)
        reader.reader_key_confirm(m4)
        controller.controller_finalize(reader.transcript[4])
    except (AuthFailure, MalformedMessage, KeyConfirmFailure, InvalidNonce):
        assert flipped_one
        return
    raise AssertionError("bit flip survived the handshake")


# --- any step, in any order, on any frame ---

LEGAL_STEPS = {  # step -> (role, phase before, phase after): each role's one path
    "reader_start": (hs.Role.READER, hs.Phase.INIT, hs.Phase.CHALLENGED),
    "reader_answer": (hs.Role.READER, hs.Phase.CHALLENGED, hs.Phase.AUTHENTICATED),
    "reader_key_confirm": (hs.Role.READER, hs.Phase.AUTHENTICATED, hs.Phase.ESTABLISHED),
    "controller_respond": (hs.Role.CONTROLLER, hs.Phase.INIT, hs.Phase.CHALLENGED),
    "controller_key_confirm": (hs.Role.CONTROLLER, hs.Phase.CHALLENGED, hs.Phase.KEY_CONFIRM_SENT),
    "controller_finalize": (hs.Role.CONTROLLER, hs.Phase.KEY_CONFIRM_SENT, hs.Phase.ESTABLISHED),
}


class HandshakeMachine(RuleBasedStateMachine):
    """One reader and one controller; any step on either, fed the peer's last
    frame, a bit-flipped or truncated copy of it, or random bytes."""

    @initialize(seed=st.integers(0, 1 << 32))
    def start(self, seed):
        reader, controller = endpoints(seed)
        self.endpoints = {hs.Role.READER: reader, hs.Role.CONTROLLER: controller}
        self.last_sent = {}  # role -> the last frame that endpoint sent
        self.failed = set()  # roles whose step raised on a peer frame

    def peer_frame(self, role):
        return self.last_sent.get(hs.Role.READER if role == hs.Role.CONTROLLER else hs.Role.CONTROLLER)

    @rule()
    def next_step(self):
        """A legal step on the frame it awaits, if the peer sent that last, as an honest link delivers it."""
        for step, (role, before, _) in LEGAL_STEPS.items():
            endpoint, frame = self.endpoints[role], self.peer_frame(role)
            awaited = step == "reader_start" or (frame and frame[0] == len(endpoint.transcript) + 1)
            if endpoint.phase == before and awaited:
                return self.run(role, step, frame)

    @rule(
        role=st.sampled_from(hs.Role),
        step=st.sampled_from(sorted(LEGAL_STEPS)),
        damage=st.sampled_from(["none", "flip", "truncate", "noise"]),
        where=st.integers(0, 1 << 16),
        noise=st.binary(max_size=80),
    )
    def any_step(self, role, step, damage, where, noise):
        frame = self.peer_frame(role)
        if frame is None or damage == "noise":
            frame = noise
        elif damage == "flip":
            bit = where % (8 * len(frame))
            frame = frame[:bit // 8] + bytes([frame[bit // 8] ^ 1 << bit % 8]) + frame[bit // 8 + 1:]
        elif damage == "truncate":
            frame = frame[:where % len(frame)]
        self.run(role, step, frame)

    def run(self, role, step, frame):
        endpoint = self.endpoints[role]
        phase, transcript = endpoint.phase, list(endpoint.transcript)
        try:
            reply = getattr(endpoint, step)(*(() if step == "reader_start" else (frame,)))
        except WrongPhase:
            assert (endpoint.phase, endpoint.transcript) == (phase, transcript)
            assert LEGAL_STEPS[step][:2] != (role, phase)
            return
        except NfcBmsError:
            assert role not in self.failed  # a failed endpoint only ever raises WrongPhase
            assert endpoint.phase == hs.Phase.FAILED
            self.failed.add(role)
            return
        assert role not in self.failed
        assert LEGAL_STEPS[step] == (role, phase, endpoint.phase)
        if reply is not None:
            self.last_sent[role] = reply.to_bytes()

    @invariant()
    def transcript_entry_i_holds_frame_i_plus_1(self):
        for endpoint in self.endpoints.values():
            assert [frame[0] for frame in endpoint.transcript] == list(range(1, len(endpoint.transcript) + 1))

    @invariant()
    def established_endpoints_agree(self):
        reader, controller = self.endpoints.values()
        if reader.phase == controller.phase == hs.Phase.ESTABLISHED:
            assert reader.transcript == controller.transcript
            assert reader.session_keys == controller.session_keys


HandshakeMachine.TestCase.settings = settings(max_examples=80, stateful_step_count=20, deadline=None)
TestHandshakeMachine = HandshakeMachine.TestCase
