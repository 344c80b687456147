"""NDEF-style framing: round trips, flag rules, parser totality."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from nfcbms import adversary as adv, sndef
from nfcbms.errors import BadFlags, OversizeMessage, Truncated, UnknownType
from nfcbms.secure_channel import SecureRecord


def test_single_empty_record_is_six_bytes_with_mb_me():
    raw = sndef.encode_message(sndef.RecordType.HANDSHAKE, b"")
    assert len(raw) == 6
    assert raw[1] == sndef.FLAG_MB | sndef.FLAG_ME


def test_two_record_frame_rejected():
    # as a multi-record encoder wrote it: MB on the first record only, ME on the second only
    first = bytes([sndef.RecordType.HANDSHAKE, sndef.FLAG_MB, 0, 0, 0, 3]) + b"abc"
    second = bytes([sndef.RecordType.SNDEF_SECURE, sndef.FLAG_ME, 0, 0, 0, 10]) + b"0123456789"
    with pytest.raises(BadFlags, match="^final record lacks ME$"):
        sndef.decode_message(first + second)
    # a whole frame followed by a second record
    whole = sndef.encode_message(sndef.RecordType.HANDSHAKE, b"abc")
    with pytest.raises(BadFlags, match="^data continues after the ME record$"):
        sndef.decode_message(whole + second)


def test_oversize_message_rejected():
    largest = sndef.MAX_MESSAGE - sndef.RECORD_HEADER_LEN
    assert len(sndef.encode_message(sndef.RecordType.SNDEF_SECURE, bytes(largest))) == sndef.MAX_MESSAGE
    with pytest.raises(OversizeMessage, match="^encoded message is 8193 bytes, cap is 8192$"):
        sndef.encode_message(sndef.RecordType.SNDEF_SECURE, bytes(largest + 1))


@given(
    st.sampled_from(list(sndef.RecordType)),
    st.binary(max_size=200),
    st.binary(max_size=8),
)
def test_roundtrip_random_messages(type_code, payload, noise):
    raw = sndef.encode_message(type_code, payload)
    assert raw[1] == sndef.FLAG_MB | sndef.FLAG_ME
    assert len(raw) == sndef.RECORD_HEADER_LEN + len(payload)
    assert sndef.decode_message(raw).records == [sndef.NdefRecord(type_code, payload)]
    # with its header overwritten, a frame decodes only to the record it encodes
    mutated = noise + raw[len(noise):]
    try:
        (record,) = sndef.decode_message(mutated).records
    except (Truncated, BadFlags, UnknownType):
        return
    assert sndef.encode_message(record.type_code, record.payload) == mutated


def test_truncated_payload_rejected():
    raw = sndef.encode_message(sndef.RecordType.HANDSHAKE, b"abcdef")
    with pytest.raises(Truncated):
        sndef.decode_message(raw[:-1])
    with pytest.raises(Truncated):
        sndef.decode_message(raw[:4])


def test_missing_me_rejected():
    raw = bytearray(sndef.encode_message(sndef.RecordType.HANDSHAKE, b"a"))
    raw[1] &= ~sndef.FLAG_ME & 0xFF
    with pytest.raises(BadFlags, match="^final record lacks ME$"):
        sndef.decode_message(bytes(raw))


def test_trailing_bytes_after_me_rejected():
    raw = sndef.encode_message(sndef.RecordType.HANDSHAKE, b"a") + b"\x00"
    with pytest.raises(BadFlags):
        sndef.decode_message(raw)


def test_unknown_type_rejected():
    for type_code in (0x03, 0x7F):  # 0x03 is no longer a record type
        with pytest.raises(UnknownType, match=f"record type 0x{type_code:02x}"):
            sndef.decode_message(bytes([type_code, 0xC0, 0, 0, 0, 0]))


def test_fuzz_sample_only_structured_errors():
    # 10^5-input sweep lives in the acceptance suite; this is the smoke test
    rng = random.Random(123)
    for _ in range(5000):
        raw = rng.randbytes(rng.randrange(0, 64))
        try:
            sndef.decode_message(raw)
        except (Truncated, BadFlags, UnknownType):
            pass


def make_record(add_data: bytes = b"hdr", blocks: int = 2) -> SecureRecord:
    rng = random.Random(5)
    return SecureRecord(
        iv=rng.randbytes(16),
        sec_data=rng.randbytes(16 * blocks),
        add_data=add_data,
        tag=rng.randbytes(16),
    )


def test_wrap_unwrap_roundtrip():
    # a sealed record through the link-frame codec and back
    rec = make_record()
    secure = sndef.RecordType.SNDEF_SECURE
    wire = sndef.encode_message(secure, sndef.encode_secure_payload(rec))
    assert sndef.decode_secure_payload(adv._unwrap(wire, secure)) == rec


def test_wrap_empty_add_data_payload_length():
    rec = make_record(add_data=b"", blocks=3)
    assert len(sndef.encode_secure_payload(rec)) == 34 + len(rec.sec_data)


def test_unwrap_wrong_type_rejected():
    wire = sndef.encode_message(sndef.RecordType.HANDSHAKE, b"\x00" * 50)
    with pytest.raises(UnknownType, match="expected SNDEF_SECURE, got HANDSHAKE"):
        adv._unwrap(wire, sndef.RecordType.SNDEF_SECURE)


def test_unwrap_truncated_rejected():
    payload = sndef.encode_secure_payload(make_record())
    for cut in (10, 33, 35):
        with pytest.raises(Truncated):
            sndef.decode_secure_payload(payload[:cut])


@given(
    st.binary(max_size=64),
    st.integers(min_value=1, max_value=8),
)
def test_secure_payload_roundtrip(add_data, blocks):
    rng = random.Random(blocks)
    rec = SecureRecord(
        iv=rng.randbytes(16),
        sec_data=rng.randbytes(16 * blocks),
        add_data=add_data,
        tag=rng.randbytes(16),
    )
    assert sndef.decode_secure_payload(sndef.encode_secure_payload(rec)) == rec


def test_no_plaintext_outside_add_data():
    # construction check: the only plaintext bytes in a secure payload
    # are the add_data slice
    from nfcbms import secure_channel as sc

    keys = sc.SessionKeys(k_enc=bytes(range(16)), k_mac=bytes(range(16, 32)))
    state = sc.ChannelState.for_keys(keys)
    secret = b"confidential cell telemetry buffer"
    rec = sc.seal_record(state, secret, b"public-header", random.Random(6))
    payload = sndef.encode_secure_payload(rec)
    for start in range(len(secret) - 8 + 1):
        assert secret[start:start + 8] not in payload
    assert b"public-header" in payload
