"""NDEF-style framing: round trips, flag rules, parser totality."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from nfcbms import adversary as adv, sndef
from nfcbms.errors import BadFlags, EmptyInput, OversizeMessage, Truncated, UnknownType
from nfcbms.secure_channel import SecureRecord


def test_single_empty_record_is_six_bytes_with_mb_me():
    msg = sndef.NdefMessage([sndef.NdefRecord(sndef.RecordType.HANDSHAKE, b"")])
    raw = sndef.encode_message(msg)
    assert len(raw) == 6
    assert raw[1] == sndef.FLAG_MB | sndef.FLAG_ME


def test_encode_length_is_sum_of_headers_and_payloads():
    msg = sndef.NdefMessage(
        [
            sndef.NdefRecord(sndef.RecordType.HANDSHAKE, b"abc"),
            sndef.NdefRecord(sndef.RecordType.DIAG_PLAIN, b"0123456789"),
        ]
    )
    assert len(sndef.encode_message(msg)) == (6 + 3) + (6 + 10)


def test_oversize_message_rejected():
    big = sndef.NdefMessage([sndef.NdefRecord(sndef.RecordType.DIAG_PLAIN, bytes(9000))])
    with pytest.raises(OversizeMessage):
        sndef.encode_message(big)


def test_empty_message_rejected():
    with pytest.raises(EmptyInput):
        sndef.NdefMessage([])


@given(
    st.lists(
        st.tuples(
            st.sampled_from(list(sndef.RecordType)),
            st.binary(max_size=200),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_roundtrip_random_messages(specs):
    msg = sndef.NdefMessage([sndef.NdefRecord(t, p) for t, p in specs])
    raw = sndef.encode_message(msg)
    decoded = sndef.decode_message(raw)
    assert decoded.records == msg.records
    # the encoder owns the flag rule: MB on the first record only, ME on the last only
    pos, last = 0, len(specs) - 1
    for i, (_, payload) in enumerate(specs):
        assert raw[pos + 1] == (sndef.FLAG_MB if i == 0 else 0) | (sndef.FLAG_ME if i == last else 0)
        pos += sndef.RECORD_HEADER_LEN + len(payload)
    assert pos == len(raw)


def test_truncated_payload_rejected():
    msg = sndef.NdefMessage([sndef.NdefRecord(sndef.RecordType.HANDSHAKE, b"abcdef")])
    raw = sndef.encode_message(msg)
    with pytest.raises(Truncated):
        sndef.decode_message(raw[:-1])
    with pytest.raises(Truncated):
        sndef.decode_message(raw[:4])


def test_missing_me_rejected():
    msg = sndef.NdefMessage(
        [
            sndef.NdefRecord(sndef.RecordType.HANDSHAKE, b"a"),
            sndef.NdefRecord(sndef.RecordType.HANDSHAKE, b"b"),
        ]
    )
    raw = bytearray(sndef.encode_message(msg))
    raw[7 + 1] &= ~sndef.FLAG_ME & 0xFF  # clear ME on the second record
    with pytest.raises(BadFlags):
        sndef.decode_message(bytes(raw))


def test_trailing_bytes_after_me_rejected():
    msg = sndef.NdefMessage([sndef.NdefRecord(sndef.RecordType.HANDSHAKE, b"a")])
    raw = sndef.encode_message(msg) + b"\x00"
    with pytest.raises(BadFlags):
        sndef.decode_message(raw)


def test_unknown_type_rejected():
    raw = bytes([0x7F, 0xC0, 0, 0, 0, 0])
    with pytest.raises(UnknownType):
        sndef.decode_message(raw)


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
    wire = adv._wrap(secure, sndef.encode_secure_payload(rec))
    assert sndef.decode_secure_payload(adv._unwrap(wire, secure)) == rec


def test_wrap_empty_add_data_payload_length():
    rec = make_record(add_data=b"", blocks=3)
    assert len(sndef.encode_secure_payload(rec)) == 34 + len(rec.sec_data)


def test_unwrap_wrong_type_rejected():
    wire = adv._wrap(sndef.RecordType.DIAG_PLAIN, b"\x00" * 50)
    with pytest.raises(UnknownType, match="expected SNDEF_SECURE, got DIAG_PLAIN"):
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
