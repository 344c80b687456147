"""NDEF-style framing for the simulated link.

Real NFC Forum NDEF carries TNF/type-name machinery this simulator does
not need, so records here use a compact fixed header:

    record  := type_code(1) | flags(1) | payload_len(4, BE) | payload
    message := record+            (MB set on first, ME set on last)

MB and ME are positional: a record carries no flags of its own, the
encoder writes them from its place in the message and the decoder
checks them.

Secure records travel as a ``SNDEF_SECURE`` payload:

    iv(16) | tag(16) | add_len(2, BE) | add_data | sec_data

All layouts are documented bit-exactly in docs/formats.md; they are the
simulator's wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import BadFlags, EmptyInput, OversizeMessage, Truncated, UnknownType
from .secure_channel import SecureRecord

RECORD_HEADER_LEN = 6
SECURE_FIXED_LEN = 34  # iv + tag + add_len
MAX_MESSAGE = 8192  # models a small tag memory

FLAG_MB = 0x80
FLAG_ME = 0x40
_KNOWN_FLAGS = FLAG_MB | FLAG_ME


class RecordType(IntEnum):
    HANDSHAKE = 0x01
    SNDEF_SECURE = 0x02


_TYPES = {int(t): t for t in RecordType}
_HEADER = struct.Struct(">BBI")


@dataclass(frozen=True)
class NdefRecord:
    type_code: RecordType
    payload: bytes


@dataclass
class NdefMessage:
    """Ordered records; MB and ME follow from their positions."""

    records: list[NdefRecord]

    def __post_init__(self) -> None:
        if not self.records:
            raise EmptyInput("a message needs at least one record")


def encode_message(msg: NdefMessage) -> bytes:
    last = len(msg.records) - 1
    out = b"".join([
        _HEADER.pack(rec.type_code, FLAG_MB * (i == 0) | FLAG_ME * (i == last), len(rec.payload))
        + rec.payload
        for i, rec in enumerate(msg.records)
    ])
    if len(out) > MAX_MESSAGE:
        raise OversizeMessage(f"encoded message is {len(out)} bytes, cap is {MAX_MESSAGE}")
    return out


def decode_message(raw: bytes) -> NdefMessage:
    """Parse a full message; rejects anything structurally off.

    Never reads past a declared length and never loops without
    consuming input, so arbitrary fuzz input yields a structured error
    or a valid message.
    """
    records: list[NdefRecord] = []
    pos = 0
    n = len(raw)
    while True:
        if n - pos < RECORD_HEADER_LEN:
            raise Truncated("record header runs past end of input")
        type_code, flags, payload_len = _HEADER.unpack_from(raw, pos)
        pos += RECORD_HEADER_LEN
        rtype = _TYPES.get(type_code)
        if rtype is None:
            raise UnknownType(f"record type 0x{type_code:02x}")
        if flags & ~_KNOWN_FLAGS:
            raise BadFlags(f"undefined flag bits 0x{flags:02x}")
        if payload_len > n - pos:
            raise Truncated("declared payload runs past end of input")
        if bool(flags & FLAG_MB) != (not records):
            raise BadFlags("MB must be set on exactly the first record")
        records.append(NdefRecord(rtype, raw[pos:pos + payload_len]))
        pos += payload_len
        if flags & FLAG_ME:
            if pos != n:
                raise BadFlags("data continues after the ME record")
            return NdefMessage(records)
        if pos == n:
            raise BadFlags("final record lacks ME")


def encode_secure_payload(record: SecureRecord) -> bytes:
    """Serialize a SecureRecord to the SNDEF payload layout."""
    return (
        record.iv
        + record.tag
        + struct.pack(">H", len(record.add_data))
        + record.add_data
        + record.sec_data
    )


def decode_secure_payload(payload: bytes) -> SecureRecord:
    if len(payload) < SECURE_FIXED_LEN:
        raise Truncated("secure payload shorter than fixed fields")
    iv = payload[:16]
    tag = payload[16:32]
    (add_len,) = struct.unpack_from(">H", payload, 32)
    if len(payload) < SECURE_FIXED_LEN + add_len:
        raise Truncated("declared add_data runs past end of payload")
    add_data = payload[34:34 + add_len]
    sec_data = payload[34 + add_len:]
    if not sec_data or len(sec_data) % 16:
        raise Truncated("sec_data must be a positive multiple of 16 bytes")
    return SecureRecord(iv=iv, sec_data=sec_data, add_data=add_data, tag=tag)
