"""NDEF-style framing for the simulated link.

Real NFC Forum NDEF carries TNF/type-name machinery this simulator does
not need, so records here use a compact fixed header.  A link frame is
exactly one record:

    frame := type_code(1) | flags(1) | payload_len(4, BE) | payload

The record is both the first and the last of its message, so its flags
are MB | ME.

Secure records travel as a ``SNDEF_SECURE`` payload:

    iv(16) | tag(16) | add_len(2, BE) | add_data | sec_data

All layouts are documented bit-exactly in docs/formats.md; they are the
simulator's wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import BadFlags, OversizeMessage, Truncated, UnknownType
from .secure_channel import SecureRecord

RECORD_HEADER_LEN = 6
_SECURE_FIXED = struct.Struct(">16s16sH")  # iv | tag | add_len
SECURE_FIXED_LEN = _SECURE_FIXED.size
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
    """A decoded link frame.  ``records`` always holds its one record; the
    list is kept only for the benchmark's ``.records[0]`` read."""

    records: list[NdefRecord]


def encode_message(type_code: RecordType, payload: bytes) -> bytes:
    """A link frame: one record of ``type_code`` carrying ``payload``."""
    size = RECORD_HEADER_LEN + len(payload)
    if size > MAX_MESSAGE:
        raise OversizeMessage(f"encoded message is {size} bytes, cap is {MAX_MESSAGE}")
    return _HEADER.pack(type_code, FLAG_MB | FLAG_ME, len(payload)) + payload


def decode_message(raw: bytes) -> NdefMessage:
    """Parse one link frame; rejects anything structurally off.

    Never reads past a declared length, so arbitrary fuzz input yields a
    structured error or the frame's one record.  A second record after
    the first is data after ME.
    """
    if len(raw) < RECORD_HEADER_LEN:
        raise Truncated("record header runs past end of input")
    type_code, flags, payload_len = _HEADER.unpack_from(raw)
    rtype = _TYPES.get(type_code)
    if rtype is None:
        raise UnknownType(f"record type 0x{type_code:02x}")
    if flags & ~_KNOWN_FLAGS:
        raise BadFlags(f"undefined flag bits 0x{flags:02x}")
    end = RECORD_HEADER_LEN + payload_len
    if end > len(raw):
        raise Truncated("declared payload runs past end of input")
    if not flags & FLAG_MB:
        raise BadFlags("MB must be set on exactly the first record")
    if not flags & FLAG_ME:
        raise BadFlags("final record lacks ME")
    if end != len(raw):
        raise BadFlags("data continues after the ME record")
    return NdefMessage([NdefRecord(rtype, raw[RECORD_HEADER_LEN:end])])


def encode_secure_payload(record: SecureRecord) -> bytes:
    """Serialize a SecureRecord to the SNDEF payload layout."""
    return _SECURE_FIXED.pack(record.iv, record.tag, len(record.add_data)) + record.add_data + record.sec_data


def decode_secure_payload(payload: bytes) -> SecureRecord:
    if len(payload) < SECURE_FIXED_LEN:
        raise Truncated("secure payload shorter than fixed fields")
    iv, tag, add_len = _SECURE_FIXED.unpack_from(payload)
    end = SECURE_FIXED_LEN + add_len
    if len(payload) < end:
        raise Truncated("declared add_data runs past end of payload")
    add_data = payload[SECURE_FIXED_LEN:end]
    sec_data = payload[end:]
    if not sec_data or len(sec_data) % 16:
        raise Truncated("sec_data must be a positive multiple of 16 bytes")
    return SecureRecord(iv=iv, sec_data=sec_data, add_data=add_data, tag=tag)
