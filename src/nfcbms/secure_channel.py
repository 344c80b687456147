"""Symmetric crypto core for the secure readout channel.

Three pieces live here:

* session key derivation from the pre-embedded master key and the two
  handshake challenges (counter-mode CMAC PRF with distinct labels, so
  the encryption and MAC keys are domain separated),
* the double encryption / double decryption challenge transforms used
  by the mutual-authentication handshake (AES-128-CBC applied twice
  with an all-zero IV; the two directions are deliberately different
  ciphers so a challenge oracle in one direction is useless for the
  other),
* the record channel: AES-128-CBC in Encrypt-then-MAC mode with CMAC
  tag chaining, where each record's MAC input is
  ``sec_data | IV | add_data | previous_tag`` so replayed, reordered,
  duplicated or dropped records break the chain.  A dropped tail does
  not: no record carries a count or an end-of-stream mark, so a reader
  that stops early sees no error (docs/formats.md, "Secure records").

Each key object holds its own AES/CMAC contexts (``MasterKey.aes``,
``SessionKeys.enc``, ``SessionKeys.mac``), built on first use and freed
with the key: nothing at module level keeps a key or a context alive.  A
master also keeps its last derived key pair, replaced by the next
derivation and freed with the master, so both endpoints of one in-process
session share the pair and its contexts.
CBC encryption runs on one encryptor per key whose chain carries over
between calls (``_Aes``); a call that raises or overlaps another on the
same key starts a fresh chain rather than run on one out of step.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from functools import cached_property

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.cmac import CMAC

from .errors import (
    BadLength,
    InvalidNonce,
    KeyDerivationError,
    PaddingError,
    TagMismatch,
)

BLOCK = 16
KEY_LEN = 16
NONCE_LEN = 16
TAG_LEN = 16
CHALLENGE_LEN = 2 * BLOCK  # input of the double transforms
CHAIN_SENTINEL = bytes(TAG_LEN)

_ZERO_IV = bytes(BLOCK)
_KDF_LABEL_ENC = bytes([0x01]) + b"SKEYENC"
_KDF_LABEL_MAC = bytes([0x02]) + b"SKEYMAC"
_KDF_OUTLEN = b"\x00\x80"  # 128 output bits, big endian


class _Aes:
    """AES-128 under one key: cipher contexts and a CMAC prototype, each built on first use.

    CBC encryption runs on one encryptor, started with a zero IV, kept in
    ``_cbc`` with ``cbc_last``, the last block it emitted: a call under
    ``iv`` XORs ``iv ^ cbc_last`` into its first block, so the context's
    own chaining gives CBC under ``iv`` as SP 800-38A defines it.  A call
    takes the pair out of ``_cbc`` in one step and puts it back, in step,
    only after its update.  So a call that raises half way, or one that
    overlaps another on the same key (sessions share their master key),
    never leaves a chain out of step: a call that finds no pair starts a
    fresh encryptor.  Inputs must be block aligned, so no context buffers a
    partial block.
    """

    def __init__(self, key: bytes) -> None:
        self._aes = algorithms.AES(key)

    @cached_property
    def _ecb_dec(self):
        return Cipher(self._aes, modes.ECB()).decryptor()

    @cached_property
    def _mac(self) -> CMAC:
        return CMAC(self._aes)

    def cbc_encrypt(self, iv: bytes, data: bytes) -> bytes:
        if len(data) % BLOCK:
            raise BadLength("CBC input must be block aligned")
        if not data:
            return b""
        enc, cbc_last = vars(self).pop("_cbc", None) or (
            Cipher(self._aes, modes.CBC(_ZERO_IV)).encryptor(), 0)
        head = int.from_bytes(data[:BLOCK], "big") ^ int.from_bytes(iv, "big") ^ cbc_last
        out = enc.update(head.to_bytes(BLOCK, "big") + data[BLOCK:])
        self._cbc = enc, int.from_bytes(out[-BLOCK:], "big")
        return out

    def cbc_decrypt(self, iv: bytes, data: bytes) -> bytes:
        if len(data) % BLOCK:
            raise BadLength("CBC input must be block aligned")
        x = int.from_bytes(self._ecb_dec.update(data), "big")
        return (x ^ int.from_bytes((iv + data)[:-BLOCK], "big")).to_bytes(len(data), "big")

    def cmac(self, data: bytes) -> bytes:
        mac = self._mac.copy()
        mac.update(data)
        return mac.finalize()


def pkcs7_pad(data: bytes) -> bytes:
    n = BLOCK - (len(data) % BLOCK)
    return data + bytes([n]) * n


def pkcs7_unpad(data: bytes) -> bytes:
    if not data or len(data) % BLOCK:
        raise PaddingError("ciphertext length not block aligned")
    n = data[-1]
    if not 1 <= n <= BLOCK or data[-n:] != bytes([n]) * n:
        raise PaddingError("bad padding byte pattern")
    return data[:-n]


@dataclass(frozen=True)
class MasterKey:
    """Pre-embedded 16-byte master key. Never serialized or logged.

    Every session under the key shares its ``aes`` contexts, CBC chain too.
    It keeps its last derived key pair, replaced by the next derivation, so
    both endpoints of one session share that pair and its contexts.
    """

    bytes: bytes

    def __post_init__(self) -> None:
        if len(self.bytes) != KEY_LEN:
            raise BadLength(f"master key must be {KEY_LEN} bytes")

    def __repr__(self) -> str:  # keep key material out of logs and tracebacks
        return "MasterKey(<redacted>)"

    @cached_property
    def aes(self) -> _Aes:
        return _Aes(self.bytes)


@dataclass(frozen=True)
class SessionKeys:
    """Derived per-session keys: one for AES-CBC, one for CMAC."""

    k_enc: bytes
    k_mac: bytes

    def __post_init__(self) -> None:
        if len(self.k_enc) != KEY_LEN or len(self.k_mac) != KEY_LEN:
            raise BadLength("session keys must be 16 bytes each")
        if self.k_enc == self.k_mac:
            raise KeyDerivationError("encryption and MAC key must differ")

    def __repr__(self) -> str:
        return "SessionKeys(<redacted>)"

    @cached_property
    def enc(self) -> _Aes:
        return _Aes(self.k_enc)

    @cached_property
    def mac(self) -> _Aes:
        return _Aes(self.k_mac)


@dataclass(frozen=True)
class Nonce:
    """16-byte challenge nonce; all-zero values are forbidden."""

    bytes: bytes

    def __post_init__(self) -> None:
        if len(self.bytes) != NONCE_LEN:
            raise BadLength(f"nonce must be {NONCE_LEN} bytes")
        if self.bytes == bytes(NONCE_LEN):
            raise InvalidNonce("nonce cannot be all-zero")


def new_nonce(rng) -> Nonce:
    """Draw a fresh nonce; the all-zero draw is rejected and retried."""
    while True:
        raw = rng.randbytes(NONCE_LEN)
        if raw != bytes(NONCE_LEN):
            return Nonce(raw)


@dataclass(frozen=True)
class SecureRecord:
    """One sealed channel unit: IV, ciphertext, associated data, chained tag."""

    iv: bytes
    sec_data: bytes
    add_data: bytes
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.iv) != BLOCK:
            raise BadLength("record IV must be 16 bytes")
        if len(self.tag) != TAG_LEN:
            raise BadLength("record tag must be 16 bytes")
        if not self.sec_data or len(self.sec_data) % BLOCK:
            raise BadLength("sec_data must be a positive multiple of 16 bytes")


@dataclass
class ChannelState:
    """Per-endpoint channel state; the two chain directions are independent."""

    keys: SessionKeys
    last_tag_sent: bytes = CHAIN_SENTINEL
    last_tag_received: bytes = CHAIN_SENTINEL

    @classmethod
    def for_keys(cls, keys: SessionKeys) -> "ChannelState":
        return cls(keys=keys)


def derive_session_keys(master: MasterKey, ch_r: Nonce, ch_t: Nonce) -> SessionKeys:
    """Derive the session key pair from the master key and both challenges.

    Counter-mode PRF: ``CMAC(K_M, ctr | label | ch_r | ch_t | len)`` with
    distinct counters and labels per output key, so neither key is a
    function of the other and KDF inputs are fixed-length, closing the
    CBC-MAC variable-length weakness for this use.
    """
    if ch_r.bytes == ch_t.bytes:
        raise InvalidNonce("challenges must differ within a handshake")
    challenges = ch_r.bytes + ch_t.bytes
    last = vars(master).get("_last_derived")
    if last is None or last[0] != challenges:
        k_enc = master.aes.cmac(_KDF_LABEL_ENC + challenges + _KDF_OUTLEN)
        k_mac = master.aes.cmac(_KDF_LABEL_MAC + challenges + _KDF_OUTLEN)
        last = vars(master)["_last_derived"] = challenges, SessionKeys(k_enc=k_enc, k_mac=k_mac)
    return last[1]


def double_encrypt(key: MasterKey, block2: bytes) -> bytes:
    """Encrypt two blocks twice under AES-128-CBC with an all-zero IV.

    The controller-side challenge transform.  There is no padding: the
    input is exactly two blocks, so the transform is length stable and
    :func:`double_decrypt` inverts it.
    """
    if len(block2) != CHALLENGE_LEN:
        raise BadLength(f"challenge transform input must be {CHALLENGE_LEN} bytes")
    return key.aes.cbc_encrypt(_ZERO_IV, key.aes.cbc_encrypt(_ZERO_IV, block2))


def double_decrypt(key: MasterKey, block2: bytes) -> bytes:
    """Decrypt two blocks twice under AES-128-CBC with an all-zero IV.

    The reader-side challenge transform, and the inverse of
    :func:`double_encrypt`; the input is not a padded ciphertext.
    """
    if len(block2) != CHALLENGE_LEN:
        raise BadLength(f"challenge transform input must be {CHALLENGE_LEN} bytes")
    return key.aes.cbc_decrypt(_ZERO_IV, key.aes.cbc_decrypt(_ZERO_IV, block2))


def _chained_tag(mac: _Aes, sec_data: bytes, iv: bytes, add_data: bytes, previous_tag: bytes) -> bytes:
    """CMAC over ``sec_data | IV | add_data | previous_tag``."""
    return mac.cmac(sec_data + iv + add_data + previous_tag)


def seal_record(state: ChannelState, plaintext: bytes, add_data: bytes, rng) -> SecureRecord:
    """Encrypt-then-MAC one record and advance the send chain."""
    iv = rng.randbytes(BLOCK)
    sec_data = state.keys.enc.cbc_encrypt(iv, pkcs7_pad(plaintext))
    tag = _chained_tag(state.keys.mac, sec_data, iv, add_data, state.last_tag_sent)
    state.last_tag_sent = tag
    return SecureRecord(iv=iv, sec_data=sec_data, add_data=add_data, tag=tag)


def open_record(state: ChannelState, record: SecureRecord) -> bytes:
    """Verify the chained tag, then (and only then) decrypt.

    The expected tag is computed against this endpoint's receive chain,
    so a replayed or out-of-order record fails even though its tag was
    once valid.
    """
    expected = _chained_tag(
        state.keys.mac, record.sec_data, record.iv, record.add_data, state.last_tag_received
    )
    if not hmac.compare_digest(expected, record.tag):
        raise TagMismatch("record tag does not verify at this chain position")
    plaintext = pkcs7_unpad(state.keys.enc.cbc_decrypt(record.iv, record.sec_data))
    state.last_tag_received = record.tag
    return plaintext
