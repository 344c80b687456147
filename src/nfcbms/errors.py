"""Exception types shared across the simulator.

Protocol-level failures get their own classes so callers (and the
adversary harness) can tell *why* a session died without string
matching.  Plain ``ValueError`` is reserved for programmer/config
mistakes, not for anything an on-wire peer can trigger.
"""


class NfcBmsError(Exception):
    """Base class for every structured error raised by this package."""


# --- crypto / secure channel ---

class BadLength(NfcBmsError):
    """A byte field has the wrong size (keys, IVs, block-aligned data)."""


class InvalidNonce(NfcBmsError):
    """Nonce is all-zero or collides with the other challenge."""


class KeyDerivationError(NfcBmsError):
    """Session key derivation produced unusable keys."""


class TagMismatch(NfcBmsError):
    """Chained CMAC verification failed: tamper, replay, or reordering."""


class PaddingError(NfcBmsError):
    """Ciphertext authenticated but unpadded wrong; unreachable honestly."""


# --- handshake ---

class HandshakeError(NfcBmsError):
    """Base for handshake state machine failures."""


class WrongPhase(HandshakeError):
    """Operation invoked out of phase order or on the wrong role."""


class MalformedMessage(HandshakeError):
    """Frame fails structural validation (lengths, ids, message number)."""


class AuthFailure(HandshakeError):
    """Challenge verification failed: peer does not hold the master key."""


class KeyConfirmFailure(HandshakeError):
    """Key confirmation failed: transcript divergence or wrong session key."""


# --- codecs ---

class CodecError(NfcBmsError):
    """Base for wire codec failures."""


class Truncated(CodecError):
    """Input ends before a declared length is satisfied."""


class BadFlags(CodecError):
    """Record begin/end flags are inconsistent with record positions."""


class UnknownType(CodecError):
    """Record type code is not one this layer understands."""


class OversizeMessage(CodecError):
    """Encoded message would exceed the tag memory bound."""


# --- diagnostics ---

class EmptyInput(NfcBmsError):
    """An operation that needs at least one element got none."""


class DuplicatePackId(NfcBmsError):
    """Two reports in one packet claim the same pack id."""


class RangeViolation(NfcBmsError):
    """A diagnostic field is outside its documented range."""


def checked(value, what: str, kinds: tuple = (int,), noun: str = "an integer"):
    """``value``, if its type is exactly one of ``kinds`` (so a bool is no integer)."""
    if type(value) not in kinds:
        raise RangeViolation(f"{what} must be {noun}, not {type(value).__name__}")
    return value


def checked_items(value, what: str, kinds: tuple, items: str, noun: str) -> tuple:
    """A list or tuple whose entries each pass ``checked``, as a tuple."""
    for v in checked(value, what, (list, tuple), f"a list of {items}"):
        checked(v, f"{what} entry", kinds, noun)
    return tuple(value)


# --- wake-up simulation ---

class OverlappingSessions(NfcBmsError):
    """Readout windows (including wake-up latency) overlap in a scenario."""


# --- passport store ---

class StoreError(NfcBmsError):
    """Passport store I/O or corruption failure."""
