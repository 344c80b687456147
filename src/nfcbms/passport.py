"""Append-only battery passport store.

One newline-delimited JSON entry per delivered diagnostic packet, so a
pack's history can be tracked across its lifetime.  Appends flush and
fsync before returning, and every open of the file takes an advisory
lock, so concurrent CLI invocations do not interleave half-written
lines.  A last line without its newline is an append that a crash cut
short: reads skip it and the next append truncates it.  A database
backend would slot in behind the same two calls.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .diagnostics import DiagPacket, json_int, packet_from_json, packet_to_json
from .errors import NfcBmsError, RangeViolation, StoreError

ENV_STORE_PATH = "BMS_STORE_PATH"


@dataclass(frozen=True)
class PassportEntry:
    pack_id: bytes
    received_at: int
    diag: DiagPacket
    session_id: str
    source: str  # IDLE_DIAG or ACTIVE_DIAG

    def __post_init__(self) -> None:
        if self.pack_id not in [r.pack_id for r in self.diag.reports]:
            raise RangeViolation("entry pack_id must be the pack id of one of its reports")
        if not 0 <= json_int(self.received_at, "received_at") < 1 << 64:
            raise RangeViolation("received_at outside [0, 2**64)")
        if type(self.session_id) is not str:
            raise RangeViolation("session_id must be a string")
        if self.source != self.diag.use_case.name:
            raise RangeViolation(f"source must be the packet's use case {self.diag.use_case.name}")

    def to_json(self) -> dict:
        return {
            "pack_id": self.pack_id.hex(),
            "received_at": self.received_at,
            "session_id": self.session_id,
            "source": self.source,
            "diag": packet_to_json(self.diag),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PassportEntry":
        return cls(
            pack_id=bytes.fromhex(obj["pack_id"]),
            received_at=obj["received_at"],
            diag=packet_from_json(obj["diag"]),
            session_id=obj["session_id"],
            source=obj["source"],
        )


class PassportStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, entry: PassportEntry) -> None:
        line = json.dumps(entry.to_json(), sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                _drop_uncommitted_tail(fh)
                fh.write(line.encode("utf-8"))
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise StoreError(f"cannot append to {self.path}: {exc}") from exc

    def entries(self) -> list[PassportEntry]:
        if not self.path.exists():
            return []
        try:
            with open(self.path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                text = _committed(fh.read()).decode("utf-8")
        except OSError as exc:
            raise StoreError(f"cannot read {self.path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise StoreError(f"{self.path}: corrupt store: {exc}") from exc
        out = []
        for lineno, line in enumerate(text.split("\n")[:-1], start=1):
            try:
                out.append(PassportEntry.from_json(json.loads(line)))
            except (ValueError, KeyError, TypeError, RecursionError, NfcBmsError) as exc:
                raise StoreError(f"{self.path}:{lineno}: corrupt entry: {exc}") from exc
        return out

    def history(self, pack_id: bytes) -> list[PassportEntry]:
        """Entries covering one pack, time-ordered (stable for equal stamps).

        Aggregated readouts count: an entry matches if any of its
        reports came from the pack (its own key is one of them).
        """
        matching = [e for e in self.entries() if pack_id in [r.pack_id for r in e.diag.reports]]
        return sorted(matching, key=lambda e: e.received_at)


def _committed(data: bytes) -> bytes:
    """The committed lines of a store file's bytes.  A line ends at byte
    0x0A only (CR, NEL and U+2028 are data); whatever follows the last one
    is an append that never finished, so never acknowledged."""
    return data[:data.rfind(b"\n") + 1]


def _drop_uncommitted_tail(fh) -> None:
    """Truncate the uncommitted tail.  ``fh`` is open for reading and
    appending, with the exclusive lock held."""
    size = fh.seek(0, os.SEEK_END)
    if size == 0:
        return
    fh.seek(size - 1)
    if fh.read(1) != b"\n":
        fh.seek(0)
        fh.truncate(len(_committed(fh.read())))


def default_store_path() -> Path:
    return Path(os.environ.get(ENV_STORE_PATH, "passport_store.ndjson"))
