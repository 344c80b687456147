"""Exhaustive single-fault sweep of one session: the detection map.

The attack suite samples random runs; this sweep enumerates a small
scope in full instead (the small-scope hypothesis: most protocol flaws
already show on small instances; Jackson, *Software Abstractions*,
2006).  One seeded session carries one diagnostic packet over six link
frames.  Each of these faults is played on a fresh copy of that session:

* every single-bit flip of each frame;
* every truncation of each frame to each shorter length;
* every same-slot replay of each frame from one earlier honest session.

Every run must end in a protocol error with nothing delivered and no
plaintext on the link.  Per frame, fault and field, the
``(message, operation, error)`` outcomes and their run counts are pinned
in ``golden/detection_map.json``, shown as a table in docs/formats.md
("Detection map").  A flip counts against the field of its bit, a
truncation against the field of its first missing byte.  Regenerate the
golden only when detection is meant to change:

    PYTHONPATH=src python tests/test_attack_sweep.py
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from nfcbms import adversary as adv

GOLDEN = Path(__file__).with_name("golden") / "detection_map.json"
SEED = 13

# byte layout of each link frame: (field, width), None running to the end
NDEF = (("ndef.type", 1), ("ndef.flags", 1), ("ndef.length", 4))
HANDSHAKE = (("hs.msg_no", 1), ("hs.sender", 4), ("hs.body_len", 2))
SECURE = (("iv", 16), ("tag", 16), ("add_len", 2), ("sec_data", None))
LAYOUT = {
    1: NDEF + HANDSHAKE + (("ch_r", 16),),
    2: NDEF + HANDSHAKE + (("ch_t", 16), ("chal", 32)),
    3: NDEF + HANDSHAKE + (("chal", 32),),
    4: NDEF + HANDSHAKE + SECURE,
    5: NDEF + HANDSHAKE + SECURE,
    6: NDEF + SECURE,
}


@dataclass
class Truncate:
    """Cut one frame to its first ``length`` bytes in transit."""

    frame_index: int
    length: int

    def on_frame(self, frame_no: int, direction: str, wire: bytes) -> bytes:
        return wire[:self.length] if frame_no == self.frame_index else wire


def field_names(frame_no: int, size: int) -> list:
    """The field each byte of a ``size``-byte frame ``frame_no`` belongs to."""
    names = []
    for name, width in LAYOUT[frame_no]:
        names += [name] * (size - len(names) if width is None else width)
    assert len(names) == size, f"frame {frame_no} is {size} bytes, its layout {len(names)}"
    return names


def session():
    """The swept session: endpoint configs, its one-packet workload and one earlier session's frames."""
    rng = random.Random(SEED)
    reader_cfg, controller_cfg = adv._session_configs(rng)
    workload = adv._random_workload(rng, 1)
    prior = adv._harvest_honest_frames(reader_cfg, controller_cfg, workload, rng)
    return reader_cfg, controller_cfg, workload, prior


def faults(frames: list, prior: list):
    """``(frame_no, fault, field, strategy)`` for every single fault on ``frames``."""
    for frame_no, wire in enumerate(frames, start=1):
        names = field_names(frame_no, len(wire))
        for bit in range(len(wire) * 8):
            yield frame_no, "flip", names[bit // 8], adv.BitFlip(frame_no, bit)
        for length in range(len(wire)):
            yield frame_no, "truncate", names[length], Truncate(frame_no, length)
        yield frame_no, "replay", "frame", adv.Replay(frame_no, prior)


def detection_map() -> dict:
    reader_cfg, controller_cfg, workload, prior = session()
    honest = adv.LinkChannel()
    assert adv.run_session(honest, reader_cfg, controller_cfg, workload).first_failure is None
    frames = [f.sent for f in honest.transcript]
    assert len(frames) == 6

    counts = {}
    for frame_no, fault, name, strategy in faults(frames, prior):
        outcome = adv.run_session(adv.LinkChannel(strategy=strategy), reader_cfg, controller_cfg, workload)
        failure = outcome.first_failure
        where = f"frame {frame_no} {fault} {name}"
        assert failure is not None, f"{where} went undetected"
        assert outcome.packets_delivered == 0 and not outcome.secrecy_hits, where
        counts.setdefault((frame_no, fault, name), Counter())[
            (failure.frame_no, failure.operation, failure.error)
        ] += 1

    out = {
        str(n): {"bytes": len(wire), "direction": honest.transcript[n - 1].direction, "faults": {}}
        for n, wire in enumerate(frames, start=1)
    }
    for (frame_no, fault, name), outcomes in counts.items():
        out[str(frame_no)]["faults"].setdefault(fault, {})[name] = [
            [message, operation, error, runs]
            for (message, operation, error), runs in sorted(outcomes.items())
        ]
    return {"seed": SEED, "runs": sum(sum(c.values()) for c in counts.values()), "frames": out}


def test_every_single_fault_is_detected_where_the_map_says():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert detection_map() == golden


def record() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(detection_map(), indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
