"""Span tracing of the nfcbms layers, installed from the benchmark's side.

Nothing in ``src/`` is changed: :class:`Tracer` replaces module and class
attributes of the package with wrappers that record one span per call
(name, start, end, parent span, op id, failed) with a few counters taken
from the sizes of the call's arguments or result.  Callers resolve these names at call
time, so the wrappers see every call.  Two callers bind names early and
are patched in their own namespace: ``handshake`` imports
``encode_secure_payload``/``decode_secure_payload`` from ``sndef``, and
the handshake steps are methods of ``HandshakeState``.

Spans stay in memory while the workload runs; :meth:`Tracer.write` dumps
them as JSON lines at the end.  Spans carry names, times, ids and sizes
only, never argument values, so no key material can reach the trace.
"""

from __future__ import annotations

import json
import time

from nfcbms import adversary, ban, cli, diagnostics, handshake, passport, wakeup
from nfcbms import secure_channel as sc
from nfcbms import sndef
from nfcbms.errors import TagMismatch

LAYERS = (
    "secure_channel", "handshake", "sndef", "diagnostics", "adversary",
    "passport", "wakeup", "ban", "cli",
)
DRIVER = "driver.op"  # root span of one op; its self time is the driver remainder
HANDSHAKE_STEPS = (
    "reader_start", "controller_respond", "reader_answer",
    "controller_key_confirm", "reader_key_confirm", "controller_finalize",
)
CLI_COMMANDS = ("handshake", "readout", "history", "wakeup-sim", "attack", "ban-verify")


def _count_arg0_bytes(args, kwargs, result, exc):
    return {"bytes": len(args[0])}


def _count_result_bytes(args, kwargs, result, exc):
    return {"bytes": len(result)} if exc is None else {}


def _count_seal(args, kwargs, result, exc):
    return {"bytes": len(args[1])}


def _count_open(args, kwargs, result, exc):
    if exc is None:
        return {"bytes": len(result)}
    return {"tag_mismatch": 1} if isinstance(exc, TagMismatch) else {}


def _count_scan(args, kwargs, result, exc):
    return {
        "transcript_bytes": len(args[0]),
        "plaintext_bytes": sum(len(p) for p in args[1]),
    }


def _count_transfer(args, kwargs, result, exc):
    return {"frames": 1, "bytes": len(args[2])}


def _count_attack(args, kwargs, result, exc):
    if exc is not None:
        return {}
    runs = sum(s.runs for s in result.strategies.values())
    blocked = sum(sum(s.blocked_at.values()) for s in result.strategies.values())
    return {"runs": runs, "blocked": blocked}


def _attack_name(args, kwargs) -> str:
    return "adversary.attack." + "+".join(kwargs["strategies"])


def _count_entries(args, kwargs, result, exc):
    return {"lines_parsed": len(result)} if exc is None else {}


def _count_simulate(args, kwargs, result, exc):
    return {"events": len(result.events)} if exc is None else {}


def _proof_depth(trace) -> int:
    """Rounds the forward chainer ran to reach every goal.

    Each round applies every rule to everything known, so a statement
    first appears in round ``1 + max(round of its premises)``; the last
    goal's round is the number of rounds run.
    """
    depth = {}
    for step in trace.steps:  # premises always precede their conclusion
        depth[step.index] = 1 + max((depth[p] for p in step.premises), default=-1)
    return max((depth[i] for i in trace.goal_steps.values()), default=0)


def _count_derive(args, kwargs, result, exc):
    if exc is not None:
        return {}
    if isinstance(result, ban.ProofTrace):
        return {"rounds": _proof_depth(result), "steps": len(result.steps)}
    return {"rounds": result.rounds, "steps": 0}


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv") or []
    command = next((a for a in argv if a in CLI_COMMANDS), "unknown")
    return f"cli.main.{command}"


# (owner, attribute, span name, counter, name function)
def _targets():
    hs_state = handshake.HandshakeState
    targets = [
        (sc, "derive_session_keys", "secure_channel.derive_session_keys", None, None),
        (sc, "double_encrypt", "secure_channel.double_encrypt", None, None),
        (sc, "double_decrypt", "secure_channel.double_decrypt", None, None),
        (sc, "seal_record", "secure_channel.seal_record", _count_seal, None),
        (sc, "open_record", "secure_channel.open_record", _count_open, None),
        (handshake, "run_honest_handshake", "handshake.run_honest_handshake", None, None),
        (sndef, "encode_message", "sndef.encode_message", _count_result_bytes, None),
        (sndef, "decode_message", "sndef.decode_message", _count_arg0_bytes, None),
        (sndef, "encode_secure_payload", "sndef.encode_secure_payload", _count_result_bytes, None),
        (sndef, "decode_secure_payload", "sndef.decode_secure_payload", _count_arg0_bytes, None),
        (handshake, "encode_secure_payload", "sndef.encode_secure_payload", _count_result_bytes, None),
        (handshake, "decode_secure_payload", "sndef.decode_secure_payload", _count_arg0_bytes, None),
        (diagnostics, "encode_diag", "diagnostics.encode_diag", _count_result_bytes, None),
        (diagnostics, "decode_diag", "diagnostics.decode_diag", _count_arg0_bytes, None),
        (adversary, "run_session", "adversary.run_session", None, None),
        (adversary, "scan_secrecy", "adversary.scan_secrecy", _count_scan, None),
        (adversary.LinkChannel, "transfer", "adversary.link", _count_transfer, None),
        (adversary, "run_attack_suite", None, _count_attack, _attack_name),
        (passport.PassportStore, "append", "passport.append", None, None),
        (passport.PassportStore, "entries", "passport.entries", _count_entries, None),
        (passport.PassportStore, "history", "passport.history", None, None),
        (wakeup, "simulate", "wakeup.simulate", _count_simulate, None),
        (ban, "parse_protocol", "ban.parse_protocol", None, None),
        (ban, "derive", "ban.derive", _count_derive, None),
        (cli, "main", None, None, _cli_name),
    ]
    targets += [
        (hs_state, step, f"handshake.{step}", None, None) for step in HANDSHAKE_STEPS
    ]
    return targets


class Tracer:
    """Records spans of the wrapped layer calls made during traced ops."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, op_id, failed, counts)
        self.op_id = -1
        self._stack: list = []
        self._patches = [
            (owner, attr, getattr(owner, attr), self._wrap(getattr(owner, attr), name, count, name_of))
            for owner, attr, name, count, name_of in _targets()
        ]
        self._driver = self._wrap(lambda call: call(), DRIVER, None, None)

    def _wrap(self, fn, name, count, name_of):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                result = None
                raise
            finally:
                end = clock()
                stack.pop()
                counts = count(args, kwargs, result, exc) if count is not None else None
                spans[index] = (label, start, end, parent, self.op_id, exc is not None, counts)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def op(self, op_id: int, fn, *args):
        """Run one op as the root span of its layer spans."""
        self.op_id = op_id
        return self._driver(lambda: fn(*args))

    def summary(self, scales) -> dict:
        """Per span name: calls, failed, self_ns, wall_ns and counters.

        A span's self time is its duration minus the time its direct
        children cover; children never overlap on one thread.  Times are
        multiplied by ``scales[op id]``, the op's machine-speed factor.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, op_id, failed, counts) in enumerate(self.spans):
            scale = scales[op_id]
            row = out.setdefault(name, {"calls": 0, "failed": 0, "self_ns": 0, "wall_ns": 0})
            row["calls"] += 1
            row["failed"] += failed
            row["self_ns"] += (end - start - child_ns[i]) * scale
            row["wall_ns"] += (end - start) * scale
            for key, value in (counts or {}).items():
                row[key] = row.get(key, 0) + value
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
