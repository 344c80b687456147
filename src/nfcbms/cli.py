"""Command-line harness tying the simulator together.

Commands: handshake, readout, history, wakeup-sim, attack, ban-verify.
Every command is deterministic under --seed, reports never contain key
material, and JSON reports use sorted keys so identical runs produce
byte-identical output.

Exit codes (frozen for scripting):

    0  success
    1  protocol failure (authentication, tag, key confirmation)
    2  usage error or invalid input file
    3  passport store I/O or corruption
    4  verification goals not derivable
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources
from pathlib import Path

from . import adversary, ban, diagnostics, passport, secure_channel as sc, wakeup
from .errors import NfcBmsError, StoreError

EXIT_OK = 0
EXIT_PROTOCOL = 1
EXIT_USAGE = 2
EXIT_STORE = 3
EXIT_VERIFY = 4

# simulator development key; any real deployment provisions its own
DEFAULT_KEY_HEX = "000102030405060708090a0b0c0d0e0f"

READER_ID = b"NRD1"
CONTROLLER_ID = b"MNC1"


def _load_key(args, attr: str = "key") -> sc.MasterKey:
    key_hex = getattr(args, attr, None)
    if attr == "key" and getattr(args, "key_file", None) is not None:
        key_hex = _read_input(args.key_file, "key file", str.strip)
    if key_hex is None:
        key_hex = DEFAULT_KEY_HEX
    try:
        return sc.MasterKey(bytes.fromhex(key_hex))
    except (ValueError, NfcBmsError) as exc:
        raise UsageError(f"bad key material: {exc}") from exc


class UsageError(Exception):
    pass


def _read_input(path: str, what: str, parse):
    """Read a file the user named as UTF-8 and return ``parse(text)``.

    This is the CLI's one input boundary: a file that cannot be read or
    decoded is ``cannot read <what>``, text that ``parse`` rejects is
    ``bad <what>``, and both are usage errors (exit 2).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what}: {exc}") from exc
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError, NfcBmsError) as exc:
        raise UsageError(f"bad {what}: {exc}") from exc


def _emit(args, payload: dict, text_renderer=None) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text_renderer(payload) if text_renderer else json.dumps(payload, indent=2, sort_keys=True))


def _session(args, reader_key, controller_key, packets: list):
    """Drive one session over an honest link; returns the channel and the session."""
    channel = adversary.LinkChannel()
    session = adversary.drive_session(
        channel,
        adversary.EndpointConfig(READER_ID, reader_key, args.seed),
        adversary.EndpointConfig(CONTROLLER_ID, controller_key, args.seed + 1),
        packets,
    )
    return channel, session


# --- handshake ---


def cmd_handshake(args) -> int:
    reader_key = _load_key(args)
    controller_key = _load_key(args, "controller_key") if args.controller_key is not None else reader_key
    channel, session = _session(args, reader_key, controller_key, [])
    outcome = session.outcome
    payload = {
        "command": "handshake",
        "seed": args.seed,
        "outcome": outcome.to_json(),
        "frames": [
            {"no": f.frame_no, "direction": f.direction, "bytes": len(f.delivered)}
            for f in channel.transcript
        ],
    }

    def text(p):
        lines = [f"handshake seed={p['seed']}: " + ("ESTABLISHED" if p["outcome"]["established"] else "FAILED")]
        for f in p["frames"]:
            lines.append(f"  message {f['no']}: {f['direction']} ({f['bytes']} bytes)")
        if p["outcome"]["first_failure"]:
            ff = p["outcome"]["first_failure"]
            lines.append(f"  failure at message {ff['message']}: {ff['error']} in {ff['operation']}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_OK if outcome.established else EXIT_PROTOCOL


# --- readout ---


def _readout_packet(mode: str, text: str) -> diagnostics.DiagPacket:
    """The packet a readout sends: a reports file's text, validated."""
    raw = json.loads(text)
    if not isinstance(raw, list) or not raw:
        raise ValueError("expected a non-empty JSON list of reports")
    reports = [diagnostics.report_from_json(obj) for obj in raw]
    if mode == "active":
        return diagnostics.collect_from_bpcs(reports, seq=0)
    if len(reports) != 1:
        raise ValueError("idle readout covers exactly one stored pack")
    return diagnostics.idle_packet(reports[0], seq=0)


def cmd_readout(args) -> int:
    key = _load_key(args)
    packet = _read_input(args.reports, "reports file", lambda text: _readout_packet(args.mode, text))

    _, session = _session(args, key, key, [packet])
    failure = session.outcome.first_failure
    if failure is not None:
        _emit(args, {"command": "readout", "error": failure.error, "detail": failure.detail})
        return EXIT_PROTOCOL

    reader = session.reader
    session_id = hashlib.sha256(reader.ch_r.bytes + reader.ch_t.bytes).hexdigest()[:16]
    store = passport.PassportStore(args.store)
    appended = []
    for packet in session.received:
        entry = passport.PassportEntry(
            pack_id=packet.reports[0].pack_id,
            received_at=max(r.timestamp for r in packet.reports),
            diag=packet,
            session_id=session_id,
            source=packet.use_case.name,
        )
        store.append(entry)
        appended.append(entry.to_json())
    payload = {
        "command": "readout",
        "mode": args.mode,
        "session_id": session_id,
        "store": str(store.path),
        "entries_appended": appended,
    }
    _emit(args, payload, lambda p: f"appended {len(p['entries_appended'])} entries "
                                   f"(session {p['session_id']}) to {p['store']}")
    return EXIT_OK


# --- history ---


def cmd_history(args) -> int:
    try:
        pack_id = bytes.fromhex(args.pack_id)
    except ValueError as exc:
        raise UsageError(f"pack id must be hex: {exc}") from exc
    if len(pack_id) != diagnostics.PACK_ID_LEN:
        raise UsageError(f"pack id must be {diagnostics.PACK_ID_LEN} bytes, got {len(pack_id)}")
    store = passport.PassportStore(args.store)
    entries = store.history(pack_id)
    payload = {
        "command": "history",
        "pack_id": pack_id.hex(),
        "entries": [e.to_json() for e in entries],
    }
    _emit(args, payload, lambda p: "\n".join(
        [f"{len(p['entries'])} entries for pack {p['pack_id']}"]
        + [f"  {e['received_at']}: {e['source']} session {e['session_id']}" for e in p["entries"]]
    ))
    return EXIT_OK


# --- wakeup-sim ---


def cmd_wakeup_sim(args) -> int:
    if args.trace_out is not None and args.method == "both":
        raise UsageError("--trace-out needs --method ed|eh: the trace is of one design")
    if args.scenario is not None and args.days is not None:
        raise UsageError("give --scenario or --days, not both: the scenario file sets the duration")
    model = (
        _read_input(args.model, "model file", lambda text: wakeup.PowerModel(**json.loads(text)))
        if args.model is not None else wakeup.PowerModel()
    )
    scenario = (
        _read_input(args.scenario, "scenario file",
                    lambda text: wakeup.StorageScenario.from_json(json.loads(text)))
        if args.scenario is not None
        else wakeup.StorageScenario(duration_days=1.0 if args.days is None else args.days)
    )
    try:
        traces = {method: wakeup.simulate(model, scenario, method) for method in wakeup.Method}
        comparison = wakeup.compare_traces(model, traces)
    except NfcBmsError as exc:
        raise UsageError(f"bad scenario: {exc}") from exc
    payload = {"command": "wakeup-sim", "comparison": comparison}
    if args.method != "both":
        selected = comparison["methods"][args.method]
        payload["method"] = args.method
        payload["avg_power_uw"] = selected["avg_power_uw"]
        payload["idle_power_uw"] = selected["idle_power_uw"]
        if args.trace_out is not None:
            trace = traces[wakeup.Method(args.method)]
            try:
                Path(args.trace_out).write_text(trace.to_jsonl() + "\n", encoding="utf-8")
            except OSError as exc:
                raise UsageError(f"cannot write trace file: {exc}") from exc

    def text(p):
        lines = []
        for name, m in p["comparison"]["methods"].items():
            lines.append(
                f"{name}: idle {m['idle_power_uw']:.2f} uW, avg {m['avg_power_uw']:.2f} uW, "
                f"wake-up {m['wakeup_latency_ms']} ms"
            )
        lines.append(f"always-on baseline: {p['comparison']['always_on_baseline_uw']:.2f} uW")
        lines.append(f"lower power: {p['comparison']['lower_avg_power']}, "
                     f"lower latency: {p['comparison']['lower_wakeup_latency']}")
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_OK


# --- attack ---


def cmd_attack(args) -> int:
    if args.runs < 1:
        raise UsageError(f"--runs must be at least 1, got {args.runs}")
    strategies = adversary.STRATEGY_NAMES if args.strategy == "all" else (args.strategy,)
    report = adversary.run_attack_suite(args.seed, args.runs, strategies=strategies)
    payload = {"command": "attack", "report": report.to_json()}

    def text(p):
        lines = [f"attack suite seed={p['report']['seed']}: "
                 f"{p['report']['total_successes']} successes"]
        for name, s in p["report"]["strategies"].items():
            demo = s.get("demo") or {}
            ff = demo.get("first_failure")
            where = f"blocked at message {ff['message']} ({ff['error']})" if ff else "passive"
            lines.append(f"  {name}: {where}; {s['runs']} runs, "
                         f"{s['successes']} successes, {s['leaks']} leaks")
        return "\n".join(lines)

    _emit(args, payload, text)
    return EXIT_OK if report.total_successes == 0 else EXIT_PROTOCOL


# --- ban-verify ---


def _bundled(name: str) -> str:
    return resources.files("nfcbms.data").joinpath(name).read_text(encoding="utf-8")


def cmd_ban_verify(args) -> int:
    if args.max_depth < 1:
        raise UsageError(f"--max-depth must be at least 1, got {args.max_depth}")
    # the files are read as text (parse=str) and parsed here: goals need the protocol's symbols
    try:
        spec = ban.parse_protocol(
            _read_input(args.protocol, "input file", str) if args.protocol is not None
            else _bundled("handshake.ban")
        )
        goals = spec.goals if args.goals is None else ban.parse_goals(
            _read_input(args.goals, "input file", str), spec.symbols)
    except ban.ParseError as exc:
        raise UsageError(f"parse error: {exc}") from exc
    if not goals:  # nothing to derive would be a vacuous pass
        raise UsageError("no goals: " + ("the goals file has none" if args.goals is not None else
                                         "the protocol has no goal lines and no --goals file was given"))

    result = ban.verify_protocol(spec, goals, max_depth=args.max_depth)
    payload = {"command": "ban-verify", "result": ban.result_to_json(result)}
    _emit(args, payload, lambda p: ban.render_result(result))
    return EXIT_OK if isinstance(result, ban.ProofTrace) else EXIT_VERIFY


# --- parser ---


def _add_global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    # the same flags exist on the main parser and on every subparser so
    # they may appear on either side of the subcommand; the subparser
    # copies default to SUPPRESS so they never clobber values parsed
    # before the subcommand
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=dflt(0), help="deterministic RNG seed")
    parser.add_argument("--key", default=dflt(None), help="master key as 32 hex chars")
    parser.add_argument("--key-file", default=dflt(None), help="file containing the master key hex")
    parser.add_argument("--format", choices=("json", "text"), default=dflt("json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfcbms",
        description="Secure wireless BMS readout simulator",
    )
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_global_flags(p, suppress=True)
        p.set_defaults(fn=fn)
        return p

    p = command("handshake", cmd_handshake, "run one honest handshake")
    p.add_argument("--controller-key", help="override the controller's key (hex)")

    p = command("readout", cmd_readout, "secure diagnostic readout into the passport store")
    p.add_argument("--mode", choices=("idle", "active"), required=True)
    p.add_argument("--reports", required=True, help="JSON file with BPC reports")
    p.add_argument("--store", default=str(passport.default_store_path()))

    p = command("history", cmd_history, "query the passport store for one pack")
    p.add_argument("pack_id", help="pack id (hex)")
    p.add_argument("--store", default=str(passport.default_store_path()))

    p = command("wakeup-sim", cmd_wakeup_sim, "compare the wake-up designs")
    p.add_argument("--method", choices=("ed", "eh", "both"), default="both")
    p.add_argument("--days", type=float, help="storage duration (default 1; not with --scenario)")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--model", help="power model overrides (JSON file)")
    p.add_argument("--trace-out", help="write the event trace as JSON lines")

    p = command("attack", cmd_attack, "run the adversary suite")
    p.add_argument(
        "--strategy",
        choices=adversary.STRATEGY_NAMES + ("all",),
        default="all",
    )
    p.add_argument("--runs", type=int, default=adversary.RUNS_PER_STRATEGY)

    p = command("ban-verify", cmd_ban_verify, "re-derive the protocol goals")
    p.add_argument("--protocol", help="protocol file (default: bundled handshake)")
    p.add_argument("--goals", help="goals file (default: the protocol's goal lines)")
    p.add_argument("--max-depth", type=int, default=16)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.key is not None and args.key_file is not None:
            raise UsageError("give --key or --key-file, not both")
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StoreError as exc:
        print(f"store error: {exc}", file=sys.stderr)
        return EXIT_STORE
    except NfcBmsError as exc:
        print(f"protocol error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
