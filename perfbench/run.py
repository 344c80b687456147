"""nfcbms benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload bulk_stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Each workload runs one client in one process: the next op starts when the
previous one has finished and its output has been checked.  Workloads:

* ``handshake_storm``: honest sessions carrying zero or one small idle
  packet; the handshake is the cost.
* ``bulk_stream``: honest sessions streaming twelve active-diagnostic
  packets from 34 B up to the 8 KB NDEF cap; record sealing, codecs and
  the link-side secrecy scan are the cost.
* ``attack_gauntlet``: one adversary run per op, each against a fresh
  master key, timed in calls of 16 runs of each of the five strategies;
  the rejection paths are the cost.
* ``cli_mix``: the operator's command mix through ``cli.main``, plus cold
  ``python -m nfcbms.cli`` runs; the only user of passport, wakeup, ban
  and cli.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces about
every other call and prints the per-layer metrics, the layer probes and the
tracing overhead.  The last line of standard output is the result object;
the line before it holds the environment stamp, the input digest, the
tail percentile with its sample count, unadjusted medians and
per-command figures.  Both are also written under ``perfbench/_out/``,
with the trace spans of the last traced run of each workload.

Op times are adjusted for the slow phases of a shared machine by a
fixed exponent per workload, as ``calib.py`` explains; ``setup_s`` is
not adjusted.  ``ops_per_s`` counts time inside ops only, not the output
checks between them.  In ``cli_mix`` the
cold-start subprocesses run outside this process, so the trace books
them as driver remainder.

Related entry points: ``profile_workload.py`` (cProfile of one workload's
ops), ``record_attack_digests.py`` (re-record the attack_gauntlet gate),
and the benchmark's own tests: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
from array import array
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
TAIL_BEYOND = 10
TAIL_CHUNK = 200  # samples per tail estimate: p95 has ten samples beyond it
SETUP_REPS = 7
READY = "perfbench-ready"
OK, TRACED = 1, 2


def _import_program():
    """Import nfcbms from this checkout's ``src`` and nowhere else."""
    if not (SRC / "nfcbms" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nfcbms sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import nfcbms

    if Path(nfcbms.__file__).resolve().parent != SRC / "nfcbms":
        sys.exit(f"perfbench: imported nfcbms from {nfcbms.__file__}, not from {SRC}")


_import_program()

import calib  # noqa: E402
import cryptography  # noqa: E402
from cryptography.hazmat.backends.openssl import backend  # noqa: E402
import layers  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _chunk_tail(samples: list) -> tuple:
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(n // 2, TAIL_BEYOND)
    return 100.0 * (n - beyond) / n, ordered[n - 1 - beyond]


def tail(samples: list) -> tuple:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample; below 21 samples, the median.  A
    run with more than ``TAIL_CHUNK`` samples is cut into consecutive
    chunks of at least that many, and the median of the chunks' figures
    is reported, p95 to p97.5.  Further out, the figure is set by stalls
    of the shared machine rather than by the program: in handshake_storm,
    the median of 1000-sample chunks (p99) spread 0.2 (IQR over median)
    from run to run, of 200-sample chunks 0.07.
    """
    n = len(samples)
    k = max(1, n // TAIL_CHUNK)
    chunks = [_chunk_tail(samples[i * n // k:(i + 1) * n // k]) for i in range(k)]
    return statistics.median(p for p, _ in chunks), statistics.median(v for _, v in chunks)


def env_stamp(store_dir: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    fstype, best = "unknown", ""
    target = str(store_dir.resolve())
    try:
        with open("/proc/self/mounts", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    fstype, best = fields[2], mount
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "openssl": backend.openssl_version_text(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "store_fs": fstype,
    }


def measure_setup(args) -> list:
    """Seconds from spawning a fresh benchmark process to its first timed op, per spawn."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                samples.append(time.perf_counter() - start)
                proc.stdout.read()
                if proc.wait(timeout=120) != 0 or line.strip() != READY:
                    raise RuntimeError("set-up process failed")
            except BaseException:
                proc.kill()
                raise
    return samples


def _traced(j: int) -> bool:
    """About every other call, in a pattern that shares no period with a workload's op mix."""
    return j == 1 or (j * 2654435761 >> 16) & 1 == 1


class Loop:
    """Timed closed loop over one workload; optionally traces every other call."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.speed = calib.Speed()
        # per call, compact so that the benchmark's own memory barely grows with call count
        self.starts = array("q")
        self.elapsed = array("q")
        self.payloads = array("q")  # verified diagnostic plaintext bytes
        self.flags = bytearray()  # OK | TRACED
        self.kinds = bytearray()  # index into kind_names
        self.kind_names: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, seconds: float) -> None:
        wl, tracer, clock = self.wl, self.tracer, time.perf_counter_ns
        per = wl.OPS_PER_CALL
        self.speed.sample(calib.MIN_SAMPLES)
        deadline = clock() + int(seconds * 1e9)
        min_calls = 2 if tracer else 1  # at least one call of each kind the report needs
        j = 0
        while j < min_calls or clock() < deadline:
            a = wl.args(j)
            traced = tracer is not None and _traced(j)
            ok, payload = True, 0
            if traced:
                tracer.install()
            try:
                start = clock()
                try:
                    out = tracer.op(j, wl.run, a) if traced else wl.run(a)
                except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
                    ok, out = False, exc
                elapsed = clock() - start
            finally:
                if traced:
                    tracer.uninstall()
            self.attempted += per
            if ok:
                try:
                    payload = wl.check(a, out)
                except (workloads.CheckFailed, KeyError, TypeError, ValueError) as exc:
                    ok, out = False, exc
            kind = wl.kind(a)
            if not ok:
                self.failed += per
                if len(self.errors) < 5:
                    self.errors.append(f"call {j} ({kind}): {out!r}")
            if kind not in self.kind_names:
                self.kind_names.append(kind)
            self.starts.append(start)
            self.elapsed.append(elapsed)
            self.payloads.append(payload)
            self.flags.append(OK * ok | TRACED * traced)
            self.kinds.append(self.kind_names.index(kind))
            self.speed.between_ops()
            j += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.speed.sample(calib.MIN_SAMPLES)
        for message, ops in wl.finish():
            self.failed += ops
            self.errors.append(message)
        self._per_op()

    def _per_op(self) -> None:
        """Adjusted per-op latencies of the untraced and the traced calls (see calib.py)."""
        per, gamma = self.wl.OPS_PER_CALL, self.wl.GAMMA
        self.scales = array("d", (
            self.speed.scale(start, start + elapsed, gamma)
            for start, elapsed in zip(self.starts, self.elapsed)
        ))
        self.latency_ns, self.traced_ns, self.raw_ns = [], [], []
        self.by_kind = defaultdict(list)
        self.payload = 0
        for j, (elapsed, flags, kind) in enumerate(zip(self.elapsed, self.flags, self.kinds)):
            # a failed op misses every latency limit
            value = elapsed * self.scales[j] / per if flags & OK else float("inf")
            if flags & TRACED:
                self.traced_ns.append(value)
                continue
            self.latency_ns.append(value)
            self.raw_ns.append(elapsed / per if flags & OK else float("inf"))
            self.by_kind[self.kind_names[kind]].append(value)
            self.payload += self.payloads[j]

    def busy_s(self) -> float:
        """Seconds spent in successful untraced ops (checks excluded)."""
        return max(sum(t for t in self.latency_ns if t != float("inf")) / 1e9, 1e-9)


def end_to_end(loop: Loop, setup: list) -> tuple:
    ok_ops = sum(1 for t in loop.latency_ns if t != float("inf"))
    pct, tail_ns = tail(loop.latency_ns)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ok_ops / loop.busy_s(), "1/s"),
        "op_p50_ms": (statistics.median(loop.latency_ns) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "peak_rss_mb": (loop.peak_rss_mb, "MB"),
    }
    info = {
        "raw_op_p50_ms": statistics.median(loop.raw_ns) / 1e6,
        "gamma": loop.wl.GAMMA,
        "median_reference_us": statistics.median(loop.speed.costs) / 1e3,
        "tail_percentile": pct,
        "samples": len(loop.latency_ns),
        "setup_s_samples": setup,
        "failed_ratio": loop.failed / max(loop.attempted, 1),
    }
    return metrics, info


def command_figures(loop: Loop) -> dict:
    """Figures a user of one command sees; zero where the workload has none."""
    kinds = loop.by_kind

    def p50(kind):
        return statistics.median(kinds[kind]) / 1e6 if kinds.get(kind) else 0.0

    return {
        "payload_mb_per_s": (loop.payload / 1e6 / loop.busy_s(), "MB/s"),
        "readout_p50_ms": (p50("readout"), "ms"),
        "history_p50_ms": (p50("history"), "ms"),
        "wakeup_sim_p50_ms": (p50("wakeup_sim"), "ms"),
        "ban_verify_p50_ms": (p50("ban_verify"), "ms"),
        "cold_start_ms": (p50("cold_start"), "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.setup_only:
            print(READY, flush=True)
            return 0
        own_setup = time.perf_counter() - STARTED
        tracer = tracing.Tracer() if args.trace else None
        loop = Loop(wl, tracer)
        loop.run(args.seconds)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "input_digest": wl.digest,
            "env": env_stamp(workdir),
            "errors": loop.errors,
            "own_setup_s": own_setup,
            **wl.info(),
        }
        if args.trace:
            metrics = layers.layer_metrics(loop, tracer)
            metrics.update(command_figures(loop))
            metrics.update({k: (v, layers.PROBE_UNITS[k]) for k, v in probes.run_probes(workdir, SRC).items()})
            info["traced_ops"] = len(loop.traced_ns)
            info["untraced_ops"] = len(loop.latency_ns)
            OUT.mkdir(parents=True, exist_ok=True)
            trace_path = OUT / f"trace-{args.workload}.jsonl"
            tracer.write(trace_path)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            metrics, extra = end_to_end(loop, measure_setup(args))
            info.update(extra)
            info["commands"] = {k: v for k, (v, _) in command_figures(loop).items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            # a failed op has infinite latency; keep the line valid JSON
            name: {"value": value if math.isfinite(value) else sys.float_info.max, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; prints each metric with its unit."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.4f} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
