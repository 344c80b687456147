"""Record the attack_gauntlet digests that later runs are checked against.

For each seed, the digest covers the per-strategy blocked_at/errors
histograms of the workload's first ``DIGEST_PREFIX_CALLS`` calls.  Re-record
only when a change to the adversary is meant to change those outcomes.

    python3 perfbench/record_attack_digests.py --seeds 128
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import DIGEST_FILE, DIGEST_PREFIX_CALLS, AttackGauntlet, attack_outcome  # noqa: E402


def prefix_digest(seed: int) -> str:
    wl = AttackGauntlet(seed, Path("."))
    digest = hashlib.sha256()
    for j in range(DIGEST_PREFIX_CALLS):
        outcome = [row for report in wl.run(wl.args(j)) for row in attack_outcome(report)]
        digest.update(json.dumps(outcome).encode())
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=128, help="record seeds 0..N-1")
    args = parser.parse_args()
    table = {
        "prefix_calls": DIGEST_PREFIX_CALLS,
        "runs_per_strategy": AttackGauntlet.RUNS,
        "digests": {str(s): prefix_digest(s) for s in range(args.seeds)},
    }
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
