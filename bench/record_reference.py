"""Record the claim-suite or campaigns permutation reference.

Usage: python3 bench/record_reference.py WORKLOAD FIRST LAST

WORKLOAD is claim-suite or campaigns.  Runs its first operation in
process for every seed from FIRST to LAST inclusive and stores one
digest per campaign of its tracked permutations in bench/reference.json,
merged with the seeds already there.  Record only from a commit whose
permutations are trusted: the benchmark counts any later difference as a
failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in ("claim-suite", "campaigns"):
        print(__doc__, file=sys.stderr)
        return 2
    name, first, last = argv[0], int(argv[1]), int(argv[2])
    setup = workloads.set_up(rounds=1)
    seeds = workloads.load_reference(name)
    for seed in range(first, last + 1):
        suite = workloads.WORKLOADS[name](setup, seed, reference={})
        suite.run_one(0)
        seeds[str(seed)] = workloads.perm_digests(suite.results[0])
        print(json.dumps({"seed": seed, "suite_s": round(suite.times[0], 3),
                          "wrong_verdicts": suite.wrong_verdicts,
                          "loops": suite.loops, "loop_failures": suite.loop_failures}),
              flush=True)
        data = (json.loads(workloads.REFERENCE_FILE.read_text())
                if workloads.REFERENCE_FILE.is_file() else {"budget": workloads.BUDGET})
        data[name] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
        workloads.REFERENCE_FILE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
