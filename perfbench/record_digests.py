"""Record the output digests that the benchmark checks its calls against.

    python3 perfbench/record_digests.py

Runs one call of every workload at its benchmark size for the default seed
and seeds 0 to 32, and rewrites ``digests.json``.  The digests are the
reference behaviour: record them only from code whose outputs are known to
be right, and justify any change to them.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import DIGESTS, SRC, WORK
from workloads import DEFAULT_SEED, WORKLOADS, run_call

SEEDS = [DEFAULT_SEED, *range(33)]


def main() -> int:
    sys.path.insert(0, str(SRC))
    import invreg.cli as cli

    recorded = {}
    for workload in WORKLOADS.values():
        run_dir = WORK / f"record-{workload.name}"
        seeds = {}
        for seed in SEEDS:
            call = run_call(cli, workload, run_dir, workload.size, seed, workers=1)
            if not call.ok:
                print(f"{workload.name} seed {seed}: {call.problems}", file=sys.stderr)
                return 1
            seeds[str(seed)] = call.digests
        shutil.rmtree(run_dir)
        recorded[workload.name] = {"size": workload.size, "seeds": seeds}
        print(f"{workload.name}: {len(seeds)} seeds", file=sys.stderr)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
