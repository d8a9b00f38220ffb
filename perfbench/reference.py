"""Reference worker: runs workload calls on the frozen v0 copy of invreg.

    python3 perfbench/reference.py WORKLOAD SIZE SEED RUN_DIR

``reference/invreg`` is a byte-identical copy of ``src/invreg`` at v0.  For
each line read from standard input the worker runs one call of the workload
with ``--workers 1`` and answers with one JSON line ``{"elapsed", "ok"}``.
It exits at end of input.  The benchmark alternates these calls with calls
of the code under test, so both sides see the same host speed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "reference"))

import invreg.cli as cli  # noqa: E402
from workloads import WORKLOADS, run_call  # noqa: E402


def main() -> int:
    name, size, seed, run_dir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
    # the v0 side is only timed, so it skips the direct-call digests
    workload = dataclasses.replace(WORKLOADS[name], values=None)
    for _ in sys.stdin:
        call = run_call(cli, workload, run_dir, size, seed, workers=1)
        print(json.dumps({"elapsed": call.elapsed, "ok": call.ok}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
