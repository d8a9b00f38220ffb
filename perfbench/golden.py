"""Opt-in full-size check of the golden digests of the paper studies.

    python3 perfbench/golden.py

Runs the hat and indicator rate studies (7 noise levels x 200 replications,
1024 modes, Tikhonov) and the efficiency study (6 x 500, 300 modes) through
the CLI with master seed 20240901 and ``--workers 1``, then compares the
five output tables with their golden sha256 digests.  Prints one JSON
object saying which match; exits 0 only if all do.  About 1.5 to 2 minutes
on a 2-core x86 host at the seed code.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import SRC, WORK
from workloads import DEFAULT_SEED, efficiency_config, rates_config, sha256

GOLDEN = {
    "hat": ("simulate-rates", rates_config("hat", "tikhonov", 1024, 200), {
        "risk_table.csv": "64b31c0e0e20b8fae015afaf16ea8bd17c67c7107c856ea58d52974d50bee58e",
        "per_rep_errors.csv": "770e2835a022bfe0682f733ad89620c29a1345a65d9b2e460c4940f3093f2244",
    }),
    "indicator": ("simulate-rates", rates_config("indicator", "tikhonov", 1024, 200), {
        "risk_table.csv": "a2af32e450bdbae7f8a0ac3b24c102804a7c4c17ecec307bdeb0c8359890c7b3",
        "per_rep_errors.csv": "481b4e47c1359f47646af3fd52ae1cc35ab994f5ba0536121708abeed8c54375",
    }),
    "efficiency": ("simulate-efficiency", efficiency_config(500), {
        "efficiency.csv": "c70a884ce0e00cb1d64a3438e1272c800021c3486cfead372b4103ecc30c302f",
    }),
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import invreg.cli as cli

    report = {}
    for study, (command, config, expected) in GOLDEN.items():
        out = WORK / "golden" / study
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(config))
        start = time.perf_counter()
        code = cli.main([command, "--config", str(config_path), "--out", str(out),
                         "--seed", str(DEFAULT_SEED), "--workers", "1"])
        elapsed = time.perf_counter() - start
        for name, digest in expected.items():
            path = out / name
            got = sha256(path) if code == 0 and path.is_file() else None
            report[f"{study}/{name}"] = {"match": got == digest, "sha256": got, "seconds": round(elapsed, 2)}
    shutil.rmtree(WORK / "golden")
    ok = all(entry["match"] for entry in report.values())
    print(json.dumps({"all_match": ok, "tables": report}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
