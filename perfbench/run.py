"""Benchmark of the invreg CLI: one workload per invocation.

    python3 perfbench/run.py --workload rates-hat --seed 1 --seconds 33 --trace 0

Runs from the root of a source checkout (``src/invreg`` next to this
directory); nothing needs building.  The workload's CLI commands run
in-process through ``invreg.cli.main`` with ``--workers 1``, alternating
with calls of the frozen v0 code in a worker process, until ``--seconds``
have passed.  Every call's output files are hashed: against the digests
recorded in ``digests.json`` for this seed and size, or, at an unrecorded
seed, against the first successful call of the run.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracer.py``).  The last line of standard
output is the result object; the line before it holds the environment,
the digests and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread unless the caller sets otherwise (before numpy loads): on
# a small shared host an idle BLAS thread spins on the second core and the
# timings spread more.  The recorded digests are for one thread; at 10240
# modes the outputs depend on the thread count (see README.md).
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, run_call  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
REFERENCE_SRC = HERE / "reference"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_PAIRS = 3
SETUP_PAIRS = 12
SETUP_PROBE = "import time, invreg.cli; print(repr(time.monotonic()))"


def setup_time(src: Path) -> float:
    """Seconds from spawning a fresh interpreter to ``invreg.cli`` (from
    ``src``) being imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1]) - start


def measure_setup() -> list[tuple[float, float, bool]]:
    """SETUP_PAIRS samples of (set-up seconds, v0 set-up seconds, v0 first),
    the two sides in alternating order, after one unsampled spawn of each
    side.  The first spawn of a series runs slow, hence the warm-up."""
    for src in (SRC, REFERENCE_SRC):
        setup_time(src)
    pairs = []
    for i in range(SETUP_PAIRS):
        order = (REFERENCE_SRC, SRC) if i % 2 else (SRC, REFERENCE_SRC)
        times = {src: setup_time(src) for src in order}
        pairs.append((times[SRC], times[REFERENCE_SRC], i % 2 == 1))
    return pairs


def paired_ratio(pairs) -> float:
    """Ratio of two sides from (numerator, denominator, order) samples: the
    geometric mean of the median ratio in each order.  Whichever side runs
    second in a pair tends to run at another speed; an even mix of the two
    orders gives a two-humped spread whose median jumps between the humps,
    while the mean of the two orders' medians cancels the order effect."""
    medians = [statistics.median(n / d for n, d, o in pairs if o == order)
               for order in {o for _, _, o in pairs}]
    return math.prod(medians) ** (1.0 / len(medians)) if medians else 0.0


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
    }


class DigestGate:
    """Counts calls and failed calls: a call fails when it exits non-zero,
    its outputs fail their checks, or its digests differ from the reference."""

    def __init__(self, recorded: dict | None) -> None:
        self.recorded = recorded is not None
        self.reference = recorded
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def admit(self, call) -> bool:
        self.attempted += 1
        if call.ok and self.reference is None:
            self.reference = call.digests
        ok = call.ok and call.digests == self.reference
        if not ok:
            self.failed += 1
            self.problems.extend(call.problems or [f"digest mismatch: {call.digests}"])
        return ok


def recorded_digests(workload, seed: int) -> dict | None:
    entry = json.loads(DIGESTS.read_text()).get(workload.name, {})
    if entry.get("size") != workload.size:
        return None
    return entry.get("seeds", {}).get(str(seed))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Reference:
    """The worker that runs the workload on the frozen v0 code (reference.py)."""

    def __init__(self, workload, size: int, seed: int, run_dir: Path) -> None:
        argv = [sys.executable, str(HERE / "reference.py"), workload.name, str(size), str(seed),
                str(run_dir / "reference")]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def call(self) -> float:
        """Seconds of one reference call."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line or not json.loads(line)["ok"]:
            raise RuntimeError("the v0 reference call failed")
        return json.loads(line)["elapsed"]


def timed_run(cli, workload, run_dir: Path, size: int, seed: int, seconds: float, gate) -> tuple[dict, dict]:
    """End-to-end metrics: the ratio (v0 call time) / (call time) over call
    pairs, the median set-up time, its ratio to the v0 set-up time (both
    ratios by ``paired_ratio``), and the peak RSS of this process.

    Each pair runs one call of the code under test and one of the frozen v0
    code, in alternating order, until the time is up.  The speed of a small
    shared host drifts by a third and more within minutes; both sides of a
    pair see the same speed, so their ratio holds still where the raw times
    do not (see README.md)."""
    if hasattr(os, "sched_setaffinity"):
        # Both sides, and the set-up spawns, run on one CPU (children inherit
        # it): the CPUs of a shared host run at different speeds, so a pair
        # whose sides ran on two CPUs compares the CPUs as much as the code.
        # The sides never run at once, so sharing the CPU costs them nothing.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setups = measure_setup()
    pairs = []  # (seconds of the call, seconds of the v0 call, v0 first)
    with Reference(workload, size, seed, run_dir) as reference:
        deadline = time.monotonic() + seconds
        while True:
            round_start = time.monotonic()
            reference_first = gate.attempted % 2 == 1
            t_reference = reference.call() if reference_first else None
            call = run_call(cli, workload, run_dir, size, seed, workers=1)
            if not reference_first:
                t_reference = reference.call()
            if gate.admit(call):
                pairs.append((call.elapsed, t_reference, reference_first))
            now = time.monotonic()
            if gate.attempted >= MIN_PAIRS and deadline - now < now - round_start:
                break
    units = workload.units(size)
    metrics = {
        "speedup_vs_v0": metric(paired_ratio([(r, t, o) for t, r, o in pairs]), "ratio"),
        "setup_s": metric(statistics.median(t for t, _, _ in setups), "s"),
        "setup_vs_v0": metric(paired_ratio(setups), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {
        "units_per_s": statistics.median(units / t for t, _, _ in pairs) if pairs else 0.0,
        "v0_units_per_s": statistics.median(units / r for _, r, _ in pairs) if pairs else 0.0,
        "call_s": [t for t, _, _ in pairs],
        "v0_call_s": [r for _, r, _ in pairs],
        "setup_s": [t for t, _, _ in setups],
        "v0_setup_s": [r for _, r, _ in setups],
    }
    return metrics, samples


def traced_run(cli, workload, run_dir: Path, size: int, seed: int, seconds: float, gate) -> tuple[dict, dict]:
    """Per-layer metrics: after one warm-up call, repeat (untraced at
    --workers 1, untraced at --workers nproc, traced at --workers 1) until
    the time is up; spans go to ``spans.jsonl`` in the run directory."""
    nproc = os.cpu_count() or 1
    spans_path = run_dir / "spans.jsonl"
    spans_path.unlink(missing_ok=True)
    tracer = Tracer()
    gate.admit(run_call(cli, workload, run_dir, size, seed, workers=1))
    deadline = time.monotonic() + seconds
    serial, parallel, traced = [], [], []
    while True:
        round_start = time.monotonic()
        for workers, trace, times in ((1, False, serial), (nproc, False, parallel), (1, True, traced)):
            if trace:
                with tracer:
                    call = run_call(cli, workload, run_dir, size, seed, workers)
                tracer.drain(spans_path)
            else:
                call = run_call(cli, workload, run_dir, size, seed, workers)
            gate.admit(call)
            times.append(call.elapsed)
        if deadline - time.monotonic() < time.monotonic() - round_start:
            break
    units = workload.units(size)
    t_serial, t_parallel, t_traced = (statistics.median(t) for t in (serial, parallel, traced))
    metrics = tracer.layer_metrics(units * len(traced))
    metrics["montecarlo.speedup_workers_nproc"] = metric(t_serial / t_parallel, "ratio")
    metrics["montecarlo.workers_1_ms_per_unit"] = metric(1000.0 * t_serial / units, "ms/unit")
    metrics["montecarlo.workers_nproc_ms_per_unit"] = metric(1000.0 * t_parallel / units, "ms/unit")
    metrics["trace.overhead_share"] = metric((t_traced - t_serial) / t_serial, "share")
    missing = {name for name, _, _ in PER_LAYER} - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    samples = {"workers_1_s": serial, "workers_nproc_s": parallel, "traced_s": traced, "nproc": nproc}
    return metrics, samples


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: int | None = None) -> dict:
    """Run one workload and return the full report; ``size`` overrides the
    workload's run length (used by the tests)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import invreg.cli as cli

    workload = WORKLOADS[workload_name]
    size = workload.size if size is None else size
    run_dir = WORK / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    gate = DigestGate(recorded_digests(workload, seed) if size == workload.size else None)
    measure = traced_run if trace else timed_run
    metrics, samples = measure(cli, workload, run_dir, size, seed, seconds, gate)
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    return {
        "result": {
            "correct": gate.failed == 0,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": metrics,
        },
        "details": {
            "workload": workload.name,
            "seed": seed,
            "size": size,
            "units_per_call": workload.units(size),
            "failed_share": gate.failed / gate.attempted,
            "digests_recorded": gate.recorded,
            "digests": gate.reference,
            "problems": gate.problems[:10],
            "samples": samples,
            "environment": environment(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invreg" / "cli.py").is_file():
        print(f"perfbench: no invreg sources under {SRC}", file=sys.stderr)
        return 2
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report["details"], sort_keys=True))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
