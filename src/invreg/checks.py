"""Randomized invariant suite for the filter families.

Checks, over seeded random (alpha, lambda) pairs:
  * ordered monotonicity of alpha -> q_alpha(lambda),
  * the filter bounds alpha|q| <= C' and lambda|q| <= C'',
  * the range 0 <= s_alpha <= 1,
  * the Tikhonov qualification bound lambda^v |1 - s| <= v^v (1-v)^(1-v) alpha^v.

Each family's checks run on whole arrays of pairs, checked once per
family, and the qualification sweep forms s over 25 alphas x 2001 lambdas
a few rows at a time, each row equal to ``s_value`` at its alpha bit for
bit.  The pairs are held to the memory budget of the studies.

Used by both the test suite and the ``invreg filters-check`` command.
"""

from __future__ import annotations

import numpy as np

from .filters import ALL_FAMILIES, FilterSpec, _check_args, _evaluate
from .model import _generator
from .montecarlo import _SCORER_BUDGET

__all__ = ["run_filter_checks"]

# comparisons allow this relative slack for rounding in the stable forms
_REL_EPS = 1e-9
# bytes per pair of a call's arrays: tracemalloc reads about 89 from 10^4 pairs up
_PAIR_BYTES = 96
# alphas per block of the qualification sweep: its two (rows, 2001) blocks
# each stay below glibc's 128 KiB mmap threshold, so they reuse heap pages
_SWEEP_ROWS = 4


def _count(violated: np.ndarray) -> int:
    return int(np.count_nonzero(violated))


def run_filter_checks(pairs_per_family: int = 1000, seed: int = 20240901) -> dict:
    """Run the invariant suite; returns per-check violation counts.  A seed
    outside [0, 2^64) is taken mod 2^64, as the studies take theirs.  A
    pair count whose arrays would not fit the memory budget raises ValueError."""
    if pairs_per_family * _PAIR_BYTES > _SCORER_BUDGET:
        raise ValueError(f"pairs = {pairs_per_family} needs over {_SCORER_BUDGET} bytes, the memory budget")
    rng = _generator(seed)
    report: dict[str, dict[str, int]] = {}

    for spec in ALL_FAMILIES(m=3):
        # Landweber demands ||T|| <= 1; use the same domain for all
        lams = rng.uniform(0.0, 1.0, size=pairs_per_family)
        alphas = 10.0 ** rng.uniform(-6, 1, size=pairs_per_family)
        alphas2 = alphas * 10.0 ** rng.uniform(-3, 0, size=pairs_per_family)  # alphas2 <= alphas
        # one check of each family's draws; then element i of each array is
        # filter_value or s_value at (alphas[i], lams[i]), bit for bit
        lams = _check_args(spec, alphas2, _check_args(spec, alphas, lams))
        q_hi = _evaluate(spec, alphas, lams, False, np.empty_like(lams))
        q_lo = _evaluate(spec, alphas2, lams, False, np.empty_like(lams))
        s = _evaluate(spec, alphas, lams, True, np.empty_like(lams))
        violations = {
            "ordered": _count((alphas > alphas2) & (q_hi > q_lo * (1 + _REL_EPS) + 1e-300)),
            "bound_alpha": _count(alphas * np.abs(q_hi) > spec.c_prime * (1 + _REL_EPS)),
            "bound_lambda": _count(lams * np.abs(q_hi) > spec.c_double_prime * (1 + _REL_EPS)),
            # written as a negated range so that a NaN counts as a violation
            "s_range": _count(~((-_REL_EPS <= s) & (s <= 1 + _REL_EPS))),
        }
        report[f"{spec.family}" + (f"(m={spec.m})" if spec.family == "iterated_tikhonov" else "")] = violations

    # Tikhonov qualification at v in {0.25, 0.5, 1}: max of lambda^v |1 - s|
    # per alpha (row) against c_v alpha^v, from s-blocks of _SWEEP_ROWS alphas
    tik, exponents = FilterSpec("tikhonov"), (0.25, 0.5, 1.0)
    alphas = 10.0 ** np.linspace(-6, 0, 25)
    lam_grid = _check_args(tik, alphas[:, None], np.linspace(0.0, 1.0, 2001))
    powers = [lam_grid**v for v in exponents]
    # c_v = v^v (1 - v)^(1 - v), which is 1 at v = 1 since 0.0 ** 0.0 == 1.0
    bounds = [np.array([v**v * (1 - v) ** (1 - v) * a**v * (1 + _REL_EPS) for a in alphas]) for v in exponents]
    gap, scaled = np.empty((2, _SWEEP_ROWS, lam_grid.size))
    qual_violations = 0
    for lo in range(0, alphas.size, _SWEEP_ROWS):
        block = _evaluate(tik, alphas[lo : lo + _SWEEP_ROWS, None], lam_grid, True, gap[: alphas.size - lo])
        np.abs(np.subtract(1.0, block, out=block), out=block)
        for power, bound in zip(powers, bounds):
            weighted = np.multiply(power, block, out=scaled[: len(block)])
            qual_violations += _count(np.max(weighted, axis=1) > bound[lo : lo + len(block)])
    report["tikhonov_qualification"] = {"qualification": qual_violations}
    report["total_violations"] = sum(sum(v.values()) for k, v in report.items() if isinstance(v, dict))
    return report
