"""Randomized invariant suite for the filter families.

Checks, over seeded random (alpha, lambda) pairs:
  * ordered monotonicity of alpha -> q_alpha(lambda),
  * the filter bounds alpha|q| <= C' and lambda|q| <= C'',
  * the range 0 <= s_alpha <= 1,
  * the Tikhonov qualification bound lambda^v |1 - s| <= v^v (1-v)^(1-v) alpha^v.

Each family's checks run on whole arrays of pairs, and the qualification
sweep is one block of s over 25 alphas x 2001 lambdas, each row equal to
``s_value`` at its alpha bit for bit.

Used by both the test suite and the ``invreg filters-check`` command.
"""

from __future__ import annotations

import numpy as np

from .filters import ALL_FAMILIES, FilterSpec, _check_args, _evaluate, _pair_values
from .model import _generator

__all__ = ["run_filter_checks"]

# comparisons allow this relative slack for rounding in the stable forms
_REL_EPS = 1e-9


def _random_alphas(rng, n) -> np.ndarray:
    return 10.0 ** rng.uniform(-6, 1, size=n)


def _count(violated: np.ndarray) -> int:
    return int(np.count_nonzero(violated))


def run_filter_checks(pairs_per_family: int = 1000, seed: int = 20240901) -> dict:
    """Run the invariant suite; returns per-check violation counts.  A seed
    outside [0, 2^64) is taken mod 2^64, as the studies take theirs."""
    rng = _generator(seed)
    report: dict[str, dict[str, int]] = {}

    for spec in ALL_FAMILIES(m=3):
        # Landweber demands ||T|| <= 1; use the same domain for all
        lams = rng.uniform(0.0, 1.0, size=pairs_per_family)
        alphas = _random_alphas(rng, pairs_per_family)
        alphas2 = alphas * 10.0 ** rng.uniform(-3, 0, size=pairs_per_family)  # alphas2 <= alphas
        q_hi = _pair_values(spec, alphas, lams, False)
        q_lo = _pair_values(spec, alphas2, lams, False)
        s = _pair_values(spec, alphas, lams, True)
        violations = {
            "ordered": _count((alphas > alphas2) & (q_hi > q_lo * (1 + _REL_EPS) + 1e-300)),
            "bound_alpha": _count(alphas * np.abs(q_hi) > spec.c_prime * (1 + _REL_EPS)),
            "bound_lambda": _count(lams * np.abs(q_hi) > spec.c_double_prime * (1 + _REL_EPS)),
            # written as a negated range so that a NaN counts as a violation
            "s_range": _count(~((-_REL_EPS <= s) & (s <= 1 + _REL_EPS))),
        }
        report[f"{spec.family}" + (f"(m={spec.m})" if spec.family == "iterated_tikhonov" else "")] = violations

    # Tikhonov qualification at v in {0.25, 0.5, 1}: one s-block, a row per alpha
    tik = FilterSpec("tikhonov")
    lam_grid = np.linspace(0.0, 1.0, 2001)
    alphas = 10.0 ** np.linspace(-6, 0, 25)
    column = alphas[:, None]
    gap = _evaluate(tik, column, _check_args(tik, column, lam_grid), True, np.empty((alphas.size, lam_grid.size)))
    np.abs(np.subtract(1.0, gap, out=gap), out=gap)
    qual_violations = 0
    for v in (0.25, 0.5, 1.0):
        c_v = v**v * (1 - v) ** (1 - v) if v < 1 else 1.0
        bound = np.array([c_v * a**v * (1 + _REL_EPS) for a in alphas])
        qual_violations += _count(np.max(lam_grid**v * gap, axis=1) > bound)
    report["tikhonov_qualification"] = {"qualification": qual_violations}
    report["total_violations"] = sum(sum(v.values()) for k, v in report.items() if isinstance(v, dict))
    return report
