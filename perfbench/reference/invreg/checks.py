"""Randomized invariant suite for the filter families.

Checks, over seeded random (alpha, lambda) pairs:
  * ordered monotonicity of alpha -> q_alpha(lambda),
  * the filter bounds alpha|q| <= C' and lambda|q| <= C'',
  * the range 0 <= s_alpha <= 1,
  * the Tikhonov qualification bound lambda^v |1 - s| <= v^v (1-v)^(1-v) alpha^v.

Used by both the test suite and the ``invreg filters-check`` command.
"""

from __future__ import annotations

import numpy as np

from .filters import ALL_FAMILIES, FilterSpec, filter_value, s_value

__all__ = ["run_filter_checks"]

# comparisons allow this relative slack for rounding in the stable forms
_REL_EPS = 1e-9


def _random_alphas(rng, n) -> np.ndarray:
    return 10.0 ** rng.uniform(-6, 1, size=n)


def run_filter_checks(pairs_per_family: int = 1000, seed: int = 20240901) -> dict:
    """Run the invariant suite; returns per-check violation counts."""
    rng = np.random.Generator(np.random.PCG64(seed))
    report: dict[str, dict[str, int]] = {}

    for spec in ALL_FAMILIES(m=3):
        lam_max = 1.0  # Landweber demands ||T|| <= 1; use the same domain for all
        violations = {"ordered": 0, "bound_alpha": 0, "bound_lambda": 0, "s_range": 0}
        lams = rng.uniform(0.0, lam_max, size=pairs_per_family)
        alphas = _random_alphas(rng, pairs_per_family)
        alphas2 = alphas * 10.0 ** rng.uniform(-3, 0, size=pairs_per_family)  # alphas2 <= alphas

        for lam, a_hi, a_lo in zip(lams, alphas, alphas2):
            q_hi = filter_value(spec, a_hi, lam)
            q_lo = filter_value(spec, a_lo, lam)
            if a_hi > a_lo and q_hi > q_lo * (1 + _REL_EPS) + 1e-300:
                violations["ordered"] += 1
            if a_hi * abs(q_hi) > spec.c_prime * (1 + _REL_EPS):
                violations["bound_alpha"] += 1
            if lam * abs(q_hi) > spec.c_double_prime * (1 + _REL_EPS):
                violations["bound_lambda"] += 1
            s = s_value(spec, a_hi, lam)
            if not (-_REL_EPS <= s <= 1 + _REL_EPS):
                violations["s_range"] += 1
        report[f"{spec.family}" + (f"(m={spec.m})" if spec.family == "iterated_tikhonov" else "")] = violations

    # Tikhonov qualification at v in {0.25, 0.5, 1}
    tik = FilterSpec("tikhonov")
    lam_grid = np.linspace(0.0, 1.0, 2001)
    qual_violations = 0
    for v in (0.25, 0.5, 1.0):
        c_v = v**v * (1 - v) ** (1 - v) if v < 1 else 1.0
        for a in 10.0 ** np.linspace(-6, 0, 25):
            lhs = np.max(lam_grid**v * np.abs(1.0 - s_value(tik, a, lam_grid)))
            if lhs > c_v * a**v * (1 + _REL_EPS):
                qual_violations += 1
    report["tikhonov_qualification"] = {"qualification": qual_violations}
    report["total_violations"] = sum(sum(v.values()) for k, v in report.items() if isinstance(v, dict))
    return report
