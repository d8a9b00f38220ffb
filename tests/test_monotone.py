"""Audit of the monotonicity that ``GridScorer``'s cut relies on.

The filters are ordered: s_alpha(lambda) and q_alpha(lambda) never grow
with alpha, and neither does p = sqrt(lambda) q.  The scorer forms only
the first grid rows a pick can lie in and bounds the rows above them
through the computed s, q and p, so it needs the computed values to be
non-increasing in alpha up to ``filters._MONOTONE_SLACK``: at alpha' >
alpha, a value exceeds its value at alpha by at most that share.

Two checks, on alphas built around each branch switch of ``_evaluate``:

- every pair of computed values along the alphas, directly;
- each computed value against the exact filter (``mpmath``, at the
  lambda and alpha the floats hold, and at the N = floor(1/alpha) that
  Landweber computes), within half of the slack, which bounds the rise
  between any two alphas of the case.

Tikhonov and spectral cut-off are compositions of correctly rounded
operations, each monotone, so they must show no rise at all.
"""

import math

import mpmath
import numpy as np
import pytest

from invreg.filters import _MONOTONE_SLACK, _TAYLOR_CUT, FilterSpec, _evaluate

U = 2.0**-53
FAMILIES = [FilterSpec(f) for f in ("spectral_cutoff", "tikhonov", "landweber", "showalter")] + [
    FilterSpec("iterated_tikhonov", m) for m in (1, 2, 3)
]
EXACT = {"spectral_cutoff", "tikhonov"}


def ulps(x: float, steps) -> np.ndarray:
    """The floats ``steps`` ulps away from x (negative: below), ascending."""
    out = []
    for k in sorted(steps):
        y = x
        for _ in range(abs(k)):
            y = np.nextafter(y, math.inf if k > 0 else 0.0)
        out.append(y)
    return np.array(out)


def taylor_switch(spec, rng):
    """Alphas within a few ulps of lambda / alpha = the Taylor switch (for
    Landweber, of N lambda = the switch), for lambdas over many decades."""
    cases = []
    landweber = spec.family == "landweber"
    for lam in 10.0 ** (rng.uniform(-30, -10, 12) if landweber else rng.uniform(-300, -0.5, 12)):
        if landweber:
            n_iter = math.floor(_TAYLOR_CUT / lam)
            alphas = np.sort(1.0 / (n_iter + np.arange(-3.0, 4.0)))
            alphas = np.concatenate([ulps(a, range(-2, 3)) for a in alphas])
        else:
            alphas = ulps(lam / _TAYLOR_CUT, range(-6, 7))
        cases.append((np.unique(alphas), np.array([lam, lam * (1 + 2.0**-40), 0.5 * lam])))
    return cases


def landweber_steps(spec, rng):
    """Alphas around 1/N, where N = floor(1/alpha) steps, for N from 1 to
    beyond 2^53, where consecutive N are a few ulps apart."""
    cases = []
    for n_iter in [1, 2, 3, 10, 1000] + [float(2**e) for e in (30, 52, 53, 60)]:
        alphas = np.concatenate([ulps(1.0 / n, range(-3, 4)) for n in (n_iter, n_iter + 1)])
        lams = np.concatenate([10.0 ** rng.uniform(-20, 0, 6), _TAYLOR_CUT / n_iter * (1 + 2.0**-30 * np.arange(-2, 3))])
        cases.append((np.unique(alphas), np.minimum(lams, 1.0)))
    return cases


def cutoff_edge(spec, rng):
    """Alphas within a few ulps of lambda, where the cut-off switches."""
    lams = 10.0 ** rng.uniform(-12, -0.5, 6)
    return [(ulps(lam, range(-4, 5)), np.array([lam, 2 * lam, 0.5 * lam])) for lam in lams]


def fine_grid(spec, rng):
    """Geometric grids of ratio 1 + 2^-40 to 1 + 2^-20 over lambdas of all scales."""
    cases = []
    for e in (40, 30, 20):
        alpha0 = 10.0 ** rng.uniform(-10, -1)
        alphas = alpha0 * (1.0 + 2.0**-e) ** np.arange(64)
        lams = np.concatenate([[0.0, 1.0], 10.0 ** rng.uniform(-14, 0, 24), alpha0 * _TAYLOR_CUT * np.array([0.5, 1.0, 2.0])])
        cases.append((alphas, np.minimum(lams, 1.0)))
    return cases


BUILDERS = [taylor_switch, landweber_steps, cutoff_edge, fine_grid]


def computed(spec, alphas, lams):
    """s, q and p = fl(sqrt(lambda) q) as the scorer forms them, one row per alpha."""
    shape = (len(alphas), len(lams))
    s = _evaluate(spec, alphas[:, None], lams, True, np.empty(shape))
    q = _evaluate(spec, alphas[:, None], lams, False, np.empty(shape))
    return {"s": s, "q": q, "p": q * np.sqrt(lams)}


def exact(spec, alpha: float, lam: float):
    """The exact s and q at the float alpha and lambda."""
    a, x = mpmath.mpf(alpha), mpmath.mpf(lam)
    if spec.family == "spectral_cutoff":
        s = mpmath.mpf(lam >= alpha)
    elif spec.family == "tikhonov":
        s = x / (a + x)
    elif spec.family == "landweber":
        n_iter = int(np.floor(np.minimum(1.0 / alpha, np.finfo(float).max)))
        s = 1 - (1 - x) ** n_iter if lam else mpmath.mpf(0)
        if not lam:
            return s, mpmath.mpf(n_iter)
    elif spec.family == "showalter":
        s = -mpmath.expm1(-x / a)
    else:
        s = 1 - (a / (a + x)) ** spec.m
    if not lam:
        q = {"spectral_cutoff": 0, "tikhonov": 1 / a, "showalter": 1 / a}.get(spec.family, spec.m / a)
        return s, mpmath.mpf(q)
    return s, s / x


def rise(values: np.ndarray) -> float:
    """The largest relative rise of a computed value over its value at a
    smaller alpha (rows in ascending alpha), 0 if none rises."""
    before = np.maximum.accumulate(values[::-1], axis=0)[::-1]  # the largest at this alpha or after
    worst = 0.0
    for i in range(len(values) - 1):
        up = before[i + 1] > values[i]
        if up.any():
            worst = max(worst, float(np.max((before[i + 1] - values[i])[up] / values[i][up])))
    return worst


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family}-{s.m}")
def test_computed_rows_never_rise_by_more_than_the_slack(spec, build):
    rng = np.random.default_rng(7)
    for alphas, lams in build(spec, rng):
        for name, values in computed(spec, alphas, lams).items():
            assert rise(values) <= (0.0 if spec.family in EXACT else _MONOTONE_SLACK), (name, alphas[0])


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: f"{s.family}-{s.m}")
def test_computed_values_lie_within_half_the_slack_of_the_exact_filter(spec, build):
    # so any two values of a case, at any alphas, keep the order of the
    # exact filter up to the slack
    mpmath.mp.prec = 200
    rng = np.random.default_rng(8)
    half = mpmath.mpf(_MONOTONE_SLACK) / 2
    for alphas, lams in build(spec, rng):
        values = computed(spec, alphas, lams)
        for i in range(0, len(alphas), 3):
            for j, lam in enumerate(lams):
                s, q = exact(spec, float(alphas[i]), float(lam))
                p = q * mpmath.sqrt(mpmath.mpf(float(lam)))
                for name, want in (("s", s), ("q", q), ("p", p)):
                    got = mpmath.mpf(float(values[name][i, j]))
                    assert abs(got - want) <= half * abs(want) + mpmath.mpf(2) ** -1074, (name, alphas[i], lam)


def test_the_slack_covers_the_largest_error_of_the_taylor_switch():
    # the Taylor form and the closed form of q each err by a few u near
    # the switch; the slack, at 16 u, is at least twice the largest seen
    mpmath.mp.prec = 200
    worst = 0.0
    rng = np.random.default_rng(9)
    for spec in FAMILIES:
        if spec.family in EXACT:
            continue
        for alphas, lams in taylor_switch(spec, rng):
            q = computed(spec, alphas, lams)["q"]
            for i, alpha in enumerate(alphas):
                want = exact(spec, float(alpha), float(lams[0]))[1]
                worst = max(worst, float(abs(mpmath.mpf(float(q[i, 0])) - want) / want))
    assert 2 * U < worst <= _MONOTONE_SLACK / 2
