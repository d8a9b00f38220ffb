"""Spectral regularization filters q_alpha and their stable evaluation.

Five classical families are supported: spectral cut-off, Tikhonov,
m-iterated Tikhonov, Landweber and Showalter.  Each family comes with its
filter-bound constants (c_prime, c_double_prime) and polynomial
qualification index.  All evaluators accept scalars or numpy arrays for
the spectral argument and are written in cancellation-safe form so that
they remain accurate for lambda/alpha down to machine precision.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._record import Record

__all__ = [
    "FilterSpec",
    "ALL_FAMILIES",
    "filter_value",
    "s_value",
]

_FAMILIES = ("spectral_cutoff", "tikhonov", "iterated_tikhonov", "landweber", "showalter")

# lambda/alpha (Showalter, iterated Tikhonov) or N lambda (Landweber) below
# this switches q to its two-term Taylor form (guards the 0/0 limit)
_TAYLOR_CUT = 1e-8

# s, q and fl(sqrt(lambda) q), as computed, at a larger alpha exceed their
# values at a smaller alpha by at most this share: they are within half of
# it of the exact filters, which never grow with alpha (tests/test_monotone.py)
_MONOTONE_SLACK = 2.0**-49


class FilterSpec(Record):
    """A filter family together with its bound constants and qualification.

    ``c_prime`` bounds alpha*|q_alpha|, ``c_double_prime`` bounds
    lambda*|q_alpha|, and ``qualification_index`` is the largest Hoelder
    order the family can exploit (math.inf for cut-off, Landweber and
    Showalter).  The constants are fixed by the family and must not be
    overridden.
    """

    family: str
    m: int = 1
    # computed fields: the properties below, shown in the repr
    c_prime: float
    c_double_prime: float
    qualification_index: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown filter family: {self.family!r}")
        # every family takes an integer m of at least 1 (a numpy integer too,
        # not a bool), stored as int
        try:
            m = None if isinstance(self.m, bool) else operator.index(self.m)
        except TypeError:
            m = None
        if m is None or m < 1:
            raise ValueError(f"m must be an integer of at least 1, got {self.m!r}")
        float(m)  # the constants are float(m): an m beyond float range raises OverflowError
        object.__setattr__(self, "m", m)

    @property
    def c_prime(self) -> float:
        return float(self.m) if self.family == "iterated_tikhonov" else 1.0

    @property
    def c_double_prime(self) -> float:
        return 1.0

    @property
    def qualification_index(self) -> float:
        if self.family == "tikhonov":
            return 1.0
        return float(self.m) if self.family == "iterated_tikhonov" else math.inf


def ALL_FAMILIES(m: int = 2) -> list[FilterSpec]:
    """All five families, with the given m for iterated Tikhonov."""
    return [FilterSpec(family, m if family == "iterated_tikhonov" else 1) for family in _FAMILIES]


def _check_args(spec: FilterSpec, alpha, lam) -> np.ndarray:
    """Validate a scalar, column or elementwise ``alpha`` (a NaN fails the
    positivity test) and ``lam`` (a NaN or an infinity fails its range
    test); returns ``lam`` as a new float array with -0.0 read as +0.0, at
    which every family's s is +0.0."""
    if not np.all(alpha > 0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    lam = np.array(lam, dtype=float)
    lam += 0.0
    if not ((lam >= 0).all() and (lam < math.inf).all()):
        raise ValueError("lambda must be finite and nonnegative")
    if spec.family == "landweber" and np.any(lam > 1):
        raise ValueError("Landweber requires lambda <= 1 (operator norm at most 1)")
    return lam


def _evaluate(spec: FilterSpec, alpha, lam: np.ndarray, want_s: bool, out: np.ndarray) -> np.ndarray:
    """Write s_alpha(lam) (``want_s``) or q_alpha(lam) into ``out``.

    ``alpha`` is a scalar, a column of shape (r, 1) against the 1-d
    ``lam``, or an array of the shape of ``lam`` (one alpha per element).
    Each element goes through the same operations whatever the shape of
    ``alpha``, so a grid row or an elementwise value equals the scalar
    evaluation at that alpha bit for bit.  Apart from Tikhonov, s is
    evaluated first and q = s / lam derived from it in place.
    """
    fam = spec.family
    if fam == "tikhonov":
        # filling alpha first and adding lam in place avoids a row-by-row
        # broadcast of an alpha column; the sum has the same bits
        np.copyto(out, alpha)
        np.divide(lam if want_s else 1.0, np.add(out, lam, out=out), out=out)
    elif fam == "spectral_cutoff":
        np.copyto(out, lam >= alpha)
        if not want_s:
            np.divide(out, lam, out=out, where=lam > 0.0)  # q(0) = 0
    elif fam == "landweber":
        # N = floor(1/alpha) iterations (finite also where 1/alpha
        # overflows): s = 1 - (1 - lam)^N, with log1p evaluated only strictly
        # inside (0, 1) and s(1) = 1 - 0^N, so that alpha > 1 (N = 0) gives
        # the zero filter.  Overflow is expected near alpha = 5e-324, and
        # each one gives the intended value: 1/alpha is capped, N log1p(-lam)
        # = -inf gives s = 1, and the Taylor term is discarded where N lam is
        # not small
        with np.errstate(over="ignore"):
            n_iter = np.floor(np.minimum(1.0 / alpha, np.finfo(float).max))
            at_one = lam >= 1.0
            np.negative(np.expm1(n_iter * np.log1p(-np.where(at_one, 0.0, lam))), out=out)
            np.copyto(out, 1.0 - 0.0**n_iter, where=at_one)
            if not want_s:
                # sum_{j<N} (1-lam)^j ~ N - N(N-1)/2 * lam while N lam is small
                _q_from_s(out, lam, n_iter * lam < _TAYLOR_CUT, n_iter * (1.0 - (n_iter - 1.0) * lam / 2.0))
    elif fam == "showalter":
        ratio = lam / alpha
        np.negative(np.expm1(-ratio), out=out)
        if not want_s:
            _q_from_s(out, lam, ratio < _TAYLOR_CUT, (1.0 / alpha) * (1.0 - ratio / 2.0))
    else:  # iterated Tikhonov: s = 1 - (alpha/(alpha+lam))^m as -expm1(-m*log1p(lam/alpha))
        ratio = lam / alpha
        np.negative(np.expm1(-spec.m * np.log1p(ratio)), out=out)
        if not want_s:
            # limit q(0) = m/alpha, next-order term -m(m+1)/2 * lam/alpha^2
            taylor = (spec.m / alpha) * (1.0 - (spec.m + 1) * ratio / 2.0)
            _q_from_s(out, lam, ratio < _TAYLOR_CUT, taylor)
    return out


def _q_from_s(out: np.ndarray, lam: np.ndarray, small: np.ndarray, taylor) -> None:
    """Turn s in ``out`` into q = s / lam, taking the Taylor form where
    ``small`` (which guards the 0/0 limit of the closed forms)."""
    np.divide(out, lam, out=out, where=~small)
    np.copyto(out, taylor, where=small)


def _scalar_or_array(spec: FilterSpec, alpha: float, lam, want_s: bool):
    lam = _check_args(spec, alpha, lam)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = _evaluate(spec, alpha, lam, want_s, np.empty_like(lam))
    return float(out[0]) if scalar else out


def filter_value(spec: FilterSpec, alpha: float, lam):
    """Evaluate q_alpha(lambda) for the given family.

    Accepts a scalar or array ``lam``; returns a matching scalar or array.
    Landweber uses N = floor(1/alpha) iterations in the closed geometric
    form, so alpha > 1 yields the zero filter.
    """
    return _scalar_or_array(spec, alpha, lam, False)


def s_value(spec: FilterSpec, alpha: float, lam):
    """Evaluate s_alpha(lambda) = lambda * q_alpha(lambda), stably.

    Always satisfies 0 <= s <= 1 for lambda in the admissible range of the
    family, and s_alpha(0) = +0.0 (at lambda = -0.0 too), from each
    family's closed form.
    """
    return _scalar_or_array(spec, alpha, lam, True)


# elements per block of rows in a grid evaluation, so that its
# temporaries stay near 256 KB whatever the grid size
_BLOCK = 1 << 15


def _row_blocks(rows: int, cols: int) -> list[slice]:
    step = max(1, _BLOCK // cols)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]

