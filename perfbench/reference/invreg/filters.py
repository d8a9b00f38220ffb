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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FilterSpec",
    "spectral_cutoff",
    "tikhonov",
    "iterated_tikhonov",
    "landweber",
    "showalter",
    "ALL_FAMILIES",
    "filter_value",
    "s_value",
]

_FAMILIES = ("spectral_cutoff", "tikhonov", "iterated_tikhonov", "landweber", "showalter")

# lambda/alpha below this switches Showalter / iterated Tikhonov to their
# two-term Taylor forms (guards the 0/0 limit of the closed forms)
_TAYLOR_CUT = 1e-8


@dataclass(frozen=True)
class FilterSpec:
    """A filter family together with its bound constants and qualification.

    ``c_prime`` bounds alpha*|q_alpha|, ``c_double_prime`` bounds
    lambda*|q_alpha|, and ``qualification_index`` is the largest Hoelder
    order the family can exploit (math.inf for cut-off, Landweber and
    Showalter).  The constants are fixed by the family and must not be
    overridden.
    """

    family: str
    m: int = 1
    c_prime: float = field(init=False)
    c_double_prime: float = field(init=False)
    qualification_index: float = field(init=False)

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown filter family: {self.family!r}")
        if self.family == "iterated_tikhonov":
            if not (isinstance(self.m, int) and self.m >= 1):
                raise ValueError("iterated Tikhonov requires integer m >= 1")
        c_prime = float(self.m) if self.family == "iterated_tikhonov" else 1.0
        if self.family == "tikhonov":
            qual = 1.0
        elif self.family == "iterated_tikhonov":
            qual = float(self.m)
        else:
            qual = math.inf
        object.__setattr__(self, "c_prime", c_prime)
        object.__setattr__(self, "c_double_prime", 1.0)
        object.__setattr__(self, "qualification_index", qual)


def spectral_cutoff() -> FilterSpec:
    return FilterSpec("spectral_cutoff")


def tikhonov() -> FilterSpec:
    return FilterSpec("tikhonov")


def iterated_tikhonov(m: int) -> FilterSpec:
    return FilterSpec("iterated_tikhonov", m=m)


def landweber() -> FilterSpec:
    return FilterSpec("landweber")


def showalter() -> FilterSpec:
    return FilterSpec("showalter")


def ALL_FAMILIES(m: int = 2) -> list[FilterSpec]:
    """All five families, with the given m for iterated Tikhonov."""
    return [spectral_cutoff(), tikhonov(), iterated_tikhonov(m), landweber(), showalter()]


def _check_args(spec: FilterSpec, alpha: float, lam) -> np.ndarray:
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("lambda must be nonnegative")
    if spec.family == "landweber" and np.any(lam > 1):
        raise ValueError("Landweber requires lambda <= 1 (operator norm at most 1)")
    return lam


def filter_value(spec: FilterSpec, alpha: float, lam):
    """Evaluate q_alpha(lambda) for the given family.

    Accepts a scalar or array ``lam``; returns a matching scalar or array.
    Landweber uses N = floor(1/alpha) iterations in the closed geometric
    form, so alpha > 1 yields the zero filter.
    """
    lam = _check_args(spec, alpha, lam)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    fam = spec.family

    if fam == "spectral_cutoff":
        out = np.where(lam >= alpha, np.divide(1.0, lam, out=np.zeros_like(lam), where=lam > 0), 0.0)
    elif fam == "tikhonov":
        out = 1.0 / (lam + alpha)
    elif fam == "iterated_tikhonov":
        # 1 - (alpha/(alpha+lam))^m evaluated as -expm1(-m*log1p(lam/alpha))
        ratio = lam / alpha
        small = ratio < _TAYLOR_CUT
        num = -np.expm1(-spec.m * np.log1p(ratio))
        out = np.empty_like(lam)
        nz = ~small
        out[nz] = num[nz] / lam[nz]
        # limit q(0) = m/alpha, next-order term -m(m+1)/2 * lam/alpha^2
        out[small] = (spec.m / alpha) * (1.0 - (spec.m + 1) * ratio[small] / 2.0)
    elif fam == "landweber":
        n_iter = math.floor(1.0 / alpha)
        if n_iter == 0:
            out = np.zeros_like(lam)
        else:
            out = np.empty_like(lam)
            at_one = lam >= 1.0
            out[at_one] = 1.0  # (1 - 0^N)/1
            small = lam < _TAYLOR_CUT
            # sum_{j<N} (1-lam)^j ~ N - N(N-1)/2 * lam near 0
            out[small] = n_iter * (1.0 - (n_iter - 1) * lam[small] / 2.0)
            mid = ~(small | at_one)
            out[mid] = -np.expm1(n_iter * np.log1p(-lam[mid])) / lam[mid]
    else:  # showalter
        ratio = lam / alpha
        small = ratio < _TAYLOR_CUT
        out = np.empty_like(lam)
        nz = ~small
        out[nz] = -np.expm1(-ratio[nz]) / lam[nz]
        out[small] = (1.0 / alpha) * (1.0 - ratio[small] / 2.0)

    return float(out[0]) if scalar else out


def s_value(spec: FilterSpec, alpha: float, lam):
    """Evaluate s_alpha(lambda) = lambda * q_alpha(lambda), stably.

    Always satisfies s_alpha(0) = 0 and 0 <= s <= 1 for lambda in the
    admissible range of the family.
    """
    lam = _check_args(spec, alpha, lam)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    fam = spec.family

    if fam == "spectral_cutoff":
        out = np.where(lam >= alpha, 1.0, 0.0)
    elif fam == "tikhonov":
        out = lam / (lam + alpha)
    elif fam == "iterated_tikhonov":
        out = -np.expm1(-spec.m * np.log1p(lam / alpha))
    elif fam == "landweber":
        n_iter = math.floor(1.0 / alpha)
        if n_iter == 0:
            out = np.zeros_like(lam)
        else:
            # evaluate log1p only strictly inside (0, 1); lam = 1 gives s = 1
            inner = np.where(lam >= 1.0, 0.0, lam)
            out = np.where(lam >= 1.0, 1.0, -np.expm1(n_iter * np.log1p(-inner)))
    else:  # showalter
        out = -np.expm1(-lam / alpha)

    out = np.where(lam == 0.0, 0.0, out)
    return float(out[0]) if scalar else out
