"""The frozen record types: construction, defaults, validation, immutability,
equality, hashing, repr and pickling, one case per public record type."""

import pickle
from typing import NamedTuple

import numpy as np
import pytest

from invreg.filters import FilterSpec
from invreg.model import SpectralProblem
from invreg.montecarlo import (
    DiagonalDescriptor,
    EfficiencyRow,
    ExperimentConfig,
    GreenDescriptor,
    RiskRow,
)
from invreg.problems import TestFunction as GreenTruth
from invreg.ratetest import RateSample, RateTestResult
from invreg.risk import RiskDecomposition


class Case(NamedTuple):
    cls: type
    fields: dict  # every constructor argument, in order
    defaults: dict  # the defaulted trailing fields and their defaults
    text: str  # the repr
    invalid: tuple = ()  # field overrides that __post_init__ refuses
    other: dict | None = None  # overrides giving an unequal record (hashable records)
    ignored: dict | None = None  # overrides that equality ignores


_ROW_TEXT = "RiskRow(sigma=0.1, r_or=1.0, se_or=2.0, r_pred=3.0, se_pred=4.0, r_lep=5.0, se_lep=6.0, per_rep={})"
_DIAG_TEXT = "DiagonalDescriptor(n=16, a=4.0, nu=4.0)"
_TIKH_TEXT = "FilterSpec(family='tikhonov', m=1, c_prime=1.0, c_double_prime=1.0, qualification_index=1.0)"

CASES = [
    Case(
        FilterSpec,
        {"family": "iterated_tikhonov", "m": 3},
        {"m": 1},
        "FilterSpec(family='iterated_tikhonov', m=3, c_prime=3.0, c_double_prime=1.0, qualification_index=3.0)",
        ({"family": "gauss"}, {"m": 0}, {"m": 1.5}),
        {"m": 2},
    ),
    Case(
        SpectralProblem,
        {"eigenvalues": [1.0, 0.5], "truth_coeffs": [1.0, 2.0], "sigma": 0.1},
        {},
        "SpectralProblem(eigenvalues=array([1. , 0.5]), truth_coeffs=array([1., 2.]), sigma=0.1)",
        (
            {"eigenvalues": [[1.0, 0.5]]},
            {"eigenvalues": [], "truth_coeffs": []},
            {"eigenvalues": [1.0, 0.0]},
            {"eigenvalues": [0.5, 1.0]},
            {"truth_coeffs": [1.0]},
            {"sigma": 0.0},
        ),
    ),
    Case(
        RiskDecomposition,
        {"bias_term": 1.0, "variance_term": 2.0},
        {},
        "RiskDecomposition(bias_term=1.0, variance_term=2.0)",
        other={"variance_term": 3.0},
    ),
    Case(
        RateSample,
        {"sigma": 0.1, "errors": np.array([1.0, 2.0]), "mean": 1.5, "delta": 0.2},
        {},
        "RateSample(sigma=0.1, errors=array([1., 2.]), mean=1.5, delta=0.2)",
    ),
    Case(
        RateTestResult,
        {"theta_hat": 1.0, "rho_hat": 2.0, "statistic": 3.0, "p_value": 0.5, "theta_target": 0.75},
        {},
        "RateTestResult(theta_hat=1.0, rho_hat=2.0, statistic=3.0, p_value=0.5, theta_target=0.75)",
        other={"p_value": 0.25},
    ),
    Case(
        GreenDescriptor,
        {"truth": GreenTruth.INDICATOR, "n_modes": 64, "frame": "analytic"},
        {"n_modes": 1024, "frame": "discrete"},
        "GreenDescriptor(truth=<TestFunction.INDICATOR: 'indicator'>, n_modes=64, frame='analytic')",
        other={"truth": GreenTruth.HAT},
    ),
    Case(
        DiagonalDescriptor,
        {"n": 16, "a": 2.0, "nu": 3.0},
        {"n": 300, "a": 4.0, "nu": 4.0},
        "DiagonalDescriptor(n=16, a=2.0, nu=3.0)",
        ({"n": 0}, {"a": -1.0}, {"a": 1e300}, {"nu": -1e300}),
        {"nu": 4.0},
    ),
    Case(
        ExperimentConfig,
        {
            "problem": DiagonalDescriptor(n=16),
            "filter_spec": FilterSpec("tikhonov"),
            "sigmas": (1e-2, 1e-3),
            "replications": 4,
            "grid_ratio": 1.5,
            "master_seed": 7,
        },
        {"grid_ratio": 1.2, "master_seed": 0},
        f"ExperimentConfig(problem={_DIAG_TEXT}, filter_spec={_TIKH_TEXT}, sigmas=(0.01, 0.001),"
        " replications=4, grid_ratio=1.5, master_seed=7)",
        (
            {"sigmas": ()},
            {"sigmas": (1e-2, 0.0)},
            {"sigmas": (float("inf"),)},
            {"sigmas": (2.0,)},
            {"replications": 1},
            {"grid_ratio": 1.0},
            {"problem": GreenDescriptor(GreenTruth.HAT, n_modes=10**7)},
        ),
        {"master_seed": 8},
    ),
    Case(
        RiskRow,
        dict(sigma=0.1, r_or=1.0, se_or=2.0, r_pred=3.0, se_pred=4.0, r_lep=5.0, se_lep=6.0, per_rep={}),
        {"per_rep": {}},
        _ROW_TEXT,
        other={"r_lep": 7.0},
        ignored={"per_rep": {"or": (1.0, 2.0)}},
    ),
    Case(
        EfficiencyRow,
        {"sigma": 0.1, "eff_pred": 1.0, "eff_lep": 2.0},
        {},
        "EfficiencyRow(sigma=0.1, eff_pred=1.0, eff_lep=2.0)",
        other={"eff_lep": 3.0},
    ),
]


def assert_same_fields(a, b, names):
    assert type(a) is type(b)
    for name in names:
        np.testing.assert_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.cls.__name__)
def test_record_semantics(case):
    cls, fields = case.cls, case.fields
    names = list(fields)
    record = cls(*fields.values())

    # positional and keyword construction agree; omitted fields take their defaults
    assert_same_fields(record, cls(**fields), names)
    required = {name: value for name, value in fields.items() if name not in case.defaults}
    for made in (cls(*required.values()), cls(**required)):
        for name, default in case.defaults.items():
            np.testing.assert_equal(getattr(made, name), default)
    assert repr(record) == case.text
    assert_same_fields(record, pickle.loads(pickle.dumps(record)), names)

    # a missing, surplus, repeated or unknown argument
    if required:
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{names[0]: fields[names[0]]})
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=1)

    for overrides in case.invalid:
        with pytest.raises(ValueError):
            cls(**{**fields, **overrides})

    for name in names + ["no_such_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name, None))
    for name in names:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert_same_fields(record, cls(**fields), names)

    if case.other is not None:  # records of hashable fields
        # built apart, so an ExperimentConfig's twin has grids of its own,
        # which equality and hashing leave out
        twin = cls(**fields)
        assert record == twin and hash(record) == hash(twin)
        assert record == pickle.loads(pickle.dumps(record))
        assert record != cls(**{**fields, **case.other})
        assert record != tuple(fields.values())
    if case.ignored is not None:
        changed = cls(**{**fields, **case.ignored})
        assert record == changed and hash(record) == hash(changed)
        assert repr(changed) != repr(record)

