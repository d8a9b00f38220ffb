"""The public API and the config fields that README documents are those
the package has."""

import inspect
import json
import re
from pathlib import Path

import pytest

import invreg
from invreg import cli, filters, model, montecarlo, problems, selection, tables
from invreg.selection import GridScorer

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def listed(prefix: str) -> dict:
    """The backquoted names of each README bullet ``- `<owner>`<prefix>: ...``, by owner."""
    found = {}
    for owner, names in re.findall(rf"^- `([\w.]+)`{prefix}: (.*)$", section("Public API"), re.MULTILINE):
        found[owner] = re.findall(r"`(\w+)`", names)
    return found


def test_the_readme_lists_the_names_invreg_exports():
    exported = {name for name, value in vars(invreg).items() if not name.startswith("_") and not inspect.ismodule(value)}
    by_module = listed("")
    assert sorted(n for names in by_module.values() for n in names) == sorted(exported)
    for module, names in by_module.items():
        assert all(getattr(invreg, name).__module__ == module for name in names), module


def test_the_readme_lists_the_public_methods_of_the_scorer():
    public = {name for name, _ in inspect.getmembers(GridScorer, inspect.isfunction) if not name.startswith("_")}
    assert sorted(listed(" methods")["GridScorer"]) == sorted(public)


@pytest.mark.parametrize(
    "owner, name",
    [
        (selection, "choose_oracle"),
        (selection, "choose_pred"),
        (selection, "choose_lepskii"),
        (model, "EstimateCoefficients"),
        (GridScorer, "oracle"),
        (GridScorer, "pred"),
        (GridScorer, "pred_scores"),
        (GridScorer, "lepskii"),
        (GridScorer, "lepskii_errors"),
        (montecarlo, "replicate_once"),
        (selection, "Selection"),
        (GridScorer, "batch_oracle_picks"),
        (GridScorer, "batch_pred_picks"),
        (tables, "parse_risk_table"),
        (tables, "parse_efficiency_table"),
        (model, "Observations"),
        (montecarlo, "RiskTable"),
        (montecarlo, "EfficiencyTable"),
        (selection, "ParameterGrid"),
        (montecarlo.ExperimentConfig, "grids"),
        (filters, "spectral_cutoff"),
        (filters, "tikhonov"),
        (filters, "iterated_tikhonov"),
        (filters, "landweber"),
        (filters, "showalter"),
        (GridScorer, "batch_lepskii_errors"),
        (problems, "DenseSymmetricMatrix"),
        (selection, "apriori_alpha_polynomial"),
        (problems, "discretize_integral_operator"),
        (problems, "symmetric_eigenvalues"),
    ],
)
def test_the_single_replication_adapters_are_gone(owner, name):
    # invreg itself exports only the names README lists
    assert not hasattr(owner, name)


@pytest.mark.parametrize("run", [montecarlo.run_rate_experiment, montecarlo.run_efficiency_experiment])
def test_the_studies_take_no_workers_parameter(run):
    assert list(inspect.signature(run).parameters) == ["config"]


def test_the_readme_lists_every_config_field_with_its_default():
    rows = re.findall(r"^\| `([\w.]+)` \|(.*)\|$", section("CLI"), re.MULTILINE)
    assert [name for name, _ in rows] == list(cli._FIELDS)
    for name, cells in rows:
        default = cli._FIELDS[name][3]
        cell = cells.split("|")[-1]
        if default is cli._REQUIRED:
            assert "required" in cell, name
        else:
            values = set(default.values()) if isinstance(default, dict) else {default}
            assert all(f"`{json.dumps(value)}`" in cell for value in values), name
