"""Every output byte of the CLI against the frozen v0 implementation.

``perfbench/reference/invreg`` is the v0 code: slow and straightforward,
and independent of the batched, certified paths of ``src/invreg``.  It is
copied into a temporary directory as the package ``invreg_v0``, with the
intended divergences applied to the copy as named patches, each asserted to
apply exactly once; the reference itself is never edited.  Seeded random
valid configs of every filter family, and fixed configs whose grid points
are eigenvalues exactly, then run through both ``cli.main`` in-process,
and every output but ``metadata.json`` must be byte-identical.  Configs
stay below 10^4 modes, where v0's squared errors are the same bytes.  The
comparison runs again in a child process on a second platform: numpy's
AVX-512 loops and OpenBLAS's SkylakeX kernels turned off, as on a CPU
without AVX-512, where this package's bytes differ from the goldens' but
must still equal v0's.
"""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from invreg import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "invreg"

# (file, v0 text, intended text, why): the Landweber q takes its Taylor
# form where N lambda is small, not where lambda is (at alpha = 1e-12 and
# lambda = 1e-9, v0's q was -4.99e14)
PATCHES = [
    ("filters.py", "small = lam < _TAYLOR_CUT", "small = (n_iter * lam < _TAYLOR_CUT) & ~at_one", "landweber-taylor"),
]

FAMILIES = ("spectral_cutoff", "tikhonov", "iterated_tikhonov", "landweber", "showalter")
STUDIES = ("simulate-rates", "simulate-efficiency", "score-curve")


def random_config(rng: random.Random, family: str, command: str) -> dict:
    """A valid study config of ``command`` for the filter ``family``."""
    green = command == "simulate-rates" or (command == "score-curve" and rng.random() < 0.5)
    if green:
        truth, frame = rng.choice(["hat", "indicator"]), rng.choice(["analytic", "discrete"])
        problem = {"kind": "green", "truth": truth, "frame": frame}
        top = -1.5  # lambda_1 = pi^-4, so sigma stays below 10^-1.5
    else:
        problem = {"kind": "diagonal", "a": rng.uniform(0.5, 4.0), "nu": rng.uniform(0.5, 4.0)}
        top = -0.5
    config = {
        "problem": problem,
        "filter": {"family": family, "m": rng.randint(1, 5) if family == "iterated_tikhonov" else 1},
        "sigmas": [10.0 ** rng.uniform(-6.0, top) for _ in range(rng.randint(1, 3))],
        "modes": rng.randint(1, 600),
        "grid_ratio": rng.uniform(1.05, 2.0),
        "master_seed": rng.randrange(2**40),
    }
    if command != "score-curve":
        config["replications"] = rng.randint(2, 6)
    return config


def configs():
    rng = random.Random(20240901)
    # 30 configs: each of the 15 (command, family) pairs twice
    cases = [(STUDIES[i % 3], random_config(rng, FAMILIES[i % 5], STUDIES[i % 3])) for i in range(30)]
    # lambda_k = 1/k with a = 1/2, and the grid 2^-10 2^j holds each
    # lambda_k at k a power of 2 exactly, so a tie of alpha and lambda
    # decides the spectral cut-off's filter
    tie = {
        "problem": {"kind": "diagonal", "a": 0.5, "nu": 1.0},
        "filter": {"family": "spectral_cutoff"},
        "sigmas": [2.0**-5],
        "modes": 64,
        "grid_ratio": 2.0,
        "master_seed": 7,
    }
    cases += [("score-curve", tie), ("simulate-efficiency", {**tie, "replications": 40})]
    cases += [("filters-check", {"pairs": 300, "master_seed": 11})]
    return cases


CASES = configs()


@pytest.fixture(scope="module")
def v0_main(tmp_path_factory):
    root = tmp_path_factory.mktemp("v0")
    shutil.copytree(REFERENCE, root / "invreg_v0", ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new, _ in PATCHES:
        path = root / "invreg_v0" / name
        text = path.read_text()
        assert text.count(old) == 1, name
        path.write_text(text.replace(old, new))
    sys.path.insert(0, str(root))
    try:
        yield importlib.import_module("invreg_v0.cli").main
    finally:
        sys.path.remove(str(root))
        for module in [m for m in sys.modules if m == "invreg_v0" or m.startswith("invreg_v0.")]:
            del sys.modules[module]


def outputs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "metadata.json"}


@pytest.mark.parametrize(
    "command, config",
    CASES,
    ids=[f"{i:02d}-{command}-{c.get('filter', {}).get('family', '')}" for i, (command, c) in enumerate(CASES)],
)
def test_outputs_equal_v0_bytewise(command, config, v0_main, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    got = []
    for name, main in (("head", cli.main), ("v0", v0_main)):
        out = tmp_path / name
        assert main([command, "--config", str(path), "--out", str(out)]) == 0, name
        got.append(outputs(out))
    assert got[0] and list(got[0]) == list(got[1])
    for name in got[0]:
        assert got[0][name] == got[1][name], name


def test_outputs_equal_v0_bytewise_without_avx512(tmp_path):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", OPENBLAS_CORETYPE="Haswell")
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    test = f"{Path(__file__).resolve()}::{test_outputs_equal_v0_bytewise.__name__}"
    flags = ["-q", "-W", "error", "-p", "no:cacheprovider", "--basetemp", str(tmp_path)]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *flags, test], env=env, timeout=300, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
