import ast
import io
import tokenize
from pathlib import Path

import numpy as np
from hypothesis import settings

from invreg.model import sample_observations
from invreg.selection import GridScorer, build_grid

# every property test draws the same examples on every run and keeps no
# example database; the settings of a test inherit this profile
settings.register_profile("invreg", derandomize=True, database=None, deadline=None)
settings.load_profile("invreg")

ACCEPTANCE_LINES = []

SRC = Path(__file__).resolve().parents[1] / "src" / "invreg"
# CPython's parser array doubles when a module's 4097th token arrives
TOKEN_CLIFF = 4096
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


def one_replication(problem, spec, grid, replicate_seed, oracle=None, scorer=None):
    """The squared errors (err_or, err_pred, err_lep) of one replication,
    scored as a batch of one through the scorer's batch methods: sample Y,
    pick the oracle's grid index (or take the index ``oracle``) and the pred
    rule's from one block, then Lepskii's, and the errors at all three."""
    if scorer is None:
        scorer = GridScorer(problem.eigenvalues, problem.sigma, spec, grid)
    values = sample_observations(problem, replicate_seed)[None]
    truths = problem.truth_coeffs[None]
    oracle_idx, pred_idx = scorer.batch_picks(truths if oracle is None else truths[:0], values)
    if oracle is not None:
        oracle_idx = [oracle]
    lepskii_idx = scorer.batch_lepskii_picks(values)
    (errors,) = scorer.batch_errors(values, truths, np.stack([oracle_idx, pred_idx, lepskii_idx], axis=1))
    return tuple(errors.tolist())


def config_grids(config):
    """The candidate grid of each noise level of ``config``, up to the
    problem's lambda_1, as a run builds it."""
    return [build_grid(sigma, config.problem.lambda_max, config.grid_ratio) for sigma in config.sigmas]


def code_lines(text: str) -> int:
    """The lines of a module that hold code: not blank, not only a comment,
    and not part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def parser_tokens(text: str) -> int:
    """The tokens of a module that reach CPython's parser: comments and NL tokens do not."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return sum(token.type not in (tokenize.COMMENT, tokenize.NL) for token in tokens)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    # the size of src/: code lines as ROADMAP counts them, and parser tokens
    terminalreporter.section("src/invreg code lines and parser tokens")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, tokens = code_lines(text), parser_tokens(text)
        total += lines
        terminalreporter.write_line(f"{path.name:<16}{lines:>5} lines{tokens:>7} tokens of {TOKEN_CLIFF}")
    terminalreporter.write_line(f"{'total':<16}{total:>5} lines")
