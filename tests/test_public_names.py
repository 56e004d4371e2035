"""parsimid's public names are declared once, by the imports of ``__init__.py``."""

import ast
import re
import types
from pathlib import Path

import parsimid

# What the demos, the CLI, bench/ and the README use, plus the five error
# types; __init__.py's docstring lists them by group.
PUBLIC_NAMES = {
    "ConfigError", "DivergenceError", "ExcitationError", "InnovationsMarkov", "METHODS",
    "ParsimidError", "PreparedRecord", "RankError", "RealizationConfig", "Scenario",
    "SignalRecord", "StateSpaceModel", "assemble_blocks", "default_aic_grid", "error_g",
    "example1_scenario", "example1_system", "example2_scenario", "example2_system",
    "example3_scenario", "fit_arx", "fit_metric", "gen_rbs", "identify", "impulse_response",
    "load_model", "markov_g", "markov_h", "model_to_dict", "monte_carlo", "parsim_ols",
    "parsim_wls", "random_system", "run_error_vs_n", "run_joint_fit", "save_model",
    "select_order_aic", "simulate", "weight_w2", "write_aggregates_json",
    "write_error_vs_n_csv", "write_joint_fit_csv", "write_trials_csv",
}


def test_package_exports_exactly_the_public_names():
    exported = {
        name for name, value in vars(parsimid).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 43
    assert exported == PUBLIC_NAMES


def test_docstring_lists_the_public_names():
    listing = parsimid.__doc__.split("these 43 names:")[1].split("\n\nEvery exported")[0]
    assert set(re.findall(r"``(\w+)``", listing)) == PUBLIC_NAMES


def test_no_submodule_declares_all():
    package = Path(parsimid.__file__).parent
    declared = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
    ]
    assert declared == []
