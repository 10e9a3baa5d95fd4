"""The package namespace: every public name, resolved from its submodule on first access."""

from __future__ import annotations

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volentropy

# each public name of the package and a submodule it can be imported from
_PUBLIC = {
    "errors": (
        "AutocorrUndefinedError", "BoundaryError", "DataQualityError", "DegenerateSupportError",
        "DomainError", "DuplicateDateError", "EstimationError", "InfeasibleParamsError",
        "InsufficientDataError", "ParseError", "VolentropyError",
    ),
    "series": ("PricePoint", "ReturnSeries", "load_prices", "load_returns", "to_log_returns"),
    "models": (
        "DEFAULT_TRUNCATION", "FracWeights", "ModelFamily", "ParamVector", "VariancePath",
        "frac_weights", "log_likelihood", "student_logpdf", "validate_params", "variance_path",
    ),
    "estimation": (
        "FitConfig", "FitResult", "PersistenceCheck", "StdErrReport", "fit", "param_names",
        "persistence_check", "standard_errors", "transform_from_unconstrained",
        "transform_to_unconstrained",
    ),
    "simulation": ("SimConfig", "simulate_path", "squared_autocorr"),
    "entropy": (
        "DEFAULT_ORDER_GRID", "EntropyReport", "FiniteVarianceWarning", "Histogram",
        "build_histogram", "entropy_report", "renyi", "shannon", "tsallis",
    ),
}
_NAMES = sorted(name for names in _PUBLIC.values() for name in names)


def test_all_and_dir_list_every_public_name():
    assert sorted(volentropy.__all__) == _NAMES
    assert set(_NAMES) <= set(dir(volentropy))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from volentropy import *", namespace)
    assert set(_NAMES) <= set(namespace)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in _PUBLIC.items() for n in names])
def test_each_name_is_the_object_its_submodule_holds(module, name):
    assert getattr(volentropy, name) is getattr(importlib.import_module(f"volentropy.{module}"), name)


def test_names_moved_to_config_keep_their_old_import_paths():
    assert volentropy.fit is volentropy.estimation.fit
    assert volentropy.models.ModelFamily is volentropy.ModelFamily is volentropy.config.ModelFamily
    assert volentropy.simulation.DEFAULT_BURN_IN is volentropy.config.DEFAULT_BURN_IN
    assert volentropy.estimation.INNOVATIONS is volentropy.config.INNOVATIONS


def test_a_name_rebound_in_its_submodule_is_seen_through_the_package(monkeypatch):
    def stand_in():
        pass

    original = volentropy.renyi
    monkeypatch.setattr(volentropy.entropy, "renyi", stand_in)
    assert volentropy.renyi is stand_in
    monkeypatch.undo()
    assert volentropy.renyi is original


def test_a_submodule_is_an_attribute_after_a_bare_import():
    # a fresh interpreter: here the test session has already imported the submodules
    code = ("import sys, volentropy; assert 'volentropy.models' not in sys.modules; "
            "m = volentropy.models; assert m is sys.modules['volentropy.models']; "
            "print(m.ParamVector.__module__)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "volentropy.models\n"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fitt'"):
        volentropy.fitt
    assert not hasattr(volentropy, "report_tools")


def test_fit_config_and_model_family_round_trip_through_pickle():
    config = volentropy.FitConfig(volentropy.ModelFamily.FIGARCH, innovation="gaussian",
                                  restarts=1, d_fixed=0.4)
    assert pickle.loads(pickle.dumps(config)) == config
    for family in volentropy.ModelFamily:
        assert pickle.loads(pickle.dumps(family)) is family


# ------------------------------------------------------------- import guard

def _load_time_imports(path: Path) -> set[str]:
    """The modules a source file imports when it loads, package modules as ``volentropy.<name>``.

    Function bodies and ``if TYPE_CHECKING:`` blocks do not run at load time
    and are skipped; class bodies, ``try`` and other blocks are walked.
    """
    names = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                visit(ast.Module(child.orelse, []))
                continue
            if isinstance(child, ast.Import):
                names.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level:  # within the package
                names.add(f"volentropy.{child.module}" if child.module else "volentropy")
            elif isinstance(child, ast.ImportFrom):
                names.add(child.module)
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return names


_SOURCES = {p.stem: _load_time_imports(p) for p in Path(volentropy.__file__).parent.glob("*.py")}


def _loaded_with(module: str) -> set[str]:
    """Every module outside the package that loading ``volentropy.<module>`` imports."""
    seen, todo, outside = set(), [module], set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for imported in _SOURCES[name]:
                if imported == "volentropy":
                    todo.append("__init__")
                elif imported.startswith("volentropy."):
                    todo.append(imported.split(".")[1])
                else:
                    outside.add(imported.split(".")[0])
    return outside


@pytest.mark.parametrize("module", sorted(_SOURCES))
def test_no_module_imports_scipy_when_it_loads(module):
    # scipy.signal alone takes over a second to import: each use imports it where it is needed
    assert "scipy" not in _loaded_with(module)


@pytest.mark.parametrize("module", ["__init__", "config", "errors", "cli"])
def test_parser_modules_import_no_numpy_when_they_load(module):
    # --help, every usage error and `import volentropy` load only these
    assert "numpy" not in _loaded_with(module)


# ------------------------------------------------------- records with arrays

_GARCH_POINT = volentropy.ParamVector(1e-5, 0.1, 0.8)
_RETURNS = 0.01 * np.random.default_rng(0).standard_normal(200)


@pytest.mark.parametrize("make", [
    lambda: volentropy.ReturnSeries("s", range(1, 201), _RETURNS),
    lambda: volentropy.Histogram.from_counts([1, 2, 3]),
    lambda: volentropy.variance_path(volentropy.ModelFamily.GARCH, _GARCH_POINT, _RETURNS),
    lambda: volentropy.frac_weights(0.4, 10, 0.2, 0.3),
    lambda: volentropy.StdErrReport(None, None, None, np.eye(3), True),
    lambda: volentropy.FitResult(_GARCH_POINT, None, None, None, 1.0, True, 1, 200,
                                 volentropy.ModelFamily.GARCH, "gaussian", 0.0,
                                 ("omega", "alpha", "beta"), cov=np.eye(3)),
], ids=["ReturnSeries", "Histogram", "VariancePath", "FracWeights", "StdErrReport", "FitResult"])
def test_records_holding_arrays_compare_by_identity_and_hash(make):
    # field-wise == would compare the arrays elementwise, whose truth value numpy refuses
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2
