"""The package namespace: every public name, resolved from its submodule on first access."""

from __future__ import annotations

import importlib
import os
import pickle
import subprocess
import sys

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
