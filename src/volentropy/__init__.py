"""Volatility-model estimation and entropy analysis for financial returns.

The package fits GARCH(1,1), IGARCH(1,1) and FIGARCH(1,d,1) models to
log-return series by constrained maximum likelihood, simulates those
processes, and measures Shannon/Renyi/Tsallis entropies of return
distributions over equidistant-cell histograms.

Each public name is read from the submodule that defines it when it is
accessed (PEP 562), so ``import volentropy`` loads no numpy.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# each submodule and the public names the package takes from it
_EXPORTS = {
    "errors": (
        "AutocorrUndefinedError",
        "BoundaryError",
        "DataQualityError",
        "DegenerateSupportError",
        "DomainError",
        "DuplicateDateError",
        "EstimationError",
        "InfeasibleParamsError",
        "InsufficientDataError",
        "ParseError",
        "VolentropyError",
    ),
    "series": ("PricePoint", "ReturnSeries", "load_prices", "load_returns", "to_log_returns"),
    "config": ("DEFAULT_TRUNCATION", "DEFAULT_ORDER_GRID", "FitConfig", "ModelFamily"),
    "models": (
        "FracWeights",
        "ParamVector",
        "VariancePath",
        "frac_weights",
        "log_likelihood",
        "student_logpdf",
        "validate_params",
        "variance_path",
    ),
    "estimation": (
        "FitResult",
        "PersistenceCheck",
        "StdErrReport",
        "fit",
        "param_names",
        "persistence_check",
        "standard_errors",
        "transform_from_unconstrained",
        "transform_to_unconstrained",
    ),
    "simulation": ("SimConfig", "simulate_path", "squared_autocorr"),
    "entropy": (
        "EntropyReport",
        "FiniteVarianceWarning",
        "Histogram",
        "build_histogram",
        "entropy_report",
        "renyi",
        "shannon",
        "tsallis",
    ),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, reachable from a bare `import volentropy`
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Looked up anew on every access, not stored here: a name rebound in its
    # submodule (a test's monkeypatch, a tracer's wrapper, and its removal)
    # is then seen through the package as well.  sys.modules is read first
    # because import_module takes about 1 us even for a loaded module.
    return getattr(sys.modules.get(module) or import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
