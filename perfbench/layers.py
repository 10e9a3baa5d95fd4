"""Which public functions the traced run wraps, and the per-layer metrics.

Metric names ending in ``.calls``, ``.count`` or ``.evals`` count calls in
the traced phase; ``_s`` names are seconds summed over it (``self_s`` is self
time: a span's duration minus the time its child spans cover);
``us_per_call`` is a span's mean duration in microseconds.
"""

from __future__ import annotations

from collections import defaultdict

import volentropy.cli
import volentropy.entropy
import volentropy.estimation
import volentropy.models
import volentropy.report
import volentropy.series
import volentropy.simulation

from spans import Span, inside, self_times
from workloads import FAMILIES


def _config_family(*args, **kwargs) -> str:
    config = args[-1] if args else kwargs["config"]
    return config.family.value


def _count_bytes(tracer, text: str) -> None:
    tracer.count("report.bytes_out", len(text.encode("utf-8")))


TARGETS = [
    (volentropy.models, "frac_weights", None, None),
    (volentropy.models, "variance_path", None, None),
    (volentropy.models, "log_likelihood", None, None),
    (volentropy.estimation, "fit", _config_family, None),
    (volentropy.estimation, "standard_errors", None, None),
    (volentropy.estimation, "transform_from_unconstrained", None, None),
    (volentropy.simulation, "simulate_path", _config_family, None),
    (volentropy.simulation, "squared_autocorr", None, None),
    (volentropy.entropy, "build_histogram", None, None),
    (volentropy.entropy, "shannon", None, None),
    (volentropy.entropy, "renyi", None, None),
    (volentropy.entropy, "tsallis", None, None),
    (volentropy.entropy, "entropy_report", None, None),
    (volentropy.series, "load_returns", None, None),
    (volentropy.report, "render_fit_report", None, _count_bytes),
    (volentropy.report, "render_entropy_report", None, _count_bytes),
    (volentropy.report, "render_simulate_report", None, _count_bytes),
    (volentropy.cli, "main", None, None),
]

def layer_metrics(spans: list[Span], counters: dict, fits: list[tuple]) -> dict:
    """Per-layer metrics of one traced phase.

    ``fits`` holds ``(family, iterations, starts)`` for each fit the traced
    phase returned, ``starts`` being the fit's ``diagnostics["starts"]``.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def dur(i):
        return spans[i].end - spans[i].start

    def total_s(name, tag=None):
        return sum(dur(i) for i in by_name[name] if tag is None or spans[i].tag == tag) / 1e9

    def self_s(name):
        return sum(selfs[i] for i in by_name[name]) / 1e9

    def us_per_call(name):
        calls = by_name[name]
        return sum(dur(i) for i in calls) / len(calls) / 1e3 if calls else 0.0

    vp = by_name["models.variance_path"]
    fit_of = inside(spans, "estimation.fit")
    se_of = inside(spans, "estimation.standard_errors")
    out = {
        "models.variance_path.calls": len(vp),
        "models.variance_path.self_s": self_s("models.variance_path"),
        "models.variance_path.us_per_call": us_per_call("models.variance_path"),
        "models.frac_weights.calls": len(by_name["models.frac_weights"]),
        "models.frac_weights.self_s": self_s("models.frac_weights"),
        "models.infeasible.count": sum(spans[i].error == "InfeasibleParamsError" for i in vp),
    }
    for fam in (f.value for f in FAMILIES):
        n_fits = sum(spans[i].tag == fam for i in by_name["estimation.fit"])
        evals = sum(fit_of[i] is not None and spans[fit_of[i]].tag == fam for i in vp)
        out[f"estimation.evals_per_fit.{fam}"] = evals / n_fits if n_fits else 0.0
    transforms = by_name["estimation.transform_from_unconstrained"]
    attempts = sum(fit_of[i] is not None for i in transforms)
    useful = sum(fit_of[i] is not None and spans[i].error is None for i in vp)
    out["estimation.useful_eval_ratio"] = useful / attempts if attempts else 0.0
    out["estimation.fit.self_s"] = self_s("estimation.fit")
    out["estimation.standard_errors.self_s"] = self_s("estimation.standard_errors")
    out["estimation.standard_errors.evals"] = sum(se_of[i] is not None for i in vp)
    for fam in (f.value for f in FAMILIES):
        its = [it for f, it, _ in fits if f == fam]
        out[f"estimation.iterations.{fam}"] = sum(its) / len(its) if its else 0.0
    starts = [s for _, _, fit_starts in fits for s in fit_starts]
    out["estimation.starts_feasible_ratio"] = (
        sum(bool(s.get("feasible")) for s in starts) / len(starts) if starts else 0.0)
    out["simulation.simulate_path.garch_s"] = total_s("simulation.simulate_path", "garch")
    out["simulation.simulate_path.figarch_s"] = total_s("simulation.simulate_path", "figarch")
    out["simulation.squared_autocorr_s"] = total_s("simulation.squared_autocorr")
    for fn in ("build_histogram", "renyi", "tsallis", "shannon"):
        out[f"entropy.{fn}.calls"] = len(by_name[f"entropy.{fn}"])
        out[f"entropy.{fn}.us_per_call"] = us_per_call(f"entropy.{fn}")
    out["entropy.entropy_report.self_s"] = self_s("entropy.entropy_report")
    out["series.load_returns_s"] = total_s("series.load_returns")
    out["report.render_fit_report_s"] = total_s("report.render_fit_report")
    out["report.render_entropy_report_s"] = total_s("report.render_entropy_report")
    out["report.bytes_out"] = counters.get("report.bytes_out", 0)
    out["cli.main.self_s"] = self_s("cli.main")
    return out
