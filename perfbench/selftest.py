"""Self-test of the benchmark at tiny sizes.

Checks the percentile rule, the self-time arithmetic, that the seed reaches
every workload's inputs, and that the count metrics of a traced phase repeat
exactly.  Run from the root of a checkout::

    python3 perfbench/selftest.py

Exits with status 0 when every check holds.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402  (also pins BLAS threads)
import volentropy as vt  # noqa: E402
import workloads as wl  # noqa: E402
from layers import TARGETS, layer_metrics  # noqa: E402
from spans import Span, Tracer, percentile, self_times, tail_percentile  # noqa: E402

TINY = wl.Sizes(fit_n=400, likelihood_min_passes=2, likelihood_trace_passes=2,
                sim_n=1500, acf_lag=10, window=100, step=100, sim_trace_passes=1,
                cli_n=300, cli_window=100, cli_step=100, cli_help_repeats=1,
                probe_repeats=1)

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_percentile_rule() -> None:
    cases = {19: None, 20: 50.0, 199: 90.0, 999: 90.0, 1000: 99.0, 9999: 99.0,
             10000: 99.9, 100000: 99.99}
    for n, want in cases.items():
        expect(tail_percentile(n) == want, f"tail percentile of {n} samples is {want}")
    values = list(range(1, 1001))
    p = tail_percentile(len(values))
    cut = percentile(values, p)
    expect(sum(v > cut for v in values) == 10, "exactly ten samples lie beyond p99 of 1000")
    expect(percentile(values, 50.0) == 500, "nearest-rank median of 1..1000 is 500")


def test_self_time() -> None:
    spans = [Span("root", 0, 100, -1, 0), Span("a", 10, 30, 0, 0),
             Span("b", 20, 50, 0, 0), Span("a.x", 12, 18, 1, 0),
             Span("c", 90, 130, 0, 0)]
    expect(self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 40],
           "self time subtracts the union of child intervals, clipped to the parent")

    original = vt.entropy.entropy_report
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        rebound = (vt.entropy_report is not original
                   and vt.entropy_report is vt.entropy.entropy_report)
        vt.entropy_report(np.random.default_rng(0).standard_normal(200),
                          alpha_grid=(1.2, 1.5), q_grid=(1.2,))
    finally:
        tracer.uninstall()
    expect(rebound, "the package namespace and the defining module see the same wrapper")
    expect(vt.entropy_report is original and vt.entropy.entropy_report is original,
           "uninstall restores the originals")
    names = [s.name for s in tracer.spans]
    expect(names == ["entropy.entropy_report", "entropy.build_histogram", "entropy.shannon",
                     "entropy.renyi", "entropy.renyi", "entropy.tsallis"],
           "calls made inside the package are recorded as child spans")
    selfs = self_times(tracer.spans)
    root = tracer.spans[0]
    expect(selfs[0] == root.end - root.start - sum(s.end - s.start for s in tracer.spans[1:]),
           "self time of a span with sequential children is duration minus theirs")


def test_seed_plumbing() -> None:
    a, b = wl.fit_inputs(3, TINY), wl.fit_inputs(3, TINY)
    c = wl.fit_inputs(4, TINY)
    same = all(np.array_equal(a["series"][k].returns, b["series"][k].returns) for k in a["series"])
    differ = all(not np.array_equal(a["series"][k].returns, c["series"][k].returns)
                 for k in a["series"])
    expect(same and differ, "fit_ladder inputs repeat for a seed and change with it")
    one, two = wl.simulate_pass(5, TINY), wl.simulate_pass(5, TINY)
    other = wl.simulate_pass(6, TINY)
    expect(np.array_equal(one["figarch"].returns, two["figarch"].returns)
           and not np.array_equal(one["figarch"].returns, other["figarch"].returns),
           "sim_entropy paths repeat for a seed and change with it")
    argv = dict(wl.cli_steps(Path("w"), wl.sub_seed(7, 0), TINY))
    expect(argv["simulate"][argv["simulate"].index("--seed") + 1] == str(wl.sub_seed(7, 0)),
           "cli_pipeline passes the derived seed to the simulate step")


def traced_counts(name: str, inputs: dict) -> tuple[dict, wl.Tally]:
    tally = wl.Tally()
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        _, out = run.fixed_phase(wl, name, inputs, TINY, tally)
    finally:
        tracer.uninstall()
    fits = run.check_fixed_phase(wl, name, inputs, out, TINY, tally)
    metrics = layer_metrics(tracer.spans, tracer.counters, fits)
    counts = {k: v for k, v in metrics.items()
              if not (k.endswith("_s") or k.endswith("us_per_call"))}
    return counts, tally


def test_counts_repeat(workdir: Path) -> None:
    for name in run.WORKLOADS:
        inputs = run.make_inputs(wl, name, 11, TINY)
        inputs["workdir"] = workdir
        first, tally = traced_counts(name, inputs)
        second, _ = traced_counts(name, inputs)
        expect(first == second and any(first.values()),
               f"{name}: count metrics of two traced phases are equal")
        expect(tally.correct, f"{name}: exactness checks hold ({tally.wrong[:2]})")


def main() -> int:
    test_percentile_rule()
    test_self_time()
    test_seed_plumbing()
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        test_counts_repeat(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
