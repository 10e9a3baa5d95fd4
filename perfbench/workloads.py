"""The benchmark's workloads, the checks on their outputs, and their metrics.

Every workload is a closed loop with one client: an operation starts only
after the previous one returned, all in one process, and child processes run
one at a time.  The seed is the only source of randomness; the program
receives only the inputs generated from it.

An operation *fails* when it raises, when a fit reports ``converged=False``,
when a CLI step exits non-zero, or when its output misses a statistical
check (parameter recovery, likelihood nesting).  A failed operation is
counted and the run goes on.  An *exactness* check (a value that must equal
an independent numpy expression, a report that must parse) that does not
hold marks the whole run incorrect.

A run repeats the same operations on the same inputs to time them, and an
operation is counted once however often it ran; every repeat must end as
its first run did.  So ``attempted`` and ``failed`` depend on the seed
alone, not on how many repeats fitted into the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

import volentropy as vt
import volentropy.cli as vcli

from spans import percentile, tail_percentile

GARCH, IGARCH, FIGARCH = vt.ModelFamily.GARCH, vt.ModelFamily.IGARCH, vt.ModelFamily.FIGARCH
FAMILIES = (GARCH, IGARCH, FIGARCH)

# Data-generating parameters: a near-integrated GARCH and a long-memory FIGARCH.
G_TRUTH = vt.ParamVector(omega=1e-6, alpha=0.08, beta=0.91, d=0.0, nu=8.0)
F_TRUTH = vt.ParamVector(omega=1e-6, alpha=0.2, beta=0.5, d=0.6, nu=8.0)

# Twelve Renyi/Tsallis orders, all inside the Tsallis finite-variance window.
ORDER_GRID = tuple(round(1.05 + 0.05 * i, 2) for i in range(12))

# A converged FIGARCH fit nests GARCH (d -> 0) and IGARCH (d = 1); its
# log-likelihood may trail theirs only by this much (nats), since the
# logit keeps d off the boundary itself.
NEST_TOL = 1.0

CHILD_TIMEOUT_S = 120

# The yardstick of wall_rel on cli_pipeline: a child interpreter that starts
# and imports a large package the program does not need, the same kind of
# work as the CLI's own start.
REFERENCE_CHILD = ["-c", "import scipy.linalg"]

# Workload-level figures; a traced run reports them from its untraced phase,
# and as 0 on the workloads that do not produce them.
DETAIL_METRICS = ("fit_garch_s", "fit_igarch_s", "fit_figarch_s", "simulate_s",
                  "entropy_window_p50_us", "entropy_window_p99_us", "entropy_windows_per_s",
                  "cli_start_s", "cli_fit_s", "cli_entropy_s")

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repeat counts of every workload."""

    fit_n: int = 10_000
    fit_restarts: int = 1
    likelihood_min_passes: int = 10
    likelihood_trace_passes: int = 5
    sim_n: int = 100_000
    acf_lag: int = 200
    window: int = 500
    step: int = 100
    sim_trace_passes: int = 3
    cli_n: int = 3000
    cli_window: int = 250
    cli_step: int = 50
    cli_help_repeats: int = 2
    probe_repeats: int = 3
    setup_repeats: int = 3


@dataclass
class Tally:
    """Operations attempted and failed, and exactness checks that did not hold."""

    attempted: int = 0
    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    outcomes: dict[str, str | None] = field(default_factory=dict)

    def op(self, label: str, failure: str | None = None) -> None:
        """Count operation ``label`` once; a repeat must end as the first did."""
        if label in self.outcomes:
            first = self.outcomes[label]
            self.exact(failure == first, f"{label}: a repeat ended with {failure or 'success'}, "
                                         f"the first run with {first or 'success'}")
            return
        self.outcomes[label] = failure
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            reason = f"{label}: {failure}"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def exact(self, ok: bool, what: str) -> bool:
        if not ok:
            self.wrong.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.wrong


def sub_seed(seed: int, *keys: int) -> int:
    """A seed derived from the run seed and a position within the run."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def timed(fn, *args, **kwargs):
    """Run one operation; return ``(result or None, seconds, error name or None)``."""
    t0 = clock()
    try:
        return fn(*args, **kwargs), clock() - t0, None
    except Exception as exc:  # one failed operation must not end the run
        return None, clock() - t0, type(exc).__name__


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def fastest_pass(samples: dict[str, list[float]], counts: dict[str, int]) -> float:
    """A pass's time with each step at its shortest time in the run.

    ``samples`` maps each fixed-work step to its times; ``counts`` says how
    often the step occurs in one pass.  Other processes on a shared machine
    only ever lengthen a step; on a 2-core cloud VM they did so by up to a
    factor of two for stretches of tens of seconds, which moves a median
    with them, while the shortest of a run's repeats stays close to the
    program's own cost.
    """
    return sum(count * min(samples[step]) for step, count in counts.items() if samples.get(step))


@contextlib.contextmanager
def cpu_turns():
    """Yield ``turn(k)``, which pins this process, and the children it starts
    after, to the k-th of its allowed CPUs in rotation; restore them on exit.

    A measured loop moves to the next CPU after every pass.  On a shared
    machine a stretch of contention often slows one core and not the other,
    so rotating lets each step's shortest time come from an undisturbed core
    even when such a stretch lasts the whole run.
    """
    allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def turn(k: int) -> None:
        if len(allowed) > 1:
            os.sched_setaffinity(0, {allowed[k % len(allowed)]})

    try:
        yield turn
    finally:
        if len(allowed) > 1:
            os.sched_setaffinity(0, allowed)


def relative(wall_s: float, reference_s: float) -> dict:
    """``wall_s``, the reference's time, and ``wall_rel``, their ratio.

    Both times are fastest passes of the same run, and the reference runs
    right after each program step or pass, so a stretch in which the
    machine itself is slower lengthens both: the ratio keeps the program's
    cost while the raw times move with the machine.
    """
    return {"wall_s": wall_s, "reference_s": reference_s, "wall_rel": wall_s / reference_s}


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol


# ------------------------------------------------------------------ fit_ladder

def fit_inputs(seed: int, sizes: Sizes) -> dict:
    """The two simulated series of the fit ladder (this is the set-up work)."""
    g, _ = vt.simulate_path(vt.SimConfig(GARCH, G_TRUTH, n=sizes.fit_n, seed=sub_seed(seed, 0)))
    f, _ = vt.simulate_path(vt.SimConfig(FIGARCH, F_TRUTH, n=sizes.fit_n, seed=sub_seed(seed, 1)))
    return {"seed": seed, "series": {"garch": g, "figarch": f}}


@dataclass
class FitRow:
    data: str
    family: vt.ModelFamily
    seconds: float
    result: object
    error: str | None


def run_ladder(inputs: dict, sizes: Sizes, after_each_fit=None) -> list[FitRow]:
    """Fit garch, igarch and figarch (Student-t) to both series."""
    rows = []
    for data, series in inputs["series"].items():
        for family in FAMILIES:
            config = vt.FitConfig(family, innovation="student",
                                  restarts=sizes.fit_restarts, seed=inputs["seed"])
            result, seconds, error = timed(vt.fit, series, config)
            rows.append(FitRow(data, family, seconds, result, error))
            if after_each_fit is not None:
                after_each_fit()
    return rows


def _recovered(row: FitRow) -> bool:
    p = row.result.params
    if row.data == "garch" and row.family is GARCH:  # acceptance criterion 3
        return (abs(p.alpha - G_TRUTH.alpha) <= 0.02 and abs(p.beta - G_TRUTH.beta) <= 0.02
                and 6.0 <= p.nu <= 11.0)
    if row.data == "figarch" and row.family is FIGARCH:  # acceptance criterion 4
        return 0.5 <= p.d <= 0.7
    return True


def check_ladder(rows: list[FitRow], inputs: dict, tally: Tally) -> None:
    by_key = {(r.data, r.family): r for r in rows}
    for row in rows:
        label = f"fit {row.family.value} on {row.data} data"
        failure = row.error
        res = row.result
        if res is not None:
            returns = inputs["series"][row.data].returns
            p = res.params
            ll = vt.log_likelihood(row.family, p, returns)
            tally.exact(all(math.isfinite(x) for x in (p.omega, p.alpha, p.beta, p.d, p.nu))
                        and close(res.loglik, ll, 1e-9 * abs(ll)) and res.n_obs == returns.size,
                        f"{label}: reported optimum is inconsistent")
            nested = [by_key[(row.data, f)].result for f in (GARCH, IGARCH)]
            if not res.converged:
                failure = "not converged"
            elif not _recovered(row):
                failure = "truth not recovered"
            elif (row.family is FIGARCH and all(n is not None and n.converged for n in nested)
                  and res.loglik < max(n.loglik for n in nested) - NEST_TOL):
                failure = "figarch loglik below a nested family"
        tally.op(label, failure)


def reference_weights(d: float, alpha: float, beta: float, T: int) -> list[float]:
    """ARCH(inf) weights lambda_1..lambda_T of a FIGARCH(1,d,1), in plain Python."""
    pi = [1.0]
    for j in range(1, T + 1):
        pi.append(pi[-1] * (j - 1.0 - d) / j)
    lam = [alpha + d]
    for j in range(2, T + 1):
        lam.append(beta * lam[-1] + (alpha + beta) * pi[j - 1] - pi[j])
    return lam


def reference_work(inputs: dict, kernel: np.ndarray) -> float:
    """A computation of the same kind as a likelihood pass, not the program's.

    An FFT convolution of the FIGARCH series' squared returns with the
    ARCH(inf) weights, a first-order recursion over the GARCH series, and
    the log-sums of a Student-t likelihood, in numpy and scipy.  Timed next
    to each likelihood pass as the yardstick of ``wall_rel``.
    """
    total = 0.0
    for key in ("garch", "figarch"):
        e2 = inputs["series"][key].returns
        e2 = (e2 - e2.mean()) ** 2
        if key == "garch":
            sig2 = lfilter([1.0], [1.0, -G_TRUTH.beta], G_TRUTH.omega + G_TRUTH.alpha * e2)
        else:
            size = e2.size + 2 * kernel.size
            acc = np.fft.irfft(np.fft.rfft(e2, size) * np.fft.rfft(kernel, size), size)
            sig2 = F_TRUTH.omega / (1.0 - F_TRUTH.beta) + acc[:e2.size]
        total += float(np.log(sig2).sum() + np.log1p(e2 / ((F_TRUTH.nu - 2.0) * sig2)).sum())
    return total


def reference_loglik(family: vt.ModelFamily, p: vt.ParamVector, returns, T: int) -> float:
    """Student-t log-likelihood written out in numpy, independent of ``models``."""
    e = returns - returns.mean()
    e2 = e * e
    backcast = float(e2.mean())
    n = e2.size
    if family is GARCH:
        sig2 = np.empty(n)
        prev_s = (p.omega + p.alpha * backcast) / (1.0 - p.beta)
        prev_e2 = backcast
        for t in range(n):
            prev_s = p.omega + p.alpha * prev_e2 + p.beta * prev_s
            sig2[t] = prev_s
            prev_e2 = e2[t]
    else:
        lam = reference_weights(1.0 if family is IGARCH else p.d, p.alpha, p.beta, T)
        padded = np.concatenate((np.full(T, backcast), e2))
        acc = np.convolve(padded, np.concatenate(([0.0], lam)))
        sig2 = p.omega / (1.0 - p.beta) + acc[T:T + n]
    nu = p.nu
    const = (math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)
             - 0.5 * math.log(math.pi * (nu - 2)))
    return float(n * const - 0.5 * np.log(sig2).sum()
                 - (nu + 1) / 2 * np.log1p(e2 / ((nu - 2) * sig2)).sum())


LIKELIHOOD_STEPS = ("loglik garch", "loglik figarch", "stderr garch", "stderr figarch")


def likelihood_pass(inputs: dict) -> tuple[dict[str, float], list]:
    """Log-likelihoods and standard errors at the data-generating parameters.

    Fixed work per pass, unlike a fit, whose number of likelihood
    evaluations depends on the series.  Returns each step's seconds and its
    ``(result, error)``.
    """
    g, f = inputs["series"]["garch"], inputs["series"]["figarch"]
    ops = [
        (vt.log_likelihood, (GARCH, G_TRUTH, g.returns)),
        (vt.log_likelihood, (FIGARCH, F_TRUTH, f.returns)),
        (vt.standard_errors, (G_TRUTH, g, vt.FitConfig(GARCH))),
        (vt.standard_errors, (F_TRUTH, f, vt.FitConfig(FIGARCH))),
    ]
    times, outcomes = {}, []
    for step, (fn, args) in zip(LIKELIHOOD_STEPS, ops):
        result, times[step], error = timed(fn, *args)
        outcomes.append((result, error))
    return times, outcomes


def _se_key(report) -> tuple | None:
    return None if report.stderr is None else tuple(sorted(report.stderr.items()))


def check_likelihood_pass(outcomes: list, inputs: dict, state: dict, tally: Tally) -> None:
    """Log-likelihoods equal the numpy reference; repeats return identical values."""
    if "reference" not in state:
        g, f = inputs["series"]["garch"], inputs["series"]["figarch"]
        state["reference"] = (
            reference_loglik(GARCH, G_TRUTH, g.returns, vt.DEFAULT_TRUNCATION),
            reference_loglik(FIGARCH, F_TRUTH, f.returns, vt.DEFAULT_TRUNCATION),
        )
    for i, ((result, error), name) in enumerate(zip(outcomes, LIKELIHOOD_STEPS)):
        tally.op(name, error)
        if result is None:
            continue
        if i < 2:
            ref = state["reference"][i]
            tally.exact(close(result, ref, 1e-9 * abs(ref)),
                        f"{name}: {result!r} differs from the numpy reference {ref!r}")
            value = result
        else:
            se = result.stderr
            tally.exact(se is None or all(math.isfinite(v) and v > 0 for v in se.values()),
                        f"{name}: non-finite or non-positive standard error")
            value = _se_key(result)
        first = state.setdefault(name, value)
        tally.exact(value == first, f"{name}: a repeat returned a different value")


def measure_fit_ladder(inputs: dict, seconds: float, sizes: Sizes, tally: Tally) -> dict:
    t_start = clock()
    passes, state = [], {}
    kernel = np.array([0.0, *reference_weights(F_TRUTH.d, F_TRUTH.alpha, F_TRUTH.beta,
                                               vt.DEFAULT_TRUNCATION)])
    with cpu_turns() as turn:
        def one_pass():
            turn(len(passes))
            times, outcomes = likelihood_pass(inputs)
            times["reference"] = timed(reference_work, inputs, kernel)[1]
            check_likelihood_pass(outcomes, inputs, state, tally)
            passes.append(times)

        # likelihood passes between the fits too, so that the fastest repeat
        # is sought over the whole run rather than only after the ladder
        rows = run_ladder(inputs, sizes, after_each_fit=one_pass)
        check_ladder(rows, inputs, tally)
        while len(passes) < sizes.likelihood_min_passes or clock() - t_start < seconds:
            one_pass()
    samples = {step: [p[step] for p in passes] for step in LIKELIHOOD_STEPS}
    return {**relative(fastest_pass(samples, dict.fromkeys(LIKELIHOOD_STEPS, 1)),
                       min(p["reference"] for p in passes)),
            "wall_p50_s": median([sum(p[step] for step in LIKELIHOOD_STEPS) for p in passes]),
            "passes": len(passes), **ladder_metrics(rows)}


def ladder_metrics(rows: list[FitRow]) -> dict:
    return {f"fit_{f.value}_s": sum(r.seconds for r in rows if r.family is f) for f in FAMILIES}


# ----------------------------------------------------------------- sim_entropy

def simulate_pass(seed: int, sizes: Sizes) -> dict:
    """Simulate both paths, their squared-return ACFs, then the entropy windows.

    Every pass of a run does the same work on the same paths.
    """
    out: dict = {"windows": [], "times": {}, "reference": {}}
    for i, (key, family, truth) in enumerate((("garch", GARCH, G_TRUTH),
                                               ("figarch", FIGARCH, F_TRUTH))):
        config = vt.SimConfig(family, truth, n=sizes.sim_n, seed=sub_seed(seed, i))
        sim, out["times"][f"simulate_{key}"], out[f"error_{key}"] = timed(vt.simulate_path, config)
        out[key] = None if sim is None else sim[0]
    for key in ("garch", "figarch"):
        if out[key] is not None:
            out[f"acf_{key}"], out["times"][f"acf_{key}"], out[f"acf_error_{key}"] = timed(
                vt.squared_autocorr, out[key].returns, sizes.acf_lag)
    if out["figarch"] is not None:
        x = out["figarch"].returns
        bins = math.ceil(math.sqrt(sizes.window))
        for start in range(0, x.size - sizes.window + 1, sizes.step):
            w = x[start:start + sizes.window]
            rep, sec, err = timed(vt.entropy_report, w, alpha_grid=ORDER_GRID, q_grid=ORDER_GRID)
            out["windows"].append((start, sec, rep, err))
            # the yardstick of wall_rel: the same entropies in plain numpy
            out["reference"][start] = timed(numpy_entropies, w, bins, ORDER_GRID)[1]
    return out


def numpy_entropies(x: np.ndarray, m: int, grid) -> tuple[float, list, list]:
    counts, _ = np.histogram(x, bins=m, range=(x.min(), x.max()))
    p = counts[counts > 0] / x.size
    shannon = float(-(p * np.log(p)).sum())
    renyi = [float(np.log((p ** a).sum()) / (1.0 - a)) for a in grid]
    tsallis = [float((1.0 - (p ** q).sum()) / (q - 1.0)) for q in grid]
    return shannon, renyi, tsallis


def entropies_match(rep_shannon, rep_renyi, rep_tsallis, x, m, grid) -> bool:
    shannon, renyi, tsallis = numpy_entropies(x, m, grid)
    got = [rep_shannon, *rep_renyi, *rep_tsallis]
    want = [shannon, *renyi, *tsallis]
    return all(close(a, b, 1e-12) for a, b in zip(got, want))


def check_simulate_pass(out: dict, sizes: Sizes, tally: Tally) -> None:
    for key in ("garch", "figarch"):
        series, err = out[key], out[f"error_{key}"]
        tally.op(f"simulate {key}", err)
        if series is None:
            continue
        r = series.returns
        tally.exact(r.size == sizes.sim_n and len(series.dates) == sizes.sim_n
                    and bool(np.isfinite(r).all()), f"simulate {key}: malformed path")
        acf, err = out.get(f"acf_{key}"), out.get(f"acf_error_{key}")
        tally.op(f"squared_autocorr {key}", err)
        if acf is not None:
            x = r * r
            x = x - x.mean()
            denom = (x * x).sum()
            ref = [(x[:-k] * x[k:]).sum() / denom for k in range(1, sizes.acf_lag + 1)]
            tally.exact(acf.shape == (sizes.acf_lag,)
                        and all(close(a, b, 1e-12) for a, b in zip(acf, ref)),
                        f"squared_autocorr {key}: differs from numpy")
    x = None if out["figarch"] is None else out["figarch"].returns
    m = math.ceil(math.sqrt(sizes.window))
    for start, _, rep, err in out["windows"]:
        tally.op(f"entropy_report window {start}", err)
        if rep is None:
            continue
        w = x[start:start + sizes.window]
        tally.exact(rep.bins == m and rep.n_obs == sizes.window
                    and entropies_match(rep.shannon, [v for _, v in rep.renyi],
                                        [v for _, v in rep.tsallis], w, m, ORDER_GRID),
                    f"entropy window at {start}: differs from numpy")


def run_simulate_pass(seed: int, sizes: Sizes, tally: Tally) -> dict:
    """One pass with warnings recorded; a warning from the program is an error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = simulate_pass(seed, sizes)
    tally.exact(not caught, f"warnings raised: {[str(w.message) for w in caught[:3]]}")
    return out


def simulate_pass_steps(out: dict) -> dict[str, float]:
    """Seconds of each step of a pass; each entropy window is one step."""
    steps = dict(out["times"])
    for start, seconds, *_ in out["windows"]:
        steps[f"window {start}"] = seconds
    return steps


def _fastest(passes: list[dict[str, float]]) -> float:
    """Sum of each step's shortest time over passes that time the same steps."""
    samples = {k: [p[k] for p in passes if k in p] for k in passes[0]}
    return fastest_pass(samples, dict.fromkeys(samples, 1))


def sim_metrics(passes: list[dict]) -> dict:
    lat = [w[1] for out in passes for w in out["windows"]]
    tail = tail_percentile(len(lat))
    p99 = percentile(lat, 99.0 if tail is None else min(tail, 99.0)) if lat else 0.0
    steps = [simulate_pass_steps(o) for o in passes]
    windows = [{start: sec for start, sec, *_ in o["windows"]} for o in passes]
    return {
        **relative(_fastest(windows), _fastest([o["reference"] for o in passes])),
        "pass_s": _fastest(steps),
        "wall_p50_s": median([sum(s.values()) for s in steps]),
        "simulate_s": median([o["times"].get("simulate_garch", 0.0)
                              + o["times"].get("simulate_figarch", 0.0) for o in passes]),
        "entropy_window_p50_us": percentile(lat, 50.0) * 1e6 if lat else 0.0,
        "entropy_window_p99_us": p99 * 1e6,
        "entropy_windows_per_s": len(lat) / sum(lat) if lat else 0.0,
        "entropy_windows": len(lat),
    }


def measure_sim_entropy(seed: int, seconds: float, sizes: Sizes, tally: Tally) -> dict:
    t_start, passes = clock(), []
    with cpu_turns() as turn:
        while not passes or clock() - t_start < seconds:
            turn(len(passes))
            out = run_simulate_pass(seed, sizes, tally)
            check_simulate_pass(out, sizes, tally)
            # keep the timings only, so memory does not grow with the pass count
            passes.append({"times": out["times"], "reference": out["reference"],
                           "windows": [(start, sec) for start, sec, _, _ in out["windows"]]})
    return {**sim_metrics(passes), "passes": len(passes)}


# ---------------------------------------------------------------- cli_pipeline

def cli_steps(workdir: Path, seed: int, sizes: Sizes) -> list[tuple[str, list[str]]]:
    """The pipeline's steps as (name, argv) pairs, in order."""
    sim = str(workdir / "sim.csv")
    return [("help", ["--help"])] * sizes.cli_help_repeats + [
        ("simulate", ["simulate", "--family", "figarch", "--omega", "1e-6", "--alpha", "0.2",
                      "--beta", "0.5", "--d", "0.6", "--nu", "8", "--n", str(sizes.cli_n),
                      "--seed", str(seed), "--output", sim, "--format", "tree"]),
        ("fit", ["fit", "--input", sim, "--returns", "--family", "garch,igarch,figarch",
                 "--restarts", "0", "--format", "tree", "--seed", str(seed)]),
        ("entropy", ["entropy", "--input", sim, "--returns", "--window", str(sizes.cli_window),
                     "--step", str(sizes.cli_step), "--format", "tree"]),
    ]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict) -> tuple[int | None, str, str, float]:
    """One ``python -m volentropy`` child process, waited for."""
    t0 = clock()
    try:
        proc = subprocess.run([sys.executable, "-m", "volentropy", *argv], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "timeout", clock() - t0
    return proc.returncode, proc.stdout, proc.stderr, clock() - t0


def run_inprocess(argv: list[str]) -> tuple[int | None, str, str, float]:
    """The same step through ``volentropy.cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vcli.main(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # one failed step must not end the run
            code = None
            print(type(exc).__name__, file=err)
    return code, out.getvalue(), err.getvalue(), clock() - t0


def _tree(stdout: str, keys: set, label: str, tally: Tally):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        doc = None
    if tally.exact(isinstance(doc, dict) and keys <= doc.keys(),
                   f"{label}: tree report does not parse or lacks {sorted(keys)}"):
        return doc
    return None


def check_cli_step(name: str, code, stdout: str, workdir: Path, sizes: Sizes,
                   tally: Tally) -> None:
    label = f"cli {name}"
    failure = None if code == 0 else f"exit code {code}"
    if name == "help":
        tally.exact(code != 0 or "usage: volentropy" in stdout, f"{label}: no usage text")
    elif name == "simulate" and code == 0:
        doc = _tree(stdout, {"manifest", "output"}, label, tally)
        if doc is not None:
            digest = hashlib.sha256((workdir / "sim.csv").read_bytes()).hexdigest()
            tally.exact(doc["output"].get("n") == sizes.cli_n
                        and doc["output"].get("sha256") == digest,
                        f"{label}: reported n or digest does not match the file")
    elif name == "fit" and code in (0, 2):
        doc = _tree(stdout, {"manifest", "results"}, label, tally)
        if doc is not None:
            tally.exact([r.get("family") for r in doc["results"]] == [f.value for f in FAMILIES]
                        and all({"params", "loglik", "converged"} <= r.keys()
                                for r in doc["results"]),
                        f"{label}: results lack families or keys")
        if code == 2:
            failure = "not converged"
    elif name == "entropy" and code == 0:
        doc = _tree(stdout, {"manifest", "results"}, label, tally)
        if doc is not None:
            x = np.loadtxt(workdir / "sim.csv", delimiter=",", skiprows=1, usecols=1)
            windows = doc["results"][0].get("windows") or []
            m = math.ceil(math.sqrt(sizes.cli_window))
            ok = len(windows) == (sizes.cli_n - sizes.cli_window) // sizes.cli_step + 1
            for i, w in enumerate(windows):
                seg = x[i * sizes.cli_step:i * sizes.cli_step + sizes.cli_window]
                ok = ok and entropies_match(w["shannon"], [r["value"] for r in w["renyi"]],
                                            [t["value"] for t in w["tsallis"]], seg, m,
                                            vt.DEFAULT_ORDER_GRID)
            tally.exact(ok, f"{label}: windows differ from numpy")
    tally.op(label, failure)


def run_cli_pass(run_step, workdir: Path, seed: int, sizes: Sizes,
                 deadline: float | None = None, skip: tuple[str, ...] = ()) -> list[tuple]:
    """Run the pipeline's steps in order, leaving out those named in ``skip``;
    stop early once ``deadline`` has passed.

    Returns ``(step name, exit code, stdout, seconds)`` per step run.
    """
    steps = []
    for name, argv in cli_steps(workdir, seed, sizes):
        if name in skip:
            continue
        if deadline is not None and clock() >= deadline:
            break
        code, stdout, _, seconds = run_step(argv)
        steps.append((name, code, stdout, seconds))
    return steps


def check_cli_pass(steps: list[tuple], workdir: Path, sizes: Sizes, tally: Tally) -> None:
    for name, code, stdout, _ in steps:
        check_cli_step(name, code, stdout, workdir, sizes, tally)


def cli_fits(steps: list[tuple]) -> list[tuple]:
    """``(family, iterations, starts)`` of each fit in a pass's fit report."""
    out = []
    for name, code, stdout, _ in steps:
        if name == "fit" and code in (0, 2):
            with contextlib.suppress(json.JSONDecodeError, KeyError, TypeError):
                out += [(r["family"], r["iterations"], r["diagnostics"]["starts"])
                        for r in json.loads(stdout)["results"] if r.get("error") is None]
    return out


def cli_metrics(passes: list[list[tuple]], sizes: Sizes, reference: list[float] = ()) -> dict:
    """Step medians, and the pass time of the fixed-work steps.

    The ``fit`` step is left out of ``wall_s``: its number of likelihood
    evaluations, and so its time, depends on the simulated series.
    ``reference`` holds the seconds of the reference child that followed
    each step, in order.  A run holds only a few samples of each step, too
    few for a fastest time to escape a slow stretch of the machine; so
    ``wall_rel`` pairs every step with the reference child right after it,
    and sums over a pass's steps the median of each step's ratios.
    """
    samples: dict[str, list[float]] = {}
    for p in passes:
        for name, _, _, seconds in p:
            samples.setdefault(name, []).append(seconds)
    fixed = {"help": sizes.cli_help_repeats, "simulate": 1, "entropy": 1}
    timed_steps = [[s[3] for s in p if s[0] != "fit"] for p in passes]
    complete = [sum(t) for t in timed_steps if len(t) == sum(fixed.values())]
    out = {"wall_s": fastest_pass(samples, fixed), "wall_p50_s": median(complete)}
    if reference:
        ratios: dict[str, list[float]] = {}
        for (name, _, _, seconds), ref in zip((s for p in passes for s in p), reference):
            ratios.setdefault(name, []).append(seconds / ref)
        out["reference_s"] = min(reference)
        out["wall_rel"] = sum(n * median(ratios.get(name, [])) for name, n in fixed.items())
    return {**out,
            "cli_start_s": median(samples.get("help", [])),
            "cli_simulate_s": median(samples.get("simulate", [])),
            "cli_fit_s": median(samples.get("fit", [])),
            "cli_entropy_s": median(samples.get("entropy", [])), "passes": len(complete)}


def measure_cli_pipeline(inputs: dict, seconds: float, sizes: Sizes, tally: Tally) -> dict:
    """The whole pipeline once, then its fixed-work steps (all but ``fit``) on
    the same series until ``seconds`` have passed.  A reference child
    follows every step."""
    env, workdir, seed = inputs["env"], inputs["workdir"], sub_seed(inputs["seed"], 0)
    deadline = clock() + seconds
    passes, reference = [], []

    def step_and_reference(argv):
        result = run_child(argv, env)
        reference.append(python_child(REFERENCE_CHILD, env)[2])
        return result

    with cpu_turns() as turn:
        while not passes or clock() < deadline:
            turn(len(passes))
            steps = run_cli_pass(step_and_reference, workdir, seed, sizes,
                                 deadline if passes else None, ("fit",) if passes else ())
            check_cli_pass(steps, workdir, sizes, tally)
            passes.append(steps)
    return cli_metrics(passes, sizes, reference)


# ---------------------------------------------------------------------- probes

def python_child(args: list[str], env: dict) -> tuple[str, str, float]:
    t0 = clock()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return proc.stdout, proc.stderr, clock() - t0


def import_probes(env: dict, repeats: int) -> dict:
    """Interpreter start, ``import volentropy.cli``, and its scipy share."""
    interpreter = [python_child(["-c", "pass"], env)[2] for _ in range(repeats)]
    stamp = ("import time; t = time.perf_counter(); import volentropy.cli; "
             "print(time.perf_counter() - t)")
    imports = [float(python_child(["-c", stamp], env)[0]) for _ in range(repeats)]
    cumulative = {}
    for _ in range(repeats):
        _, err, _ = python_child(["-X", "importtime", "-c", "import volentropy.cli"], env)
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in ("scipy.signal", "scipy.stats"):
                cumulative.setdefault(parts[2], []).append(int(parts[1]) / 1e6)
    return {
        "cli.interpreter_s": median(interpreter),
        "cli.import_s": median(imports),
        "cli.import.scipy_signal_s": median(cumulative.get("scipy.signal", [])),
        "cli.import.scipy_stats_s": median(cumulative.get("scipy.stats", [])),
    }
