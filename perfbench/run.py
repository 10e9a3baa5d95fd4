"""Run one benchmark workload once and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit_ladder --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs a fixed set of operations untraced and then traced, and
reports the per-layer metrics.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program is imported from
``src/`` of the checkout; without it the run exits with status 2.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process (children inherit this): the machine the
# baseline was measured on has two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("fit_ladder", "sim_entropy", "cli_pipeline")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the measured loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the program, build the inputs and exit (times set-up)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def make_inputs(wl, name: str, seed: int, sizes) -> dict:
    if name == "fit_ladder":
        return wl.fit_inputs(seed, sizes)
    if name == "sim_entropy":
        return {"seed": seed}  # each pass simulates its own paths
    return {"seed": seed, "env": wl.child_env(ROOT)}


def measure_setup(wl, name: str, seed: int, repeats: int) -> float:
    """Median wall time of a fresh process that imports and builds the inputs."""
    times = []
    with wl.cpu_turns() as turn:
        for k in range(repeats):
            turn(k)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                            "--seed", str(seed), "--setup-only"],
                           check=True, capture_output=True, timeout=120)
            times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(wl, name: str, inputs: dict, seconds: float, sizes, tally) -> dict:
    if name == "fit_ladder":
        return wl.measure_fit_ladder(inputs, seconds, sizes, tally)
    if name == "sim_entropy":
        return wl.measure_sim_entropy(inputs["seed"], seconds, sizes, tally)
    return wl.measure_cli_pipeline(inputs, seconds, sizes, tally)


def fixed_phase(wl, name: str, inputs: dict, sizes, tally):
    """The fixed operations a traced run repeats with and without tracing.

    Returns ``(seconds, outputs)``; outputs are checked afterwards, outside
    the timed and traced region.
    """
    t0 = time.perf_counter()
    if name == "fit_ladder":
        ladder_inputs = wl.fit_inputs(inputs["seed"], sizes)
        rows = wl.run_ladder(ladder_inputs, sizes)
        passes = [wl.likelihood_pass(ladder_inputs)
                  for _ in range(sizes.likelihood_trace_passes)]
        out = (ladder_inputs, rows, passes)
    elif name == "sim_entropy":
        out = [wl.run_simulate_pass(inputs["seed"], sizes, tally)
               for _ in range(sizes.sim_trace_passes)]
    else:
        out = wl.run_cli_pass(wl.run_inprocess, inputs["workdir"], wl.sub_seed(inputs["seed"], 0),
                              sizes)
    return time.perf_counter() - t0, out


def check_fixed_phase(wl, name: str, inputs: dict, out, sizes, tally) -> list:
    """Check a fixed phase's outputs; return ``(family, iterations, starts)``
    for each fit it returned."""
    if name == "fit_ladder":
        ladder_inputs, rows, passes = out
        wl.check_ladder(rows, ladder_inputs, tally)
        state: dict = {}
        for _, outcomes in passes:
            wl.check_likelihood_pass(outcomes, ladder_inputs, state, tally)
        return [(r.family.value, r.result.iterations, r.result.diagnostics["starts"])
                for r in rows if r.result is not None]
    if name == "sim_entropy":
        for o in out:
            wl.check_simulate_pass(o, sizes, tally)
        return []
    wl.check_cli_pass(out, inputs["workdir"], sizes, tally)
    return wl.cli_fits(out)


def detail_metrics(wl, name: str, inputs: dict, out, sizes, tally) -> dict:
    """Workload-level figures of an untraced fixed phase (and, for the CLI,
    one pass of child processes)."""
    if name == "fit_ladder":
        return wl.ladder_metrics(out[1])
    if name == "sim_entropy":
        return wl.sim_metrics(out)
    env = inputs["env"]
    steps = wl.run_cli_pass(lambda argv: wl.run_child(argv, env), inputs["workdir"],
                            wl.sub_seed(inputs["seed"], 0), sizes)
    wl.check_cli_pass(steps, inputs["workdir"], sizes, tally)
    return wl.cli_metrics([steps], sizes)


def traced_run(wl, name: str, inputs: dict, sizes, tally, spans_path: Path) -> dict:
    from layers import TARGETS, layer_metrics
    from spans import Tracer

    plain_s, plain = fixed_phase(wl, name, inputs, sizes, tally)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        traced_s, traced = fixed_phase(wl, name, inputs, sizes, tally)
    finally:
        tracer.uninstall()
    check_fixed_phase(wl, name, inputs, plain, sizes, tally)
    fits = check_fixed_phase(wl, name, inputs, traced, sizes, tally)
    metrics = layer_metrics(tracer.spans, tracer.counters, fits)
    metrics.update(detail_metrics(wl, name, inputs, plain, sizes, tally))
    metrics.update(wl.import_probes(wl.child_env(ROOT), sizes.probe_repeats))
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(spans_path)
    return metrics


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("us_per_call", "us"), ("_rel", "ratio"),
                         ("_mb", "MB"), ("_s", "s"), ("ratio", "ratio"), ("bytes_out", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def report(name: str, args, metrics: dict, tally, listed: list[dict]) -> dict:
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for key in sorted(metrics):
        print(f"  {key:<40} {metrics[key]:.6g} {unit_of(key)}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed")
    for reason, count in sorted(tally.reasons.items()):
        print(f"    failed x{count}: {reason}")
    for what in tally.wrong[:20]:
        print(f"    WRONG: {what}")
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"workload {name} produced no value for {missing}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    # Turn SIGTERM into an exception, so that a running child is killed and
    # waited for, and the scratch directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "volentropy" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads as wl

    sizes = wl.Sizes()
    name = args.workload
    inputs = make_inputs(wl, name, args.seed, sizes)
    if args.setup_only:
        return 0

    tally = wl.Tally()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    inputs["workdir"] = workdir
    try:
        if args.trace:
            metrics = traced_run(wl, name, inputs, sizes, tally,
                                 OUT_DIR / f"spans-{name}-{args.seed}.jsonl")
            for key in wl.DETAIL_METRICS:
                metrics.setdefault(key, 0.0)  # a figure of another workload
        else:
            setup_s = measure_setup(wl, name, args.seed, sizes.setup_repeats)
            metrics = {**measure(wl, name, inputs, args.seconds, sizes, tally), "setup_s": setup_s}
        metrics["fail_ratio"] = tally.failed / tally.attempted if tally.attempted else 0.0
        metrics["peak_rss_mb"] = peak_rss_mb()
        result = report(name, args, metrics, tally,
                        spec["per_layer" if args.trace else "end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
