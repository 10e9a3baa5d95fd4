"""End-to-end tests of the command-line interface (subprocess level)."""

from __future__ import annotations

import argparse
import datetime
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volentropy.estimation as estimation
from volentropy import EstimationError, FiniteVarianceWarning, entropy_report
from volentropy.cli import _UNRECORDED, build_parser, main
from volentropy.report import _fmt6


def run(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "volentropy", *argv],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def sim_file(tmp_path_factory):
    """A small simulated GARCH return file shared across CLI tests."""
    path = tmp_path_factory.mktemp("cli") / "sim.csv"
    proc = run("simulate", "--family", "garch", "--omega", "1e-5",
               "--alpha", "0.1", "--beta", "0.8", "--n", "1500",
               "--seed", "11", "--output", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


# ------------------------------------------------------------------- simulate

def test_simulate_writes_loadable_file(sim_file):
    lines = sim_file.read_text().splitlines()
    assert lines[0] == "date,return"
    assert len(lines) == 1501
    date, value = lines[1].split(",")
    float(value)  # parses
    assert len(date.split("-")) == 3


def test_simulate_is_byte_deterministic(tmp_path):
    args = ("simulate", "--family", "figarch", "--omega", "1e-6", "--alpha", "0.2",
            "--beta", "0.4", "--d", "0.6", "--nu", "8", "--n", "400", "--seed", "3")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(*args, "--output", str(a))
    run(*args, "--output", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_rejects_out_of_range_d(tmp_path):
    proc = run("simulate", "--family", "figarch", "--omega", "1e-6",
               "--alpha", "0.2", "--beta", "0.4", "--d", "1.2",
               "--n", "100", "--seed", "0", "--output", str(tmp_path / "x.csv"))
    assert proc.returncode == 1
    assert "d must lie in [0,1]" in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_simulate_rejects_nan_alpha(tmp_path):
    proc = run("simulate", "--family", "garch", "--omega", "1e-6", "--alpha", "nan",
               "--beta", "0.5", "--n", "100", "--seed", "0", "--output", str(tmp_path / "x.csv"))
    assert proc.returncode == 1
    assert "alpha must be finite, got nan" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("family, extra", [("garch", []), ("figarch", ["--d", "0.6"])])
def test_simulate_negative_truncation_exits_1(tmp_path, family, extra):
    out = tmp_path / "x.csv"
    proc = run("simulate", "--family", family, "--omega", "1e-6", "--alpha", "0.2",
               "--beta", "0.4", *extra, "--n", "100", "--truncation", "-5",
               "--output", str(out))
    assert proc.returncode == 1
    assert "error: truncation horizon must be >= 1" in proc.stderr
    assert proc.stdout == ""  # no manifest
    assert not out.exists()


def test_simulate_prints_manifest(sim_file):
    proc = run("simulate", "--family", "garch", "--omega", "1e-5", "--alpha", "0.1",
               "--beta", "0.8", "--n", "50", "--seed", "1",
               "--output", str(sim_file.parent / "tiny.csv"))
    assert proc.returncode == 0
    assert "manifest:" in proc.stdout
    assert "command: simulate" in proc.stdout
    assert "seed: 1" in proc.stdout


def test_simulate_manifest_records_every_flag_but_the_unrecorded_set(tmp_path):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    sim_parser = subparsers.choices["simulate"]
    dests = {a.dest for a in sim_parser._actions if a.dest != "help"} | {"command", "func"}
    proc = run("simulate", "--family", "garch", "--omega", "1e-5", "--alpha", "0.1",
               "--beta", "0.8", "--n", "50", "--seed", "1", "--format", "tree",
               "--output", str(tmp_path / "tiny.csv"))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads(proc.stdout)["manifest"]
    assert set(manifest["config"]) == dests - _UNRECORDED
    assert manifest["config"]["output"] == str(tmp_path / "tiny.csv")
    assert manifest["config"]["d"] == 0.0  # resolved from the family
    assert manifest["seed"] == 1 and manifest["inputs"] == []


# ------------------------------------------------------------------------ fit

def test_fit_on_simulated_file_round_trips(sim_file):
    proc = run("fit", "--input", str(sim_file), "--returns", "--family", "garch",
               "--innovation", "gaussian", "--restarts", "0", "--format", "tree")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    (result,) = doc["results"]
    assert result["family"] == "garch"
    assert result["converged"] is True
    assert result["error"] is None
    assert abs(result["params"]["alpha"] - 0.1) < 0.08
    assert result["persistence"]["total"] == pytest.approx(
        result["params"]["alpha"] + result["params"]["beta"])
    assert doc["manifest"]["command"] == "fit"
    assert doc["manifest"]["inputs"][0]["sha256"]


def test_fit_text_report_layout(sim_file):
    proc = run("fit", "--input", str(sim_file), "--returns", "--family", "garch",
               "--innovation", "gaussian", "--restarts", "0")
    assert proc.returncode == 0
    out = proc.stdout
    assert "family: garch" in out
    for row in ("omega", "alpha", "beta", "log-likelihood", "converged"):
        assert row in out
    assert "significance: ** at 1%, * at 5%" in out
    assert "manifest:" in out


def test_fit_report_is_byte_deterministic(sim_file):
    args = ("fit", "--input", str(sim_file), "--returns", "--family", "garch",
            "--innovation", "gaussian", "--restarts", "1", "--seed", "5",
            "--format", "tree")
    a, b = run(*args), run(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_fit_exit_2_when_not_converged(sim_file):
    proc = run("fit", "--input", str(sim_file), "--returns", "--family", "garch",
               "--innovation", "gaussian", "--restarts", "0", "--max-iters", "2",
               "--format", "tree")
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)  # partial report still emitted
    assert doc["results"][0]["converged"] is False


def test_fit_d_fixed_boundary_suggests_family(sim_file):
    proc = run("fit", "--input", str(sim_file), "--returns",
               "--family", "figarch", "--d-fixed", "1")
    assert proc.returncode == 1
    assert "--family igarch" in proc.stderr
    proc = run("fit", "--input", str(sim_file), "--returns",
               "--family", "figarch", "--d-fixed", "0")
    assert proc.returncode == 1
    assert "--family garch" in proc.stderr


def test_fit_at_a_high_fixed_d_exits_0(sim_file):
    # the warm start has negative weights at d = 0.95; the fit starts inside
    proc = run("fit", "--input", str(sim_file), "--returns", "--family", "figarch",
               "--d-fixed", "0.95", "--restarts", "0", "--format", "tree")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["results"][0]
    assert result["error"] is None and result["converged"] is True
    assert result["params"]["d"] == 0.95


@pytest.mark.parametrize("family,d_fixed", [("garch", "0.5"), ("garch", "0"),
                                             ("garch,igarch", "1")])
def test_fit_d_fixed_without_figarch_exits_1(sim_file, family, d_fixed):
    proc = run("fit", "--input", str(sim_file), "--returns",
               "--family", family, "--d-fixed", d_fixed)
    assert proc.returncode == 1
    assert "--d-fixed applies only to --family figarch" in proc.stderr
    assert proc.stdout == ""


def test_fit_empty_file_exits_1(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("date,close\n")
    proc = run("fit", "--input", str(path))
    assert proc.returncode == 1
    assert "no observations" in proc.stderr


def test_fit_unknown_family_exits_1(sim_file):
    proc = run("fit", "--input", str(sim_file), "--returns", "--family", "arch")
    assert proc.returncode == 1
    assert "unknown family" in proc.stderr


def test_fit_negative_truncation_exits_1(sim_file):
    proc = run("fit", "--input", str(sim_file), "--returns", "--family", "figarch",
               "--truncation", "-5")
    assert proc.returncode == 1
    assert "error: truncation horizon" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fit_garch_negative_truncation_exits_1(sim_file):
    proc = run("fit", "--input", str(sim_file), "--returns", "--family", "garch",
               "--truncation", "-5")
    assert proc.returncode == 1
    assert "error: truncation horizon must be >= 1" in proc.stderr
    assert proc.stdout == ""


def test_unknown_flag_exits_1():
    proc = run("fit", "--nonsense")
    assert proc.returncode == 1


# -------------------------------------------------------------------- entropy

def test_entropy_single_cell_is_all_zero(sim_file, capsys):
    proc = run("entropy", "--input", str(sim_file), "--returns", "--bins", "1",
               "--format", "tree")
    assert proc.returncode == 0
    (result,) = json.loads(proc.stdout)["results"]
    assert result["shannon"] == 0.0
    assert all(item["value"] == 0.0 for item in result["renyi"])
    assert all(item["value"] == 0.0 for item in result["tsallis"])
    # the text report prints +0, not -0
    code, text = _report(["entropy", "--input", str(sim_file), "--returns", "--bins", "1"],
                         "text", capsys)
    assert code == 0
    rows = _cells(text.split("manifest:")[0])
    values = [float(c) for row in rows if row[0] == "shannon" or row[0][:1].isdigit()
              for c in row[1:]]
    assert len(values) == 7 and all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


def test_entropy_default_grid_and_layout(sim_file):
    proc = run("entropy", "--input", str(sim_file), "--returns")
    assert proc.returncode == 0
    assert "shannon" in proc.stdout
    assert "renyi" in proc.stdout and "tsallis" in proc.stdout
    for order in ("1.4", "1.45", "1.5"):
        assert order in proc.stdout


def test_entropy_out_of_window_q_warns_but_succeeds(sim_file):
    proc = run("entropy", "--input", str(sim_file), "--returns", "--q", "0.5")
    assert proc.returncode == 0
    assert "5/3" in proc.stderr  # FiniteVarianceWarning text
    assert "shannon" in proc.stdout


def test_entropy_window_says_a_finite_variance_warning_once_per_run(sim_file):
    # two series, each with a whole-series report and rolling windows
    proc = run("entropy", "--input", f"{sim_file},{sim_file}", "--returns",
               "--q", "2", "--window", "500")
    assert proc.returncode == 0
    warned = [line for line in proc.stderr.splitlines() if "FiniteVarianceWarning" in line]
    assert len(warned) == 1 and "q=2" in warned[0]


def test_entropy_bits_rescales_by_log2(sim_file):
    nats = json.loads(run("entropy", "--input", str(sim_file), "--returns",
                          "--format", "tree").stdout)["results"][0]
    bits = json.loads(run("entropy", "--input", str(sim_file), "--returns",
                          "--bits", "--format", "tree").stdout)["results"][0]
    assert bits["units"] == "bits" and nats["units"] == "nats"
    assert bits["shannon"] == pytest.approx(nats["shannon"] / math.log(2), rel=1e-12)


def test_entropy_degenerate_series_exits_1(tmp_path):
    path = tmp_path / "flat.csv"
    rows = [f"2020-01-{day:02d},0.001" for day in range(1, 11)]
    path.write_text("date,return\n" + "\n".join(rows) + "\n")
    proc = run("entropy", "--input", str(path), "--returns")
    assert proc.returncode == 1
    assert "zero width" in proc.stderr


def test_entropy_zero_width_window_names_series_and_dates(tmp_path):
    path = tmp_path / "calm.csv"
    returns = [0.0 if 11 <= day <= 20 else 0.001 * (-1) ** day * day for day in range(1, 31)]
    rows = [f"2020-01-{day:02d},{r}" for day, r in zip(range(1, 31), returns)]
    path.write_text("date,return\n" + "\n".join(rows) + "\n")
    proc = run("entropy", "--input", str(path), "--returns", "--window", "8", "--step", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: series 'calm', window 2020-01-11 to 2020-01-18: all 8 observations "
        "equal 0.0; histogram support has zero width\n")


def test_entropy_too_narrow_window_names_series_and_dates(tmp_path):
    # days 11-14 hold 1.0 and the next double up: no room for 2 equal cells
    path = tmp_path / "tight.csv"
    returns = [1.0 + 0.1 * day for day in range(1, 11)] + [1.0, 1.0 + 2.0 ** -52] * 2
    rows = [f"2020-01-{day:02d},{r!r}" for day, r in enumerate(returns, start=1)]
    path.write_text("date,return\n" + "\n".join(rows) + "\n")
    proc = run("entropy", "--input", str(path), "--returns", "--window", "4", "--step", "1",
               "--bins", "2")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: series 'tight', window 2020-01-11 to 2020-01-14: support is too narrow for 2 "
        "equal cells at the magnitude of its values (edges must be strictly increasing)\n")


def test_entropy_of_a_flat_series_names_it_among_several_inputs(tmp_path, capsys):
    paths = []
    for name, returns in (("moving", [0.001 * (-1) ** day * day for day in range(1, 11)]),
                          ("flat", [0.001] * 10)):
        rows = [f"2020-01-{day:02d},{r!r}" for day, r in enumerate(returns, start=1)]
        (tmp_path / f"{name}.csv").write_text("date,return\n" + "\n".join(rows) + "\n")
        paths.append(str(tmp_path / f"{name}.csv"))
    capsys.readouterr()
    assert main(["entropy", "--input", ",".join(paths), "--returns"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: series 'flat': all 10 observations equal 0.001; "
                   "histogram support has zero width\n")


def test_entropy_windowed_report(sim_file):
    proc = run("entropy", "--input", str(sim_file), "--returns",
               "--window", "500", "--step", "250", "--format", "tree")
    assert proc.returncode == 0
    (result,) = json.loads(proc.stdout)["results"]
    assert len(result["windows"]) == (1500 - 500) // 250 + 1
    first = result["windows"][0]
    assert first["n_obs"] == 500
    assert first["start"] < first["end"]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_entropy_window_rows_equal_entropy_report_of_the_slice(data):
    n = data.draw(st.integers(20, 300))
    # windows fill different numbers of cells, on both sides of the 8-term
    # blocks of numpy's pairwise sum; ties come from the repeated levels
    values = st.one_of(st.floats(-0.05, 0.05), st.sampled_from([-0.01, 0.0, 0.02]))
    x = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    window = data.draw(st.integers(5, n))
    step = data.draw(st.integers(1, 40))
    bins = data.draw(st.one_of(st.none(), st.integers(1, 30)))
    grid = data.draw(st.sampled_from(["1.4,1.45,1.5", "0.5,1,2,1.05,1.6,3"]))
    day = datetime.date(2020, 1, 1)
    dates = [(day + datetime.timedelta(days=i)).isoformat() for i in range(n)]
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "r.csv", Path(tmp) / "report.json"
        src.write_text("date,return\n" + "".join(f"{d},{v!r}\n" for d, v in zip(dates, x.tolist())))
        argv = ["entropy", "--input", str(src), "--returns", "--window", str(window),
                "--step", str(step), "--alpha", grid, "--q", grid, "--format", "tree",
                "--output", str(out)]
        if bins is not None:
            argv += ["--bins", str(bins)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", FiniteVarianceWarning)
            code = main(argv)
        slices = [x[i:i + window] for i in range(0, n - window + 1, step)]
        if code != 0:  # a window with zero range
            assert code == 1 and any(s.min() == s.max() for s in slices)
            return
        (result,) = json.loads(out.read_text())["results"]
    orders = [float(v) for v in grid.split(",")]
    assert len(result["windows"]) == len(slices)
    for start, row, sl in zip(range(0, n, step), result["windows"], slices):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FiniteVarianceWarning)
            rep = entropy_report(sl, m=bins, alpha_grid=orders, q_grid=orders)
        assert (row["start"], row["end"]) == (dates[start], dates[start + window - 1])
        assert row["shannon"] == rep.shannon
        assert [r["value"] for r in row["renyi"]] == [v for _, v in rep.renyi]
        assert [t["value"] for t in row["tsallis"]] == [v for _, v in rep.tsallis]
        assert (row["n_obs"], row["bins"], row["empty_cells"], row["cell_width"]) == (
            rep.n_obs, rep.bins, rep.empty_cells, rep.cell_width)


def test_entropy_step_requires_window(sim_file):
    proc = run("entropy", "--input", str(sim_file), "--returns", "--step", "10")
    assert proc.returncode == 1
    assert "--window" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("fit", "--family", "garch", "--innovation", "gaussian", "--restarts", "0"),
    ("entropy", "--window", "500", "--format", "tree"),
])
def test_report_written_to_output_equals_stdout(sim_file, tmp_path, argv):
    args = (*argv, "--input", str(sim_file), "--returns")
    printed = run(*args)
    written = run(*args, "--output", str(tmp_path / "report"))
    assert printed.returncode == written.returncode == 0, written.stderr
    assert written.stdout == ""
    assert (tmp_path / "report").read_text(encoding="utf-8") == printed.stdout


def test_entropy_invalid_q_fails_without_a_warning(sim_file):
    proc = run("entropy", "--input", str(sim_file), "--returns", "--q", "nan")
    assert proc.returncode == 1
    assert proc.stderr == "error: Tsallis index must be nonnegative, got nan\n"
    assert proc.stdout == ""


# ------------------------------------------------- text as a view of the tree

def _cells(section: str) -> list[list[str]]:
    """A text table's rows, split into cells at runs of two or more blanks."""
    return [re.split(r"\s{2,}", line.strip()) for line in section.splitlines()]


def _report(argv: list[str], fmt: str, capsys) -> tuple[int, str]:
    code = main([*argv, "--format", fmt])
    return code, capsys.readouterr().out


def test_fit_text_cells_equal_the_tree_values(tmp_path, monkeypatch, capsys):
    # "hot" is near-integrated, so alpha + beta is flagged; the fit of "cold" fails
    assert main(["simulate", "--family", "garch", "--omega", "1e-6", "--alpha", "0.1",
                 "--beta", "0.895", "--n", "1500", "--seed", "4",
                 "--output", str(tmp_path / "hot.csv")]) == 0
    (tmp_path / "cold.csv").write_bytes((tmp_path / "hot.csv").read_bytes())
    real_fit = estimation.fit

    def fit_or_fail(series, config):
        if series.id == "cold":
            raise EstimationError("estimation failed: every start was infeasible")
        return real_fit(series, config)

    monkeypatch.setattr(estimation, "fit", fit_or_fail)  # `fit` imports it when it runs
    argv = ["fit", "--input", f"{tmp_path / 'hot.csv'},{tmp_path / 'cold.csv'}", "--returns",
            "--family", "garch", "--innovation", "gaussian", "--restarts", "0"]
    capsys.readouterr()
    text_code, text = _report(argv, "text", capsys)
    tree_code, tree = _report(argv, "tree", capsys)
    assert text_code == tree_code == 2  # a failed cell is not a converged fit

    hot, cold = json.loads(tree)["results"]
    assert cold == {"series": "cold", "family": "garch",
                    "error": "estimation failed: every start was infeasible"}
    assert hot["converged"] and hot["persistence"]["flagged"] and hot["stderr"] is not None
    stars = {"1%": "**", "5%": "*", "none": ""}
    expected = [["family: garch"], ["parameter", "hot", "cold"]]
    for name in hot["free_params"]:
        expected.append([name, _fmt6(hot["params"][name]) + stars[hot["significance"][name]], "-"])
        expected.append([f"({_fmt6(hot['stderr'][name])})"])
    expected += [
        ["log-likelihood", _fmt6(hot["loglik"]), "-"],
        ["observations", str(hot["n_obs"]), "-"],
        ["alpha+beta", _fmt6(hot["persistence"]["total"]) + " [flagged]", "-"],
        ["converged", "yes", "-"],
        ["failed: cold - estimation failed: every start was infeasible"],
    ]
    assert _cells(text.split("\n\n")[1]) == expected


@pytest.mark.parametrize("grid", [[], ["--alpha", "0.5,2", "--q", "1.2"]])
def test_entropy_text_cells_equal_the_tree_values_in_bits(sim_file, grid, capsys):
    argv = ["entropy", "--input", str(sim_file), "--returns", "--bits",
            "--window", "500", "--step", "250", *grid]
    text_code, text = _report(argv, "text", capsys)
    tree_code, tree = _report(argv, "tree", capsys)
    assert text_code == tree_code == 0

    (rec,) = json.loads(tree)["results"]
    nats = entropy_report(np.loadtxt(sim_file, delimiter=",", skiprows=1, usecols=1),
                          alpha_grid=[r["order"] for r in rec["renyi"]],
                          q_grid=[t["index"] for t in rec["tsallis"]])
    assert rec["units"] == "bits"
    assert rec["shannon"] == pytest.approx(nats.shannon / math.log(2), rel=1e-12)
    assert [r["value"] for r in rec["renyi"]] == pytest.approx(
        [v / math.log(2) for _, v in nats.renyi], rel=1e-12)

    header, series, grid_table, window_table, _ = text.split("\n\n")
    assert header == "entropy report (units: bits)"
    assert _cells(series) == [[f"series: {rec['series']}", f"n={rec['n_obs']}",
                               f"bins={rec['bins']}"], ["shannon", _fmt6(rec["shannon"])]]
    if grid:
        expected = [["estimator", "order", "value"],
                    *(["renyi", _fmt6(r["order"]), _fmt6(r["value"])] for r in rec["renyi"]),
                    *(["tsallis", _fmt6(t["index"]), _fmt6(t["value"])] for t in rec["tsallis"])]
    else:
        expected = [["index", "renyi", "tsallis"],
                    *([_fmt6(r["order"]), _fmt6(r["value"]), _fmt6(t["value"])]
                      for r, t in zip(rec["renyi"], rec["tsallis"]))]
    assert _cells(grid_table) == expected
    assert _cells(window_table) == [
        ["start", "end", "shannon", *(f"renyi({_fmt6(r['order'])})" for r in rec["renyi"]),
         *(f"tsallis({_fmt6(t['index'])})" for t in rec["tsallis"])],
        *([w["start"], w["end"], _fmt6(w["shannon"]),
           *(_fmt6(r["value"]) for r in w["renyi"]),
           *(_fmt6(t["value"]) for t in w["tsallis"])] for w in rec["windows"]),
    ]


# ------------------------------------------------------------ hostile inputs

@pytest.mark.parametrize("argv", [
    ["fit", "--input", ","],
    ["entropy", "--input", " , "],
])
def test_input_naming_no_file_exits_1(argv, capsys):
    assert main([*argv, "--returns"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --input names no file")


@pytest.mark.parametrize("argv", [
    ["entropy", "--returns", "--bins", str(10**18)],
    ["simulate", "--family", "garch", "--omega", "1e-6", "--alpha", "0.1", "--beta", "0.8",
     "--n", str(10**18)],
    ["simulate", "--family", "figarch", "--omega", "1e-6", "--alpha", "0.2", "--beta", "0.5",
     "--d", "0.6", "--n", "100", "--truncation", str(10**18)],
])
def test_size_too_large_to_allocate_exits_1(argv, sim_file, tmp_path, capsys):
    # 10**18 doubles (8 EB) exceed the address space of any 64-bit machine built,
    # so the allocation fails before any memory is touched; --bins and --n
    # have documented caps, which name themselves before any allocation
    where = ["--input", str(sim_file)] if argv[0] == "entropy" else ["--output", str(tmp_path / "x")]
    assert main([*argv, *where]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    flag = argv[argv.index(str(10**18)) - 1]
    capped = {"--bins": "bin count must be at most MAX_BINS = 1048576",
              "--n": "path length must be at most 2921940"}
    assert err.startswith(f"error: {capped.get(flag, 'Unable to allocate')}")


def test_bin_count_above_the_cap_names_the_cap(sim_file, capsys):
    assert main(["entropy", "--input", str(sim_file), "--returns",
                 "--bins", "1000000000000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bin count must be at most MAX_BINS = 1048576, got 1000000000000\n"


def test_a_non_numeric_entropy_order_is_a_usage_error(sim_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["entropy", "--input", str(sim_file), "--returns", "--alpha", "1.5,x"])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --alpha: expected comma-separated numbers, got '1.5,x'" in err


@pytest.mark.parametrize("argv, message", [
    (["fit", "--family", ","], "at least one family is required"),
    (["entropy", "--window", "1"], "--window must be >= 2, got 1"),
    (["entropy", "--window", "10", "--step", "0"], "--step must be >= 1, got 0"),
    (["entropy", "--window", "1501"],
     "--window 1501 exceeds the 1500 observations of series 'sim'"),
])
def test_a_bad_fit_or_entropy_flag_exits_1(argv, message, sim_file, capsys):
    assert main([*argv, "--input", str(sim_file), "--returns"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["fit", "--family", "garch", "--innovation", "gaussian", "--restarts", "0"],
    ["entropy"],
])
def test_a_price_file_without_returns_is_read_as_prices(argv, tmp_path, capsys):
    path = tmp_path / "px.csv"
    r = 0.01 * np.random.default_rng(3).standard_normal(200)
    closes = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(r))))
    start = datetime.date(2001, 1, 1)
    path.write_text("date,close\n" + "".join(
        f"{start + datetime.timedelta(days=i)},{c!r}\n" for i, c in enumerate(closes.tolist())))
    assert main([*argv, "--input", str(path), "--format", "tree"]) in (0, 2)
    (result,) = json.loads(capsys.readouterr().out)["results"]
    assert result["series"] == "px" and result["n_obs"] == 200


def test_simulate_past_the_calendar_end_names_the_limit(tmp_path, capsys):
    out_file = tmp_path / "x.csv"
    assert main(["simulate", "--family", "garch", "--omega", "1e-6", "--alpha", "0.1",
                 "--beta", "0.8", "--n", "3000000", "--output", str(out_file)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not out_file.exists()
    assert err == ("error: path length must be at most 2921940, got 3000000: simulated days "
                   "run from 2000-01-01 and the calendar ends at 9999-12-31\n")


def test_fit_error_is_recorded_in_its_cell_and_the_other_fits_kept(tmp_path, capsys):
    # one return at 1e153 overflows the IGARCH ARCH(inf) transform at every
    # start, while the GARCH recursion still converges on the same series
    r = 0.01 * np.random.default_rng(0).standard_normal(200)
    r[50] = 1e153
    day = datetime.date(2000, 1, 1)
    (tmp_path / "big.csv").write_text("date,return\n" + "".join(
        f"{day + datetime.timedelta(days=i)},{v!r}\n" for i, v in enumerate(r.tolist())))
    argv = ["fit", "--input", str(tmp_path / "big.csv"), "--returns",
            "--family", "garch,igarch", "--innovation", "gaussian", "--restarts", "0"]
    message = ("returns too large: the ARCH(inf) transform of their squares "
               "overflows a double at every start")
    capsys.readouterr()
    text_code, text = _report(argv, "text", capsys)
    tree_code, tree = _report(argv, "tree", capsys)
    assert text_code == tree_code == 2  # a failed cell is not a converged fit

    garch, igarch = json.loads(tree)["results"]
    assert garch["error"] is None and garch["converged"] is True
    assert garch["loglik"] == pytest.approx(-70212.56, abs=0.01)
    assert igarch == {"series": "big", "family": "igarch", "error": message}
    garch_text, igarch_text = text.split("family: igarch")
    assert re.search(r"converged\s+yes", garch_text)
    assert f"failed: big - {message}" in igarch_text


def test_fit_of_constant_returns_names_the_returns_in_its_cell(tmp_path, capsys):
    day = datetime.date(2000, 1, 1)
    (tmp_path / "flat.csv").write_text("date,return\n" + "".join(
        f"{day + datetime.timedelta(days=i)},0.5\n" for i in range(100)))
    argv = ["fit", "--input", str(tmp_path / "flat.csv"), "--returns",
            "--family", "garch,figarch", "--restarts", "0"]
    message = ("returns constant or too small: their mean squared deviation, 0, "
               "is below the smallest normal double")
    capsys.readouterr()
    code, text = _report(argv, "text", capsys)
    assert code == 2
    assert text.count(f"failed: flat - {message}") == 2


# ------------------------------------------------------------------- pipeline

def test_simulate_fit_entropy_pipeline(tmp_path):
    """The output of simulate feeds fit and entropy without manual edits."""
    data = tmp_path / "pipe.csv"
    sim = run("simulate", "--family", "garch", "--omega", "1e-5", "--alpha", "0.05",
              "--beta", "0.9", "--n", "1200", "--seed", "21", "--output", str(data))
    assert sim.returncode == 0
    fit_proc = run("fit", "--input", str(data), "--returns", "--family", "garch",
                   "--innovation", "gaussian", "--restarts", "0", "--format", "tree")
    assert fit_proc.returncode in (0, 2)  # fit ran; convergence is data-dependent
    ent_proc = run("entropy", "--input", str(data), "--returns", "--format", "tree")
    assert ent_proc.returncode == 0
    assert json.loads(ent_proc.stdout)["results"][0]["n_obs"] == 1200


# --------------------------------------------------------------- import graph

_IMPORT_PROBE = """
import sys
import volentropy
import volentropy.cli
try:
    volentropy.cli.main(["--help"])
except SystemExit:
    pass
data, out = sys.argv[1:]
assert volentropy.cli.main(["entropy", "--input", data, "--returns", "--window", "100",
                            "--step", "50", "--format", "tree", "--output", out]) == 0
assert volentropy.cli.main(["entropy", "--input", data + ".missing", "--returns"]) == 1
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_help_and_entropy_load_no_scipy(tmp_path):
    """Importing the package, printing help, a windowed entropy report and an
    input error load numpy only; scipy is imported where a simulation or a
    fit needs it."""
    data, out = tmp_path / "r.csv", tmp_path / "ent.json"
    r = np.random.default_rng(5).standard_normal(400) * 0.01
    start = datetime.date(2000, 1, 1)
    data.write_text("date,return\n" + "".join(
        f"{start + datetime.timedelta(days=i)},{x!r}\n" for i, x in enumerate(r.tolist())))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(data), str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
    assert len(json.loads(out.read_text())["results"][0]["windows"]) == 7
    assert proc.stdout.splitlines()[-1] == "[]"


_NO_NUMPY_PROBE = """
import runpy
import sys
import volentropy
loaded, codes = ["numpy" in sys.modules], []
for argv in (["--help"], ["fit", "--help"], ["entropy", "--help"], ["simulate", "--help"],
             ["fit"]):
    sys.argv = ["volentropy", *argv]
    try:
        runpy.run_module("volentropy", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes.append(exc.code)
    loaded.append("numpy" in sys.modules)
volentropy.fit
loaded.append("numpy" in sys.modules)
print([codes, loaded])
"""


def test_import_help_and_usage_errors_load_no_numpy():
    """`import volentropy`, each --help and a usage error load no numpy; the
    first library name read from the package does."""
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "the following arguments are required: --input" in proc.stderr
    assert proc.stdout.splitlines()[-1] == str([[0, 0, 0, 0, 1], [False] * 6 + [True]])


_SIMULATE_PROBE = """
import sys
import volentropy.cli
out = sys.argv[1]
for argv in (["--family", "figarch", "--alpha", "0.2", "--beta", "0.4", "--d", "0.6", "--nu", "8"],
             ["--family", "igarch", "--alpha", "0.01", "--beta", "0.5", "--burn-in", "0"]):
    assert volentropy.cli.main(["simulate", *argv, "--omega", "1e-5", "--n", "300",
                                "--seed", "1", "--output", out]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_figarch_and_igarch_simulate_load_no_scipy(tmp_path):
    """A FIGARCH-t and an IGARCH simulation load no scipy module: the ARCH(inf)
    weights need no scipy.signal, and a simulation evaluates no likelihood, so
    no Student-t normaliser from scipy.special."""
    proc = subprocess.run([sys.executable, "-c", _SIMULATE_PROBE, str(tmp_path / "s.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
