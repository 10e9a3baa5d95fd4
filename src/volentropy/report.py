"""Run manifests and report rendering.

Two output styles: aligned plain text for humans (numbers shown with six
significant digits) and a JSON tree for machines (full float precision).
Every report embeds the run manifest, and nothing time- or host-dependent
is recorded, so identical manifests yield identical report bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from . import __version__

if TYPE_CHECKING:  # annotations only: rendering a simulate report loads neither module
    from .entropy import EntropyReport
    from .estimation import FitResult, PersistenceCheck

__all__ = [
    "entropy_record",
    "file_digest",
    "fit_record",
    "make_manifest",
    "render_entropy_report",
    "render_fit_report",
    "render_simulate_report",
]

_LN2 = math.log(2.0)


def file_digest(path) -> str:
    """Hex SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def make_manifest(command: str, input_paths, config: dict, seed: int | None) -> dict:
    """What was run: command, tool, seed, input digests and flags, as a report embeds it."""
    return {
        "command": command,
        "tool": f"volentropy {__version__}",
        "seed": seed,
        "inputs": [{"path": str(p), "sha256": file_digest(p)} for p in input_paths],
        "config": dict(config),
    }


# ------------------------------------------------------------------ primitives

def _fmt6(x) -> str:
    """Six significant digits, or '-' for missing values."""
    if x is None:
        return "-"
    return f"{float(x):.6g}"


_STARS = {"1%": "**", "5%": "*", "none": ""}


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dump_tree(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _cfg_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return ",".join(str(v) for v in value)
    return str(value)


def _manifest_text(m: dict) -> list[str]:
    lines = [
        "manifest:",
        f"  command: {m['command']}",
        f"  tool: {m['tool']}",
        f"  seed: {m['seed']}",
    ]
    for entry in m["inputs"]:
        lines.append(f"  input: {entry['path']} sha256={entry['sha256']}")
    pairs = " ".join(f"{k}={_cfg_text(v)}" for k, v in sorted(m["config"].items()))
    lines.append(f"  config: {pairs}")
    return lines


def _table(rows: list[tuple[str, ...]], indent: str = "  ") -> list[str]:
    """Left-aligned columns, two spaces between, trailing blanks stripped."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [
        (indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths))).rstrip()
        for row in rows
    ]


# ------------------------------------------------------------------ fit report

def fit_record(series_id: str, family: str, result: FitResult | None = None,
               persistence: PersistenceCheck | None = None, error: str | None = None) -> dict:
    """One (series, family) fit as ``--format tree`` prints it: a result or a failure message."""
    record = {"series": series_id, "family": family, "error": error}
    if result is None:
        return record
    record.update({
        "innovation": result.innovation,
        "n_obs": result.n_obs,
        "mean": result.mean,
        "free_params": list(result.names),
        "params": result.params.as_dict(),
        "stderr": result.stderr,
        "pvalues": result.pvalues,
        "significance": result.significance,
        "loglik": result.loglik,
        "iterations": result.iterations,
        "converged": result.converged,
        "persistence": None if persistence is None else {
            "total": persistence.total, "stderr": persistence.stderr,
            "flagged": persistence.flag, "recommendation": persistence.recommendation},
        "diagnostics": result.diagnostics,
    })
    return record


def _estimate_cell(rec: dict, name: str) -> str:
    if name not in rec["free_params"]:
        return "-"
    star = _STARS.get((rec["significance"] or {}).get(name, "none"), "")
    return _fmt6(rec["params"][name]) + star


def _stderr_cell(rec: dict, name: str) -> str:
    if rec["stderr"] is None or name not in rec["stderr"]:
        return ""
    return f"({_fmt6(rec['stderr'][name])})"


def _persistence_cell(rec: dict) -> str:
    p = rec["persistence"]
    if p is None:
        return "-"
    return _fmt6(p["total"]) + (" [flagged]" if p["flagged"] else "")


def _fit_block_text(family: str, records: list[dict]) -> list[str]:
    def row(cell, missing: str = "-") -> tuple[str, ...]:  # one cell per series
        return tuple(cell(r) if "params" in r else missing for r in records)

    lines = [f"family: {family}"]
    rows: list[tuple[str, ...]] = [("parameter", *(r["series"] for r in records))]
    names = max((r["free_params"] for r in records if "params" in r), key=len, default=[])
    for name in names:
        rows.append((name, *row(lambda r: _estimate_cell(r, name))))
        stderr_row = row(lambda r: _stderr_cell(r, name), missing="")
        if any(stderr_row):
            rows.append(("", *stderr_row))

    rows.append(("log-likelihood", *row(lambda r: _fmt6(r["loglik"]))))
    rows.append(("observations", *row(lambda r: str(r["n_obs"]))))
    if any(r.get("persistence") is not None for r in records):
        rows.append(("alpha+beta", *row(_persistence_cell)))
    rows.append(("converged", *row(lambda r: "yes" if r["converged"] else "no")))

    lines.extend(_table(rows))
    for r in records:
        if r["error"] is not None:
            lines.append(f"  failed: {r['series']} - {r['error']}")
    return lines


def render_fit_report(results: list[dict], manifest: dict, fmt: str = "text") -> str:
    """`fit_record` results as one block per family with one column per series."""
    if fmt == "tree":
        return _dump_tree({"manifest": manifest, "results": results})

    lines = ["fit report", ""]
    for family in dict.fromkeys(r["family"] for r in results):
        lines.extend(_fit_block_text(family, [r for r in results if r["family"] == family]))
        lines.append("")
    lines.append("significance: ** at 1%, * at 5%")
    lines.append("")
    lines.extend(_manifest_text(manifest))
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- entropy report

def entropy_record(series_id: str, report: EntropyReport, bits: bool,
                   windows: Iterable[tuple[tuple[str, str], EntropyReport]] | None = None
                   ) -> dict:
    """Entropies of one series as ``--format tree`` prints it, in bits or nats.

    ``windows`` pairs a (start-date, end-date) label with each window's
    report, in window order; the record then lists them under ``windows``.
    """
    unit = _LN2 if bits else 1.0  # dividing by 1.0 is exact: nats pass unchanged

    def values(rep: EntropyReport) -> dict:
        return {
            "n_obs": rep.n_obs,
            "bins": rep.bins,
            "empty_cells": rep.empty_cells,
            "cell_width": rep.cell_width,
            "shannon": rep.shannon / unit,
            "renyi": [{"order": a, "value": v / unit} for a, v in rep.renyi],
            "tsallis": [{"index": q, "value": v / unit} for q, v in rep.tsallis],
        }

    record = {"series": series_id, "units": "bits" if bits else "nats", **values(report)}
    if windows is not None:
        record["windows"] = [dict(start=start, end=end, **values(w)) for (start, end), w in windows]
    return record


def _entropy_block_text(rec: dict) -> list[str]:
    lines = [f"series: {rec['series']}  n={rec['n_obs']}  bins={rec['bins']}"]
    lines.append(f"  shannon  {_fmt6(rec['shannon'])}")

    orders = [r["order"] for r in rec["renyi"]]
    indices = [t["index"] for t in rec["tsallis"]]
    if orders == indices:
        rows = [("index", "renyi", "tsallis")]
        for r, t in zip(rec["renyi"], rec["tsallis"]):
            rows.append((_fmt6(r["order"]), _fmt6(r["value"]), _fmt6(t["value"])))
    else:
        rows = [("estimator", "order", "value")]
        for r in rec["renyi"]:
            rows.append(("renyi", _fmt6(r["order"]), _fmt6(r["value"])))
        for t in rec["tsallis"]:
            rows.append(("tsallis", _fmt6(t["index"]), _fmt6(t["value"])))
    lines.append("")
    lines.extend(_table(rows))

    if "windows" in rec:
        lines.append("")
        header = ("start", "end", "shannon",
                  *(f"renyi({_fmt6(a)})" for a in orders),
                  *(f"tsallis({_fmt6(q)})" for q in indices))
        rows = [header]
        for w in rec["windows"]:
            rows.append((w["start"], w["end"], _fmt6(w["shannon"]),
                         *(_fmt6(r["value"]) for r in w["renyi"]),
                         *(_fmt6(t["value"]) for t in w["tsallis"])))
        lines.extend(_table(rows))
    return lines


def render_entropy_report(results: list[dict], manifest: dict, fmt: str = "text") -> str:
    """`entropy_record` results: Shannon value plus the Renyi/Tsallis grid for each series."""
    if fmt == "tree":
        return _dump_tree({"manifest": manifest, "results": results})

    units = next((r["units"] for r in results), "nats")
    lines = [f"entropy report (units: {units})", ""]
    for rec in results:
        lines.extend(_entropy_block_text(rec))
        lines.append("")
    lines.extend(_manifest_text(manifest))
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- simulate report

def render_simulate_report(manifest: dict, out_path: str, n: int,
                           fmt: str = "text") -> str:
    """Confirmation of a written simulation file, with its digest."""
    digest = file_digest(out_path)
    if fmt == "tree":
        return _dump_tree({
            "manifest": manifest,
            "output": {"path": str(out_path), "n": n, "sha256": digest},
        })
    lines = [
        "simulate report",
        f"  wrote {n} returns to {out_path}",
        f"  sha256: {digest}",
        "",
    ]
    lines.extend(_manifest_text(manifest))
    return "\n".join(lines) + "\n"
