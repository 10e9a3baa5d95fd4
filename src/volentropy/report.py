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
from dataclasses import dataclass

import numpy as np

from . import __version__
from .entropy import EntropyReport
from .estimation import FitResult, PersistenceCheck

__all__ = [
    "EntropyEntry",
    "FitEntry",
    "file_digest",
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

@dataclass(frozen=True)
class FitEntry:
    """One (series, family) fit cell: a result or a failure message."""

    series_id: str
    family: str
    result: FitResult | None
    persistence: PersistenceCheck | None = None
    error: str | None = None


def _estimate_cell(res: FitResult, name: str) -> str:
    value = getattr(res.params, name)
    star = _STARS.get((res.significance or {}).get(name, "none"), "")
    return _fmt6(value) + star


def _stderr_cell(res: FitResult, name: str) -> str:
    if res.stderr is None or name not in res.stderr:
        return ""
    return f"({_fmt6(res.stderr[name])})"


def _fit_block_text(family: str, entries: list[FitEntry]) -> list[str]:
    lines = [f"family: {family}"]
    fitted = [e for e in entries if e.result is not None]
    rows: list[tuple[str, ...]] = [("parameter", *(e.series_id for e in entries))]

    names: tuple[str, ...] = ()
    for e in fitted:
        if len(e.result.names) > len(names):
            names = e.result.names
    for name in names:
        rows.append((name, *(
            _estimate_cell(e.result, name) if e.result is not None and name in e.result.names
            else "-"
            for e in entries)))
        stderr_row = tuple(
            _stderr_cell(e.result, name) if e.result is not None else ""
            for e in entries)
        if any(stderr_row):
            rows.append(("", *stderr_row))

    rows.append(("log-likelihood", *(
        _fmt6(e.result.loglik) if e.result is not None else "-" for e in entries)))
    rows.append(("observations", *(
        str(e.result.n_obs) if e.result is not None else "-" for e in entries)))
    if any(e.persistence is not None for e in entries):
        rows.append(("alpha+beta", *(
            _fmt6(e.persistence.total) + (" [flagged]" if e.persistence.flag else "")
            if e.persistence is not None else "-"
            for e in entries)))
    rows.append(("converged", *(
        ("yes" if e.result.converged else "no") if e.result is not None else "-"
        for e in entries)))

    lines.extend(_table(rows))
    for e in entries:
        if e.error is not None:
            lines.append(f"  failed: {e.series_id} - {e.error}")
    return lines


def _persistence_dict(p: PersistenceCheck | None) -> dict | None:
    if p is None:
        return None
    return {"total": p.total, "stderr": p.stderr, "flagged": p.flag,
            "recommendation": p.recommendation}


def _fit_entry_dict(e: FitEntry) -> dict:
    base = {"series": e.series_id, "family": e.family, "error": e.error}
    res = e.result
    if res is None:
        return base
    base.update({
        "innovation": res.innovation,
        "n_obs": res.n_obs,
        "mean": res.mean,
        "free_params": list(res.names),
        "params": res.params.as_dict(),
        "stderr": res.stderr,
        "pvalues": res.pvalues,
        "significance": res.significance,
        "loglik": res.loglik,
        "iterations": res.iterations,
        "converged": res.converged,
        "persistence": _persistence_dict(e.persistence),
        "diagnostics": res.diagnostics,
    })
    return base


def render_fit_report(entries: list[FitEntry], manifest: dict,
                      fmt: str = "text") -> str:
    """Fit results as one block per family with one column per series."""
    if fmt == "tree":
        return _dump_tree({
            "manifest": manifest,
            "results": [_fit_entry_dict(e) for e in entries],
        })

    lines = ["fit report", ""]
    seen: list[str] = []
    for e in entries:
        if e.family not in seen:
            seen.append(e.family)
    for family in seen:
        lines.extend(_fit_block_text(family, [e for e in entries if e.family == family]))
        lines.append("")
    lines.append("significance: ** at 1%, * at 5%")
    lines.append("")
    lines.extend(_manifest_text(manifest))
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- entropy report

@dataclass(frozen=True)
class EntropyEntry:
    """Entropy results for one series, optionally with windowed sub-reports.

    ``windows`` pairs a (start-date, end-date) label with each window's
    report, in window order.
    """

    series_id: str
    report: EntropyReport
    windows: tuple[tuple[tuple[str, str], EntropyReport], ...] | None = None


def _scaled(value: float, bits: bool) -> float:
    return value / _LN2 if bits else value


def _entropy_report_dict(rep: EntropyReport, bits: bool) -> dict:
    return {
        "n_obs": rep.n_obs,
        "bins": rep.bins,
        "empty_cells": rep.empty_cells,
        "cell_width": rep.cell_width,
        "shannon": _scaled(rep.shannon, bits),
        "renyi": [{"order": a, "value": _scaled(v, bits)} for a, v in rep.renyi],
        "tsallis": [{"index": q, "value": _scaled(v, bits)} for q, v in rep.tsallis],
    }


def _entropy_block_text(entry: EntropyEntry, bits: bool) -> list[str]:
    rep = entry.report
    lines = [f"series: {entry.series_id}  n={rep.n_obs}  bins={rep.bins}"]
    lines.append(f"  shannon  {_fmt6(_scaled(rep.shannon, bits))}")

    orders = [a for a, _ in rep.renyi]
    indices = [q for q, _ in rep.tsallis]
    if orders == indices:
        rows = [("index", "renyi", "tsallis")]
        for (a, rv), (_, tv) in zip(rep.renyi, rep.tsallis):
            rows.append((_fmt6(a), _fmt6(_scaled(rv, bits)), _fmt6(_scaled(tv, bits))))
    else:
        rows = [("estimator", "order", "value")]
        for a, v in rep.renyi:
            rows.append(("renyi", _fmt6(a), _fmt6(_scaled(v, bits))))
        for q, v in rep.tsallis:
            rows.append(("tsallis", _fmt6(q), _fmt6(_scaled(v, bits))))
    lines.append("")
    lines.extend(_table(rows))

    if entry.windows is not None:
        lines.append("")
        header = ("start", "end", "shannon",
                  *(f"renyi({_fmt6(a)})" for a in orders),
                  *(f"tsallis({_fmt6(q)})" for q in indices))
        rows = [header]
        for (start, end), wrep in entry.windows:
            rows.append((start, end, _fmt6(_scaled(wrep.shannon, bits)),
                         *(_fmt6(_scaled(v, bits)) for _, v in wrep.renyi),
                         *(_fmt6(_scaled(v, bits)) for _, v in wrep.tsallis)))
        lines.extend(_table(rows))
    return lines


def render_entropy_report(entries: list[EntropyEntry], manifest: dict,
                          fmt: str = "text", bits: bool = False) -> str:
    """Shannon value plus the Renyi/Tsallis grid for each series."""
    units = "bits" if bits else "nats"
    if fmt == "tree":
        results = []
        for e in entries:
            rec = {"series": e.series_id, "units": units}
            rec.update(_entropy_report_dict(e.report, bits))
            if e.windows is not None:
                rec["windows"] = [
                    dict(start=start, end=end, **_entropy_report_dict(w, bits))
                    for (start, end), w in e.windows
                ]
            results.append(rec)
        return _dump_tree({"manifest": manifest, "results": results})

    lines = [f"entropy report (units: {units})", ""]
    for e in entries:
        lines.extend(_entropy_block_text(e, bits))
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
