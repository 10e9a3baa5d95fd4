"""Command-line interface: ``fit``, ``entropy``, ``simulate``.

Exit codes: 0 on success, 1 for input/validation problems, 2 when a fit ran
but failed to converge or raised an error, which its cell of the report
records (the report is still emitted).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

# Only what the parser reads is imported here, so --help and a usage error
# load no numpy.  Each command imports what it computes with.
from .config import (
    DEFAULT_BURN_IN,
    DEFAULT_ORDER_GRID,
    DEFAULT_TRUNCATION,
    INNOVATIONS,
    FitConfig,
    ModelFamily,
)
from .errors import DegenerateSupportError, DomainError, VolentropyError

if TYPE_CHECKING:
    from .series import ReturnSeries

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2

# parsed flags a manifest's config leaves out: the subcommand and its handler,
# the inputs (recorded as digests), the seed (its own field) and where a
# report is written, which does not shape it
_UNRECORDED = frozenset({"command", "func", "input", "seed", "report_path"})


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1.

    Exit code 2 is reserved for estimation that ran but did not converge,
    so flag mistakes must not collide with it.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _float_list(text: str) -> list[float]:
    try:
        return [float(item) for item in _csv_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _add_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True,
                     help="input file(s), comma-separated")
    sub.add_argument("--returns", action="store_true",
                     help="inputs already contain log-returns (skip price conversion)")
    sub.add_argument("--date-col", default="date", help="date column name")
    sub.add_argument("--price-col", default="close", help="price column name")
    sub.add_argument("--value-col", default="return",
                     help="return column name in --returns mode")
    sub.add_argument("--format", choices=("text", "tree"), default="text",
                     help="report style: aligned text or JSON tree")
    sub.add_argument("--output", dest="report_path", metavar="OUTPUT", default=None,
                     help="write the report here instead of stdout")
    sub.add_argument("--seed", type=int, default=0, help="seed for any randomized step")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="volentropy",
        description="Volatility-model fitting and entropy analysis of return series.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit GARCH/IGARCH/FIGARCH models by maximum likelihood")
    _add_io_options(p_fit)
    p_fit.add_argument("--family", default="garch",
                       help="comma-separated families from {garch,igarch,figarch}")
    p_fit.add_argument("--innovation", choices=INNOVATIONS, default=FitConfig.innovation)
    p_fit.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION,
                       help="ARCH(inf) truncation horizon")
    p_fit.add_argument("--restarts", type=int, default=FitConfig.restarts,
                       help="extra jittered optimizer starts")
    p_fit.add_argument("--d-fixed", type=float, default=None,
                       help="pin the FIGARCH fractional parameter instead of estimating it")
    p_fit.add_argument("--max-iters", type=int, default=FitConfig.max_iters)
    p_fit.add_argument("--tol", type=float, default=FitConfig.tol)
    p_fit.set_defaults(func=cmd_fit)

    p_ent = sub.add_parser("entropy", help="histogram-based Shannon/Renyi/Tsallis entropies")
    _add_io_options(p_ent)
    p_ent.add_argument("--bins", type=int, default=None,
                       help="histogram cell count (default: ceil(sqrt(n)))")
    p_ent.add_argument("--alpha", type=_float_list, default=list(DEFAULT_ORDER_GRID),
                       help="Renyi orders, comma-separated")
    p_ent.add_argument("--q", type=_float_list, default=list(DEFAULT_ORDER_GRID),
                       help="Tsallis indices, comma-separated")
    p_ent.add_argument("--bits", action="store_true",
                       help="display entropies in bits instead of nats")
    p_ent.add_argument("--window", type=int, default=None,
                       help="also report entropies over rolling windows of this length")
    p_ent.add_argument("--step", type=int, default=None,
                       help="window start spacing (default: the window length)")
    p_ent.set_defaults(func=cmd_entropy)

    p_sim = sub.add_parser("simulate", help="generate a synthetic return series")
    p_sim.add_argument("--family", choices=[f.value for f in ModelFamily], required=True)
    p_sim.add_argument("--omega", type=float, required=True)
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--beta", type=float, required=True)
    p_sim.add_argument("--d", type=float, default=None,
                       help="fractional parameter (FIGARCH; fixed at 0/1 for GARCH/IGARCH)")
    p_sim.add_argument("--nu", type=float, default=None,
                       help="Student-t degrees of freedom (default: Gaussian innovations)")
    p_sim.add_argument("--n", type=int, required=True, help="observations to keep")
    p_sim.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN)
    p_sim.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", required=True, help="destination returns file")
    p_sim.add_argument("--format", choices=("text", "tree"), default="text")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


# ------------------------------------------------------------------- loading

def _load_series(args) -> list[ReturnSeries]:
    from .series import load_prices, load_returns, to_log_returns

    paths = _csv_list(args.input)
    if not paths:
        raise DomainError(f"--input names no file: {args.input!r}")
    out = []
    for path in paths:
        name = Path(path).stem
        if args.returns:
            series = load_returns(path, date_col=args.date_col,
                                  value_col=args.value_col, series_id=name)
        else:
            points = load_prices(path, date_col=args.date_col, price_col=args.price_col)
            series = to_log_returns(points, series_id=name, source=path)
        out.append(series)
    return out


def _manifest(args, **resolved) -> dict:
    """The run manifest: every parsed flag but ``_UNRECORDED``, with ``resolved`` values."""
    from .report import make_manifest

    config = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
    return make_manifest(args.command, _csv_list(getattr(args, "input", "")),
                         {**config, **resolved}, seed=args.seed)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


# ----------------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    from .estimation import fit, persistence_check
    from .report import fit_record, render_fit_report

    families = [ModelFamily.from_string(name) for name in _csv_list(args.family)]
    if not families:
        raise DomainError("at least one family is required")

    if args.d_fixed is not None and ModelFamily.FIGARCH not in families:
        raise DomainError("--d-fixed applies only to --family figarch")
    # built before any input is read, so a bad flag fails first; --d-fixed
    # constrains the FIGARCH fits only
    configs = [FitConfig(
        family=family,
        innovation=args.innovation,
        T=args.truncation,
        max_iters=args.max_iters,
        tol=args.tol,
        restarts=args.restarts,
        seed=args.seed,
        d_fixed=args.d_fixed if family.pinned_d is None else None,
    ) for family in families]

    series_list = _load_series(args)

    results: list[dict] = []
    all_converged = True
    for config in configs:
        family = config.family
        for series in series_list:
            try:
                result = fit(series, config)
            except VolentropyError as exc:  # recorded in its cell: the other fits still run
                results.append(fit_record(series.id, family.value, error=str(exc)))
                all_converged = False
                continue
            check = persistence_check(result) if family is ModelFamily.GARCH else None
            results.append(fit_record(series.id, family.value, result, persistence=check))
            if not result.converged:
                all_converged = False

    manifest = _manifest(args, family=[f.value for f in families])
    _emit(render_fit_report(results, manifest, fmt=args.format), args.report_path)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


# ------------------------------------------------------------------- entropy

def cmd_entropy(args) -> int:
    from numpy.lib.stride_tricks import sliding_window_view

    from .entropy import FiniteVarianceWarning, _reports, entropy_report
    from .report import entropy_record, render_entropy_report

    if args.step is not None and args.window is None:
        raise DomainError("--step requires --window")
    if args.window is not None and args.window < 2:
        raise DomainError(f"--window must be >= 2, got {args.window}")
    if args.step is not None and args.step < 1:
        raise DomainError(f"--step must be >= 1, got {args.step}")

    series_list = _load_series(args)
    alpha_grid = tuple(args.alpha)
    q_grid = tuple(args.q)

    results: list[dict] = []
    with warnings.catch_warnings():
        for series in series_list:
            try:
                rep = entropy_report(series.returns, m=args.bins,
                                     alpha_grid=alpha_grid, q_grid=q_grid)
            except DegenerateSupportError as exc:
                raise DegenerateSupportError(f"series {series.id!r}: {exc}") from exc
            # every series and window has the same orders: say it once per run
            warnings.simplefilter("ignore", FiniteVarianceWarning)
            windows = None
            if args.window is not None:
                if args.window > len(series):
                    raise DomainError(
                        f"--window {args.window} exceeds the {len(series)} observations "
                        f"of series {series.id!r}")
                step = args.step if args.step is not None else args.window
                spans = [(series.dates[start].isoformat(),
                          series.dates[start + args.window - 1].isoformat())
                         for start in range(0, len(series) - args.window + 1, step)]
                try:
                    reports = _reports(sliding_window_view(series.returns, args.window)[::step],
                                       args.bins, alpha_grid, q_grid)
                except DegenerateSupportError as exc:
                    first, last = spans[exc.row]
                    raise DegenerateSupportError(
                        f"series {series.id!r}, window {first} to {last}: {exc}") from exc
                windows = zip(spans, reports)
            results.append(entropy_record(series.id, rep, args.bits, windows))

    _emit(render_entropy_report(results, _manifest(args), fmt=args.format), args.report_path)
    return EXIT_OK


# ------------------------------------------------------------------ simulate

def cmd_simulate(args) -> int:
    from .models import ParamVector
    from .report import render_simulate_report
    from .simulation import SimConfig, simulate_path

    family = ModelFamily(args.family)
    d = args.d if args.d is not None else (family.pinned_d or 0.0)  # FIGARCH: 0 unless --d
    params = ParamVector(args.omega, args.alpha, args.beta, d=d, nu=args.nu)
    config = SimConfig(family, params, n=args.n, burn_in=args.burn_in,
                       T=args.truncation, seed=args.seed)
    series, _ = simulate_path(config)

    lines = ["date,return"]
    lines.extend(f"{date.isoformat()},{value!r}"
                 for date, value in zip(series.dates, series.returns.tolist()))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")

    sys.stdout.write(render_simulate_report(_manifest(args, d=d), args.output, len(series),
                                            fmt=args.format))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: a size flag without a cap (--burn-in, --truncation) too large
    # to allocate
    except (VolentropyError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
