"""Price ingestion and log-return construction.

Input files are delimited text (comma or tab, auto-detected from the header
line) with ISO-8601 dates.  A file either carries price levels, which are
turned into log-returns here, or carries returns directly (``--returns``
mode at the CLI).
"""

from __future__ import annotations

import csv
import datetime as dt
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    DuplicateDateError,
    InsufficientDataError,
    ParseError,
)

__all__ = ["PricePoint", "ReturnSeries", "load_prices", "load_returns", "to_log_returns"]


@dataclass(frozen=True)
class PricePoint:
    """A single closing observation: calendar date plus positive index level."""

    date: dt.date
    close: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.close) and self.close > 0):
            raise DomainError(f"non-positive price {self.close!r} at {self.date}")


@dataclass(frozen=True)
class ReturnSeries:
    """A timestamped log-return vector with origin metadata.

    ``dates[t]`` is the date the return ``returns[t]`` was realised (the later
    day of each consecutive price pair).  Lengths must agree and every return
    must be finite.
    """

    id: str
    dates: tuple[dt.date, ...]
    returns: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        arr = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "dates", tuple(self.dates))
        if arr.ndim != 1:
            raise DomainError("returns must be a one-dimensional vector")
        if len(self.dates) != arr.size:
            raise DomainError(
                f"length mismatch: {len(self.dates)} dates vs {arr.size} returns"
            )
        if not np.isfinite(arr).all():
            raise DomainError("returns contain NaN or infinite entries")

    def __len__(self) -> int:
        return self.returns.size


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _read_rows(path: str) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Return (header, [(line_number, fields), ...]) for a delimited file."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.strip():
            raise InsufficientDataError(f"no observations in {path}")
        delim = _sniff_delimiter(first)
        header = [c.strip() for c in next(csv.reader([first], delimiter=delim))]
        rows = []
        for lineno, fields in enumerate(csv.reader(fh, delimiter=delim), start=2):
            if not fields or all(not f.strip() for f in fields):
                continue  # skip blank lines
            rows.append((lineno, [f.strip() for f in fields]))
    if not rows:
        raise InsufficientDataError(f"no observations in {path}")
    return header, rows


def _column_index(header: list[str], name: str, path: str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise ParseError(
            f"{path}: column {name!r} not found in header {header}"
        ) from None


def _parse_date(text: str, path: str, lineno: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: bad date {text!r} (want ISO-8601)") from None


def _parse_float(text: str, path: str, lineno: int, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: bad {what} {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: line {lineno}: non-finite {what} {text!r}")
    return value


def _read_dated(path: str, date_col: str, value_col: str, what: str,
                check: Callable[[float, dt.date, int], None] | None = None,
                ) -> list[tuple[dt.date, float]]:
    """(date, value) pairs of a delimited file, sorted by date ascending.

    Each row is checked in turn: field count, date, value, then
    ``check(value, date, lineno)`` when given, then date uniqueness.
    """
    header, rows = _read_rows(path)
    di = _column_index(header, date_col, path)
    vi = _column_index(header, value_col, path)
    width = max(di, vi) + 1

    dated: list[tuple[dt.date, float]] = []
    seen: set[dt.date] = set()
    for lineno, fields in rows:
        if len(fields) < width:
            raise ParseError(
                f"{path}: line {lineno}: expected at least {width} fields, got {len(fields)}"
            )
        date = _parse_date(fields[di], path, lineno)
        value = _parse_float(fields[vi], path, lineno, what)
        if check is not None:
            check(value, date, lineno)
        if date in seen:
            raise DuplicateDateError(f"duplicate date {date} ({path}: line {lineno})")
        seen.add(date)
        dated.append((date, value))

    dated.sort(key=lambda pair: pair[0])
    return dated


def load_prices(
    path: str,
    date_col: str = "date",
    price_col: str = "close",
) -> list[PricePoint]:
    """Load closing prices from a delimited text file.

    Rows are returned sorted by date ascending.  Malformed rows raise
    :class:`ParseError` naming the line, non-positive prices raise
    :class:`DomainError` naming the date, and duplicate dates raise
    :class:`DuplicateDateError`.
    """
    def positive(close: float, date: dt.date, lineno: int) -> None:
        if close <= 0:
            raise DomainError(f"non-positive price {close} at {date} ({path}: line {lineno})")

    dated = _read_dated(path, date_col, price_col, "price", positive)
    return [PricePoint(date=date, close=close) for date, close in dated]


def load_returns(
    path: str,
    date_col: str = "date",
    value_col: str = "return",
    series_id: str | None = None,
) -> ReturnSeries:
    """Load a file that already contains log-returns (``--returns`` mode)."""
    dated = _read_dated(path, date_col, value_col, "return")
    return ReturnSeries(
        id=series_id or path,
        dates=tuple(d for d, _ in dated),
        returns=np.array([v for _, v in dated], dtype=float),
        source=path,
    )


def to_log_returns(
    prices: list[PricePoint],
    series_id: str = "",
    source: str = "",
) -> ReturnSeries:
    """Compute log-returns ln(close[t+1] / close[t]) over consecutive points.

    The output has length ``len(prices) - 1``; each return carries the later
    date of its price pair.  Fewer than two points is an error.
    """
    if len(prices) < 2:
        raise InsufficientDataError(
            f"need at least 2 price points to form returns, got {len(prices)}"
        )
    closes = np.array([p.close for p in prices], dtype=float)
    # ratio-then-log keeps the result invariant (to ~1 ulp) under a common
    # rescaling of all prices, which diff-of-logs does not
    returns = np.log(closes[1:] / closes[:-1])
    dates = tuple(p.date for p in prices[1:])
    return ReturnSeries(id=series_id, dates=dates, returns=returns, source=source)
