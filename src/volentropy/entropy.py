"""Equidistant-cell histograms and Shannon/Renyi/Tsallis entropy estimators.

All entropies are computed over the discrete cell-probability vector and
reported in nats.  No differential-entropy correction (adding the log of the
cell width) is applied, so the values are nonnegative and bounded by ``ln m``
for ``m`` cells.

Binning writes out numpy's histogram rule for ``m`` equal bins over
``(min, max)``, with numpy's edges and counts bit for bit: edges
``linspace(lo, hi, m + 1)``; cell ``int((x - lo) / (hi - lo) * m)`` with the
maximum kept in the last cell; a one-ulp correction against the edges (a value
below its cell's left edge moves down, one at or above its right edge moves up
unless its cell is the last); counts by ``bincount``.  One sample is binned as
a vector, whose last cell takes +inf as its right edge in that correction, and
a matrix of samples (one per row, such as rolling windows) in blocks of rows.
Every histogram passes the :class:`Histogram` invariants: a report checks the
cells of one sample as it checks those of a block of rows, with the same
``_check_cells`` and no :class:`Histogram`, which only :func:`build_histogram`
(and :meth:`Histogram.from_counts`) builds.  A certain event, one occupied
cell, is +0 in every family.

All entropies of one histogram come out of one block over the occupied-cell
probabilities ``p``: ``log p`` once, then the Renyi orders and the Tsallis
indices as rows of an orders x cells matrix (``alpha * log p`` with a
max-shifted log-sum, ``p ** q``).  numpy sums each row with the same pairwise
summation as a 1-D sum, so every value equals the one-order value of
:func:`renyi` or :func:`tsallis`, which are one-row calls of the block.
Reports also give each histogram's occupancy: ``empty_cells`` and
``cell_width``.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_ORDER_GRID
from .errors import DegenerateSupportError, DomainError, _integer
from .series import _as_returns

__all__ = [
    "DEFAULT_ORDER_GRID",
    "EntropyReport",
    "FiniteVarianceWarning",
    "Histogram",
    "MAX_BINS",
    "build_histogram",
    "entropy_report",
    "renyi",
    "shannon",
    "tsallis",
]

# Tsallis indices for finite-variance data belong to [1, 5/3); outside that
# window the estimator is still defined, so we warn rather than refuse.
_Q_LOW, _Q_HIGH = 1.0, 5.0 / 3.0

# orders/indices within this distance of 1 are routed through the Shannon
# branch (the analytic limit of both families)
_ONE_TOL = 1e-8

_EQUIDISTANT_RTOL = 1e-12

# log p > -745 for every positive double p, so alpha * log p cannot overflow
# at Renyi orders up to this one
_OVERFLOW_ORDER = float(np.finfo(float).max) / 745.0

# the largest bin count: a histogram takes about 40 bytes a cell while it is
# built and checked, so this many take about 42 MB, and the default ceil(sqrt(n))
# reaches it only past 1.1e12 observations
MAX_BINS = 1 << 20

# sample matrices are binned in blocks of about this many values: 500-point
# windows bin as fast in blocks of 2**14 to 2**20 values, and larger blocks
# only hold more memory
_BLOCK_VALUES = 1 << 14


class FiniteVarianceWarning(UserWarning):
    """A Tsallis index lies outside [1, 5/3), the finite-variance window."""


@np.errstate(over="ignore", invalid="ignore")  # not finite: fails a test below
def _check_cells(edges: np.ndarray, probs: np.ndarray) -> None:
    """The :class:`Histogram` invariants along the last axis: of one histogram, or of every row.

    Each test fails on NaN (``min`` carries it, and every comparison with it
    is false), and a span that is not finite, from an infinite edge or
    widths whose sum overflows, is named before the cells' equidistance.
    """
    widths = edges[..., 1:] - edges[..., :-1]
    if not widths.min() > 0:
        raise DomainError("edges must be strictly increasing")
    mean_width = widths.sum(axis=-1) / widths.shape[-1]
    finite = mean_width < math.inf
    if not ((np.abs(widths - mean_width[..., None]).max(axis=-1)
             <= _EQUIDISTANT_RTOL * mean_width) & finite).all():
        raise DomainError("cells must be equidistant" if finite.all()
                          else "edges must span a finite width")
    if not probs.min() >= 0:
        raise DomainError("cell probabilities must be nonnegative")
    total = probs.sum(axis=-1)
    close = abs(total - 1.0) <= 1e-12
    if not close.all():
        raise DomainError(f"cell probabilities must sum to 1, got {float(total[~close][0])}")


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counts and probabilities over equidistant cells.

    ``edges`` has length ``m + 1`` and strictly increasing, equally spaced
    entries; ``counts`` and ``probs`` have length ``m``.  Instances are
    immutable and safe to share across concurrent entropy evaluations.
    """

    edges: np.ndarray
    counts: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "probs", probs)

        if edges.ndim != 1 or edges.size < 2:
            raise DomainError("edges must be a 1-D vector of at least two boundaries")
        m = edges.size - 1
        if counts.shape != (m,) or probs.shape != (m,):
            raise DomainError(
                f"counts and probs must have length {m} to match {m + 1} edges"
            )
        _check_cells(edges, probs)

    @property
    def m(self) -> int:
        """Number of cells."""
        return self.counts.size

    @property
    def n(self) -> int:
        """Number of binned observations."""
        return int(self.counts.sum())

    @classmethod
    def from_counts(cls, counts, lo: float = 0.0, hi: float = 1.0) -> "Histogram":
        """Build a histogram from raw cell counts over [lo, hi]."""
        c = np.asarray(counts)
        total = int(c.sum())
        if total <= 0:
            raise DomainError("counts must sum to a positive total")
        edges = np.linspace(lo, hi, c.size + 1)
        return cls(edges=edges, counts=c, probs=c / total)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy values for one series: Shannon plus Renyi/Tsallis grids.

    ``renyi`` and ``tsallis`` are (order, value) pairs in grid order; values
    are in nats.  ``empty_cells`` counts the cells no observation fell in and
    ``cell_width`` is the common width of the ``bins`` cells, in the units of
    the sample.
    """

    shannon: float
    renyi: tuple[tuple[float, float], ...]
    tsallis: tuple[tuple[float, float], ...]
    bins: int
    n_obs: int
    empty_cells: int
    cell_width: float


# ------------------------------------------------------------------- binning

def _bin_count(m) -> int:
    """``m`` as a bin count: :class:`DomainError` unless it is an integer in 1..MAX_BINS."""
    m = _integer(m, "bin count")
    if m > MAX_BINS:
        raise DomainError(f"bin count must be at most MAX_BINS = {MAX_BINS}, got {m}")
    return m


def _unbinnable(lo: float, hi: float, n: int, row: int) -> DomainError | DegenerateSupportError:
    """The error of a support [lo, hi] of ``n`` values with no room for cells."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return DomainError("sample contains non-finite values")
    if lo == hi:
        return DegenerateSupportError(
            f"all {n} observations equal {lo!r}; histogram support has zero width", row)
    return DegenerateSupportError(
        f"support [{lo!r}, {hi!r}] is too wide: its width overflows a double", row)


def _bin_one(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges, counts and probabilities of one sample vector, binned as :func:`_bin` bins a row."""
    lo, hi = float(x.min()), float(x.max())
    width = hi - lo
    if not 0.0 < width < math.inf:
        raise _unbinnable(lo, hi, x.size, 0)
    edges = np.arange(m + 1.0) * (width / m) + lo
    edges[-1] = hi
    cell = np.minimum(((x - lo) / width * m).astype(np.intp), m - 1)
    cell -= x < edges[cell]
    # right edges with +inf for the last cell, which keeps the maximum
    right = edges[1:].copy()
    right[-1] = math.inf
    cell += x >= right[cell]
    counts = np.bincount(cell, minlength=m)
    return edges, counts, counts / x.size


def _bin(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges, counts and probabilities of each row of a sample matrix.

    A support of zero width, or one whose width overflows, raises
    :class:`DegenerateSupportError` naming the first such row; the callers
    check the rows against the :class:`Histogram` invariants.
    """
    k, n = x.shape
    lo, hi = x.min(axis=1), x.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
    # min and max carry a row's NaN or infinity into its width, which is also
    # infinite when hi - lo overflows
    binnable = (width > 0.0) & (width < math.inf)
    if not binnable.all():
        i = int(np.argmin(binnable))
        raise _unbinnable(float(lo[i]), float(hi[i]), n, i)

    # np.linspace(lo, hi, m + 1) of each row, as linspace computes it
    edges = np.arange(m + 1.0) * (width / m)[:, None] + lo[:, None]
    edges[:, -1] = hi
    cell = np.minimum(((x - lo[:, None]) / width[:, None] * m).astype(np.intp), m - 1)
    # left edge of each cell in edges.ravel(), where row i starts at i * (m + 1)
    row = np.arange(k)[:, None]
    first = row * (m + 1)
    left = cell + first
    flat = edges.ravel()
    left -= x < flat[left]
    left += (x >= flat[left + 1]) & (left != first + (m - 1))
    # and in the counts, where row i starts at i * m
    counts = np.bincount((left - row).ravel(), minlength=k * m).reshape(k, m)
    return edges, counts, counts / n


def _too_narrow(m: int, exc: DomainError, row: int) -> DegenerateSupportError:
    # binned probabilities always hold, so the edges failed the Histogram
    # invariants: rounding at the magnitude of the data leaves no room for m
    # equal cells
    return DegenerateSupportError(
        f"support is too narrow for {m} equal cells at the magnitude of its values ({exc})", row)


def build_histogram(returns, m: int) -> Histogram:
    """Bin a sample into ``m`` equidistant cells spanning [min, max].

    All cells are closed on the left and open on the right except the last,
    which also includes the maximum, so every observation lands in exactly
    one cell.  A sample with zero range, or a range that cannot hold ``m``
    distinct equal cells, raises :class:`DegenerateSupportError`; an ``m``
    above ``MAX_BINS`` (2**20) raises :class:`DomainError` before anything
    is allocated.
    """
    x = _as_returns(returns)
    m = _bin_count(m)
    edges, counts, probs = _bin_one(x, m)
    try:
        return Histogram(edges=edges, counts=counts, probs=probs)
    except DomainError as exc:
        raise _too_narrow(m, exc, 0) from exc


# --------------------------------------------------------------------- block

class _Orders(NamedTuple):
    """A validated grid of Renyi orders or Tsallis indices."""

    values: tuple             # the orders as floats
    column: np.ndarray        # the orders as a (k, 1) column
    denominator: np.ndarray   # 1 - alpha or q - 1; 1 on the Shannon rows
    shannon: tuple            # rows within _ONE_TOL of 1: report the Shannon value
    exact: tuple              # (row, ufunc) pairs, see _EXACT_POWERS
    overflow: bool            # a Renyi order above _OVERFLOW_ORDER
    outside: tuple            # Tsallis indices outside [1, 5/3), each warned of per report


# numpy evaluates p ** 2.0 and p ** 0.5 with a scalar exponent as square and
# sqrt, which round differently from its pow; Tsallis rows at these indices
# use the same ufuncs, so that they equal the one-index value
_EXACT_POWERS = {2.0: np.square, 0.5: np.sqrt}


# what an order grid's errors call it, by its ``tsallis`` flag
_GRID_NAMES = ("Renyi orders (alpha_grid)", "Tsallis indices (q_grid)")


@functools.lru_cache(maxsize=64)
def _orders(grid: tuple, tsallis: bool) -> _Orders:
    # cached: scalar calls and rolling windows validate the same grids again
    # and again; the cached arrays are read-only
    denominator, shannon, exact = [], [], []
    for row, v in enumerate(grid):
        if not isinstance(v, numbers.Real):
            raise DomainError(f"{_GRID_NAMES[tsallis]} must be real numbers, got {v!r}")
        if tsallis and not 0.0 <= v < math.inf:
            raise DomainError(f"Tsallis index must be nonnegative, got {v}")
        if not tsallis and not 0.0 < v < math.inf:
            raise DomainError(f"Renyi order must be positive, got {v}")
        d = v - 1.0 if tsallis else 1.0 - v
        if abs(d) <= _ONE_TOL:
            shannon.append(row)
            d = 1.0
        denominator.append(d)
        if tsallis and v in _EXACT_POWERS:
            exact.append((row, _EXACT_POWERS[v]))
    column = np.array(grid, dtype=float).reshape(-1, 1)
    denominator = np.array(denominator)
    column.flags.writeable = denominator.flags.writeable = False
    values = tuple(column[:, 0].tolist())
    overflow = not tsallis and any(v > _OVERFLOW_ORDER for v in values)
    outside = tuple(v for v in values if not _Q_LOW <= v < _Q_HIGH) if tsallis else ()
    return _Orders(values, column, denominator, tuple(shannon), tuple(exact), overflow, outside)


def _validated(grid: tuple, tsallis: bool) -> _Orders:
    """:func:`_orders` of ``grid``; an entry that cannot be hashed, such as a
    list or an array, is no real number either: :class:`DomainError`."""
    try:
        return _orders(grid, tsallis)
    except TypeError:
        raise DomainError(f"{_GRID_NAMES[tsallis]} must be real numbers, "
                          f"got {grid!r}") from None


_NONE = _orders((), tsallis=False)
_EMPTY = _NONE.denominator


def _renyi_rows(logp: np.ndarray, alphas: _Orders) -> tuple[np.ndarray, np.ndarray]:
    """Renyi values of the orders, and each row's largest ``alpha * log p``."""
    # max-shifted log-sum: the largest term of each row is exp(0) = 1, so no
    # sum can underflow to zero even when every p_i**alpha would
    z = alphas.column * logp
    z_max = z.max(axis=1)
    return (z_max + np.log(np.exp(z - z_max[:, None]).sum(axis=1))) / alphas.denominator, z_max


def _block(p: np.ndarray, alphas: _Orders, qs: _Orders, shannon: bool = True
           ) -> tuple[float, np.ndarray, np.ndarray]:
    """Shannon value, Renyi grid and Tsallis grid of one histogram.

    ``p`` holds the probabilities of the occupied cells only.  The Shannon
    value is computed when ``shannon`` asks for it or an order within
    ``_ONE_TOL`` of 1 reports it, and is NaN otherwise.  A certain event (one
    occupied cell) is +0 in every family, where the sums would give -0.0.
    """
    if p.size == 1:
        return 0.0, np.zeros(alphas.column.shape[0]), np.zeros(qs.column.shape[0])
    shannon = shannon or bool(alphas.shannon or qs.shannon)
    logp = np.log(p) if shannon or alphas.column.size else None
    s = float(-(p * logp).sum()) if shannon else math.nan
    r = t = _EMPTY
    if alphas.column.size:
        if alphas.overflow:
            with np.errstate(over="ignore", invalid="ignore"):
                r, z_max = _renyi_rows(logp, alphas)
            # where alpha * log p_max overflows, so does every alpha * log p of
            # the row: its value is the alpha -> infinity limit, -log p_max
            r[z_max == -math.inf] = -logp.max()
        else:
            r = _renyi_rows(logp, alphas)[0]
        if alphas.shannon:
            r[list(alphas.shannon)] = s
    if qs.column.size:
        pq = p ** qs.column
        for row, power in qs.exact:
            pq[row] = power(p)
        t = (1.0 - pq.sum(axis=1)) / qs.denominator
        if qs.shannon:
            t[list(qs.shannon)] = s
    return s, r, t


def _positive_probs(h: Histogram) -> np.ndarray:
    # empty cells contribute 0 to every entropy sum
    if not isinstance(h, Histogram):
        raise DomainError(f"entropies are taken of a Histogram, got {type(h).__name__}")
    p = h.probs
    return p[p > 0.0]


def shannon(h: Histogram) -> float:
    """-sum p_i ln p_i over the occupied cells, in nats."""
    return _block(_positive_probs(h), _NONE, _NONE)[0]


def renyi(h: Histogram, alpha: float) -> float:
    """ln(sum p_i**alpha) / (1 - alpha) for alpha > 0, in nats.

    Orders within 1e-8 of 1 are evaluated as Shannon entropy, the analytic
    limit at alpha = 1.
    """
    return float(_block(_positive_probs(h), _validated((alpha,), tsallis=False), _NONE,
                        shannon=False)[1][0])


def tsallis(h: Histogram, q: float) -> float:
    """(1 - sum p_i**q) / (q - 1) for q >= 0.

    Indices within 1e-8 of 1 are evaluated as Shannon entropy, the analytic
    limit at q = 1.
    """
    return float(_block(_positive_probs(h), _NONE, _validated((q,), tsallis=True),
                        shannon=False)[2][0])


# ------------------------------------------------------------------- reports

def _as_grid(grid, tsallis: bool) -> tuple:
    """An order grid as a tuple (a generator works); :class:`DomainError`
    naming the grid unless it is iterable."""
    try:
        return tuple(grid)
    except TypeError:
        raise DomainError(f"{_GRID_NAMES[tsallis]} must be an iterable of real numbers, "
                          f"got {grid!r}") from None


def _grids(n: int, m: int | None, alpha_grid, q_grid) -> tuple[int, _Orders, _Orders]:
    """Bin count (ceil(sqrt(n)) by default) and order grids of reports on ``n``-value samples;
    each Tsallis index outside [1, 5/3) warns at the caller of the report function."""
    alpha_grid, q_grid = _as_grid(alpha_grid, tsallis=False), _as_grid(q_grid, tsallis=True)
    if not alpha_grid or not q_grid:
        raise DomainError("order grids must be nonempty")
    m = _bin_count(math.ceil(math.sqrt(n)) if m is None else m)
    alphas, qs = _validated(alpha_grid, tsallis=False), _validated(q_grid, tsallis=True)
    for q in qs.outside:
        warnings.warn(
            f"Tsallis index q={q:g} lies outside [1, 5/3), the index window "
            f"for finite-variance data",
            FiniteVarianceWarning,
            stacklevel=3,  # 1 is here, 2 the report function, 3 its caller
        )
    return m, alphas, qs


def _report(probs: np.ndarray, n: int, empty: int, width: float,
            alphas: _Orders, qs: _Orders) -> EntropyReport:
    """The report of a histogram's ``probs``, its empty cells and its cell width."""
    s, r, t = _block(probs[probs > 0.0], alphas, qs)
    return EntropyReport(shannon=s, renyi=tuple(zip(alphas.values, r.tolist())),
                         tsallis=tuple(zip(qs.values, t.tolist())), bins=probs.size,
                         n_obs=n, empty_cells=empty, cell_width=width)


def _reports(x: np.ndarray, m: int | None, alpha_grid, q_grid) -> tuple[EntropyReport, ...]:
    """:func:`entropy_report` of each row of a 2-D sample matrix.

    Each row, such as one rolling window of a series, gets its own histogram
    over its own range; ``m`` defaults to ceil(sqrt(row length)).  A row
    of zero or overflowing width, or too narrow for ``m`` equal cells,
    raises :class:`DegenerateSupportError` with its index in ``x``.  A
    :class:`FiniteVarianceWarning` points at the caller.
    """
    n = x.shape[1]
    m, alphas, qs = _grids(n, m, alpha_grid, q_grid)
    out = []
    per_block = max(1, _BLOCK_VALUES // n)
    for first in range(0, x.shape[0], per_block):
        try:
            edges, counts, probs = _bin(x[first:first + per_block], m)
        except DegenerateSupportError as exc:
            raise DegenerateSupportError(str(exc), first + exc.row) from None
        try:
            _check_cells(edges, probs)
        except DomainError:
            for i in range(edges.shape[0]):  # each invariant holds row by row: find the first
                try:
                    _check_cells(edges[i], probs[i])
                except DomainError as exc:
                    raise _too_narrow(m, exc, first + i) from exc
            raise
        empty = (counts == 0).sum(axis=1).tolist()
        width = ((edges[:, -1] - edges[:, 0]) / m).tolist()
        out.extend(_report(p, n, e, w, alphas, qs) for p, e, w in zip(probs, empty, width))
    return tuple(out)


def entropy_report(returns, m: int | None = None,
                   alpha_grid: tuple[float, ...] = DEFAULT_ORDER_GRID,
                   q_grid: tuple[float, ...] = DEFAULT_ORDER_GRID) -> EntropyReport:
    """Build one histogram and evaluate all three entropy families on it.

    ``returns`` is a :class:`ReturnSeries` or a sample vector.  ``m``
    defaults to ceil(sqrt(n)) and is at most ``MAX_BINS``.  Tsallis indices
    outside [1, 5/3) emit :class:`FiniteVarianceWarning` but are still
    evaluated.
    """
    x = _as_returns(returns)
    m, alphas, qs = _grids(x.size, m, alpha_grid, q_grid)
    edges, counts, probs = _bin_one(x, m)
    try:
        _check_cells(edges, probs)
    except DomainError as exc:
        raise _too_narrow(m, exc, 0) from exc
    return _report(probs, x.size, m - int(np.count_nonzero(counts)),
                   float(edges[-1] - edges[0]) / m, alphas, qs)
