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
a vector, a matrix of samples (one per row, such as rolling windows) in blocks
of rows, and every histogram passes the :class:`Histogram` invariants.

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

# sample matrices are binned in blocks of about this many values: 500-point
# windows bin as fast in blocks of 2**14 to 2**20 values, and larger blocks
# only hold more memory
_BLOCK_VALUES = 1 << 14


class FiniteVarianceWarning(UserWarning):
    """A Tsallis index lies outside [1, 5/3), the finite-variance window."""


def _check_cells(edges: np.ndarray, probs: np.ndarray) -> None:
    """The :class:`Histogram` invariants along the last axis: of one histogram, or of every row."""
    widths = edges[..., 1:] - edges[..., :-1]
    if not (widths > 0).all():
        raise DomainError("edges must be strictly increasing")
    mean_width = widths.sum(axis=-1) / widths.shape[-1]
    if (np.abs(widths - mean_width[..., None]).max(axis=-1)
            > _EQUIDISTANT_RTOL * mean_width).any():
        raise DomainError("cells must be equidistant")
    if (probs < 0).any():
        raise DomainError("cell probabilities must be nonnegative")
    total = probs.sum(axis=-1)
    off = np.abs(total - 1.0) > 1e-12
    if off.any():
        raise DomainError(f"cell probabilities must sum to 1, got {total[off][0]!r}")


@dataclass(frozen=True)
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
    cell += (x >= edges[cell + 1]) & (cell != m - 1)
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


def _too_narrow(m: int, exc: DomainError) -> DegenerateSupportError:
    # binned probabilities always hold, so the edges failed the Histogram
    # invariants: rounding at the magnitude of the data leaves no room for m
    # equal cells
    return DegenerateSupportError(
        f"support is too narrow for {m} equal cells at the magnitude of its values ({exc})")


def _histogram(x: np.ndarray, m: int) -> Histogram:
    """The histogram of a validated return vector in ``m`` cells."""
    edges, counts, probs = _bin_one(x, m)
    try:
        return Histogram(edges=edges, counts=counts, probs=probs)
    except DomainError as exc:
        raise _too_narrow(m, exc) from exc


def build_histogram(returns, m: int) -> Histogram:
    """Bin a sample into ``m`` equidistant cells spanning [min, max].

    All cells are closed on the left and open on the right except the last,
    which also includes the maximum, so every observation lands in exactly
    one cell.  A sample with zero range, or a range that cannot hold ``m``
    distinct equal cells, raises :class:`DegenerateSupportError`.
    """
    x = _as_returns(returns)
    return _histogram(x, _integer(m, "bin count"))


# --------------------------------------------------------------------- block

class _Orders(NamedTuple):
    """A validated grid of Renyi orders or Tsallis indices."""

    values: tuple             # the orders as floats
    column: np.ndarray        # the orders as a (k, 1) column
    denominator: np.ndarray   # 1 - alpha or q - 1; 1 on the Shannon rows
    shannon: tuple            # rows within _ONE_TOL of 1: report the Shannon value
    exact: tuple              # (row, ufunc) pairs, see _EXACT_POWERS
    overflow: bool            # a Renyi order above _OVERFLOW_ORDER


# numpy evaluates p ** 2.0 and p ** 0.5 with a scalar exponent as square and
# sqrt, which round differently from its pow; Tsallis rows at these indices
# use the same ufuncs, so that they equal the one-index value
_EXACT_POWERS = {2.0: np.square, 0.5: np.sqrt}


@functools.lru_cache(maxsize=64)
def _orders(grid: tuple, tsallis: bool) -> _Orders:
    # cached: scalar calls and rolling windows validate the same grids again
    # and again; the cached arrays are read-only
    denominator, shannon, exact = [], [], []
    for row, v in enumerate(grid):
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
    overflow = not tsallis and any(v > _OVERFLOW_ORDER for v in grid)
    return _Orders(tuple(column[:, 0].tolist()), column, denominator, tuple(shannon),
                   tuple(exact), overflow)


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
    ``_ONE_TOL`` of 1 reports it, and is NaN otherwise.
    """
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
    return float(_block(_positive_probs(h), _orders((alpha,), tsallis=False), _NONE,
                        shannon=False)[1][0])


def tsallis(h: Histogram, q: float) -> float:
    """(1 - sum p_i**q) / (q - 1) for q >= 0.

    Indices within 1e-8 of 1 are evaluated as Shannon entropy, the analytic
    limit at q = 1.
    """
    return float(_block(_positive_probs(h), _NONE, _orders((q,), tsallis=True),
                        shannon=False)[2][0])


# ------------------------------------------------------------------- reports

def _grids(n: int, m: int | None, alpha_grid, q_grid,
           stacklevel: int) -> tuple[int, _Orders, _Orders]:
    """Bin count (ceil(sqrt(n)) by default) and order grids of reports on ``n``-value samples;
    each Tsallis index outside [1, 5/3) warns at ``stacklevel``, counted from here."""
    if len(alpha_grid) == 0 or len(q_grid) == 0:
        raise DomainError("order grids must be nonempty")
    m = _integer(math.ceil(math.sqrt(n)) if m is None else m, "bin count")
    alphas = _orders(tuple(alpha_grid), tsallis=False)
    qs = _orders(tuple(q_grid), tsallis=True)
    for q in q_grid:
        if not (_Q_LOW <= q < _Q_HIGH):
            warnings.warn(
                f"Tsallis index q={q:g} lies outside [1, 5/3), the index window "
                f"for finite-variance data",
                FiniteVarianceWarning,
                stacklevel=stacklevel,
            )
    return m, alphas, qs


def _report(probs: np.ndarray, n: int, empty: int, width: float,
            alphas: _Orders, qs: _Orders) -> EntropyReport:
    """The report of a histogram's ``probs``, its empty cells and its cell width."""
    s, r, t = _block(probs[probs > 0.0], alphas, qs)
    return EntropyReport(shannon=s, renyi=tuple(zip(alphas.values, r.tolist())),
                         tsallis=tuple(zip(qs.values, t.tolist())), bins=probs.size,
                         n_obs=n, empty_cells=empty, cell_width=width)


def _reports(x: np.ndarray, m: int | None, alpha_grid, q_grid,
             stacklevel: int = 2) -> tuple[EntropyReport, ...]:
    """:func:`entropy_report` of each row of a 2-D sample matrix.

    Each row, such as one rolling window of a series, gets its own histogram
    over its own range; ``m`` defaults to ceil(sqrt(row length)).  A row
    of zero or overflowing width raises :class:`DegenerateSupportError`
    with its index in ``x``.  ``stacklevel`` is that of the
    :class:`FiniteVarianceWarning`, counted from here: 2 points at the caller.
    """
    n = x.shape[1]
    m, alphas, qs = _grids(n, m, alpha_grid, q_grid, stacklevel + 1)
    out = []
    per_block = max(1, _BLOCK_VALUES // n)
    for first in range(0, x.shape[0], per_block):
        try:
            edges, counts, probs = _bin(x[first:first + per_block], m)
        except DegenerateSupportError as exc:
            raise DegenerateSupportError(str(exc), first + exc.row) from None
        try:
            _check_cells(edges, probs)
        except DomainError as exc:
            raise _too_narrow(m, exc) from exc
        empty = (counts == 0).sum(axis=1).tolist()
        width = ((edges[:, -1] - edges[:, 0]) / m).tolist()
        out.extend(_report(p, n, e, w, alphas, qs) for p, e, w in zip(probs, empty, width))
    return tuple(out)


def entropy_report(returns, m: int | None = None,
                   alpha_grid: tuple[float, ...] = DEFAULT_ORDER_GRID,
                   q_grid: tuple[float, ...] = DEFAULT_ORDER_GRID) -> EntropyReport:
    """Build one histogram and evaluate all three entropy families on it.

    ``returns`` is a :class:`ReturnSeries` or a sample vector.  ``m``
    defaults to ceil(sqrt(n)).  Tsallis indices outside [1, 5/3) emit
    :class:`FiniteVarianceWarning` but are still evaluated.
    """
    x = _as_returns(returns)
    m, alphas, qs = _grids(x.size, m, alpha_grid, q_grid, stacklevel=3)
    h = _histogram(x, m)
    return _report(h.probs, x.size, m - int(np.count_nonzero(h.counts)),
                   float(h.edges[-1] - h.edges[0]) / m, alphas, qs)
