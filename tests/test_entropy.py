"""Tests for histogramming and the three entropy estimators."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import volentropy.entropy as entropy_module
from volentropy import (
    DegenerateSupportError,
    DomainError,
    FiniteVarianceWarning,
    Histogram,
    build_histogram,
    entropy_report,
    renyi,
    shannon,
    tsallis,
)
from volentropy.entropy import (
    DEFAULT_ORDER_GRID,
    MAX_BINS,
    _BLOCK_VALUES,
    _ONE_TOL,
    _bin,
    _reports,
)


def hist(probs) -> Histogram:
    """Histogram over [0, 1] with the given cell probabilities."""
    p = np.asarray(probs, dtype=float)
    counts = np.rint(p * 10_000).astype(int)
    return Histogram(edges=np.linspace(0.0, 1.0, p.size + 1), counts=counts, probs=p)


# strategy: normalized probability vectors built from a coarse positive grid,
# so sums are well-behaved and zero cells appear regularly
@st.composite
def prob_vectors(draw):
    k = draw(st.integers(2, 8))
    raw = draw(st.lists(st.integers(0, 20), min_size=k, max_size=k).filter(lambda v: sum(v) > 0))
    w = np.asarray(raw, dtype=float)
    return w / w.sum()


# ------------------------------------------------------------------ histogram

def test_symmetric_split():
    h = build_histogram(np.array([0.0, 1.0, 2.0, 3.0]), 2)
    assert h.counts.tolist() == [2, 2]
    assert h.probs.tolist() == [0.5, 0.5]
    assert_allclose(h.edges, [0.0, 1.5, 3.0])


def test_maximum_lands_in_last_cell():
    h = build_histogram(np.array([0.0, 1.0]), 2)
    assert h.counts.tolist() == [1, 1]


def test_counts_sum_to_n_and_probs_to_one():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(257)
    h = build_histogram(x, 16)
    assert h.n == 257
    assert h.counts.sum() == 257
    assert h.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_uniform_draws_fill_cells_evenly():
    rng = np.random.default_rng(123)
    h = build_histogram(rng.uniform(0.0, 1.0, 1000), 10)
    assert np.all(h.probs >= 0.06) and np.all(h.probs <= 0.14)


def test_edges_are_equidistant():
    rng = np.random.default_rng(5)
    h = build_histogram(rng.standard_normal(500), 23)
    widths = np.diff(h.edges)
    assert np.abs(widths - widths.mean()).max() < 1e-12 * widths.mean()


def test_constant_sample_has_degenerate_support():
    with pytest.raises(DegenerateSupportError):
        build_histogram(np.full(10, 0.25), 4)


def test_histogram_input_validation():
    with pytest.raises(DomainError):
        build_histogram(np.array([]), 2)
    with pytest.raises(DomainError):
        build_histogram(np.array([0.0, np.nan, 1.0]), 2)
    with pytest.raises(DomainError):
        build_histogram(np.array([0.0, 1.0]), 0)


def test_bin_count_above_the_cap_is_a_domain_error(monkeypatch):
    x = np.array([0.0, 1.0])
    # nothing may be allocated for the cells of a refused bin count
    monkeypatch.setattr(np, "arange", None)
    for m in (MAX_BINS + 1, 10**12):
        message = f"bin count must be at most MAX_BINS = 1048576, got {m}"
        for call in (lambda: build_histogram(x, m), lambda: entropy_report(x, m=m),
                     lambda: _reports(np.array([x]), m, (1.5,), (1.5,))):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message
    monkeypatch.undo()
    assert MAX_BINS == 2**20
    assert build_histogram(x, MAX_BINS).m == MAX_BINS


def test_histogram_type_invariants_enforced():
    edges = np.linspace(0.0, 1.0, 4)
    with pytest.raises(DomainError, match="equidistant"):
        Histogram(edges=np.array([0.0, 0.1, 0.9, 1.0]), counts=np.array([1, 1, 1]),
                  probs=np.full(3, 1 / 3))
    with pytest.raises(DomainError, match="sum to 1"):
        Histogram(edges=edges, counts=np.array([1, 1, 1]), probs=np.array([0.2, 0.2, 0.2]))
    with pytest.raises(DomainError) as info:
        Histogram(edges=[0, 1, 2, 3], counts=[1, 1, 1], probs=[0.2, 0.2, 0.2])
    assert str(info.value) == "cell probabilities must sum to 1, got 0.6000000000000001"
    with pytest.raises(DomainError, match="nonnegative"):
        Histogram(edges=edges, counts=np.array([1, 1, 1]), probs=np.array([-0.5, 0.75, 0.75]))
    with pytest.raises(DomainError, match="increasing"):
        Histogram(edges=np.array([0.0, 0.5, 0.5, 1.0]), counts=np.array([1, 1, 2]),
                  probs=np.array([0.25, 0.25, 0.5]))
    # NaN and infinite values fail too, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="nonnegative"):
            Histogram(edges=np.array([0.0, 1.0, 2.0]), counts=np.array([1, 1]),
                      probs=np.array([np.nan, 1.0]))
        with pytest.raises(DomainError, match="finite width"):
            Histogram(edges=np.array([0.0, 1.0, np.inf]), counts=np.array([1, 1]),
                      probs=np.array([0.5, 0.5]))
        with pytest.raises(DomainError, match="finite width"):  # the one width overflows
            Histogram(edges=np.array([-1.7e308, 1.7e308]), counts=np.array([1]),
                      probs=np.array([1.0]))


@pytest.mark.parametrize("edges, counts, probs, message", [
    (np.zeros((2, 2)), [1], [1.0], "1-D vector of at least two boundaries"),
    ([0.0], [], [], "1-D vector of at least two boundaries"),
    ([0.0, 0.5, 1.0], [1, 1, 1], [0.5, 0.5], "must have length 2 to match 3 edges"),
    ([0.0, 0.5, 1.0], [1, 1], [1.0], "must have length 2 to match 3 edges"),
])
def test_histogram_rejects_malformed_shapes(edges, counts, probs, message):
    with pytest.raises(DomainError, match=message):
        Histogram(edges=np.asarray(edges), counts=np.asarray(counts), probs=np.asarray(probs))


@pytest.mark.parametrize("counts", [[0, 0, 0], []])
def test_histogram_from_counts_rejects_a_zero_total(counts):
    with pytest.raises(DomainError, match="positive total"):
        Histogram.from_counts(counts)


def test_histogram_rejects_nan_edges():
    with pytest.raises(DomainError, match="increasing"):
        Histogram(edges=np.array([0.0, np.nan, 1.0]), counts=np.array([1, 1]),
                  probs=np.array([0.5, 0.5]))


@pytest.mark.parametrize("x, m, error, message", [
    # too narrow: two adjacent doubles cannot hold ten distinct cells
    ([1.0, np.nextafter(1.0, 2.0)], 10, DegenerateSupportError, "too narrow"),
    # too narrow at this magnitude: cell edges cannot be equally spaced
    ([1e8, 1e8 + 5e-7, 1e8 + 1e-6], 23, DegenerateSupportError, "too narrow"),
    ([-1e308, 1e308, 0.0], 3, DegenerateSupportError, "too wide"),
    ([0.0, np.inf, 1.0], 3, DomainError, "non-finite"),
    ([0.0, 1.0, 2.0], 2.5, DomainError, "integer"),
    ([0.0, 1.0, 2.0], 3.0, DomainError, "integer"),
])
def test_hostile_histogram_inputs_raise_package_errors(x, m, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            build_histogram(np.array(x), m)
        with pytest.raises(error, match=message):
            entropy_report(np.array(x), m=m)
        with pytest.raises(error, match=message):
            _reports(np.array([np.arange(len(x), dtype=float), x]), m,
                     DEFAULT_ORDER_GRID, DEFAULT_ORDER_GRID)


def test_report_occupancy():
    # cells [0, 2.5), [2.5, 5), [5, 7.5), [7.5, 10]: the third stays empty
    rep = entropy_report(np.array([0.0, 1.0, 3.0, 4.0, 9.0, 10.0]), m=4)
    assert rep.empty_cells == 1
    assert rep.cell_width == 2.5
    rep = entropy_report(np.array([0.0, 0.0, 0.5, 1.0]), m=1)
    assert rep.empty_cells == 0 and rep.cell_width == 1.0


def test_reports_of_a_matrix_larger_than_one_block_equal_row_reports():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((600, 500))
    assert x.size > _BLOCK_VALUES  # binned in more than one block of rows
    grids = dict(alpha_grid=(1.2, 2.0), q_grid=(1.2, 1.5))
    reports = _reports(x, 23, **grids)
    assert reports == tuple(entropy_report(row, m=23, **grids) for row in x)


# ---------------------------------------------------------------- equivalence

@st.composite
def binnable_samples(draw, n_min=2, n_max=120):
    """Samples with ties and values exactly on np.histogram's edges, at
    magnitudes from 1e-8 to 1e8, plus a cell count m in [1, 64]."""
    m = draw(st.integers(1, 64))
    n = draw(st.integers(n_min, n_max))
    scale = 10.0 ** draw(st.integers(-8, 8))
    offset = scale * draw(st.sampled_from([0.0, -3.0, 0.5, 7.0]))
    lo, hi = offset, offset + scale * draw(st.floats(0.01, 10.0))
    edges = np.linspace(lo, hi, m + 1)
    values = st.one_of(
        st.sampled_from(edges.tolist()),  # exactly on an edge
        st.floats(lo, hi),
        st.sampled_from([lo, lo, hi]),     # ties
    )
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)) + [lo, hi])
    return np.array(draw(st.permutations(x.tolist()))), m


def _numpy_binning(x, m):
    """np.histogram's counts and edges, or None where it refuses the range."""
    try:
        return np.histogram(x, bins=m, range=(x.min(), x.max()))
    except ValueError:  # too many bins for the range
        return None


def _equidistant(edges) -> bool:
    widths = np.diff(edges)
    return np.abs(widths - widths.mean()).max() <= 1e-12 * widths.mean()


def _assert_bins_like_numpy(x, m, binned):
    expected = _numpy_binning(x, m)
    if binned is None:  # refused: numpy refuses too, or its cells are unequal
        assert expected is None or not _equidistant(expected[1])
        return
    assert expected is not None and _equidistant(expected[1])
    edges, counts = binned
    assert np.array_equal(counts, expected[0]) and counts.dtype == expected[0].dtype
    assert np.array_equal(edges, expected[1])


@settings(max_examples=300, deadline=None)
@given(binnable_samples())
def test_binning_equals_numpy_histogram(sample):
    x, m = sample
    try:
        h = build_histogram(x, m)
        binned = (h.edges, h.counts)
    except DegenerateSupportError:
        binned = None
    _assert_bins_like_numpy(x, m, binned)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_binning_equals_numpy_histogram_row_by_row(data):
    x, m = data.draw(binnable_samples(n_min=20, n_max=20))
    k = data.draw(st.integers(1, 5))
    scales = data.draw(st.lists(st.sampled_from([1.0, 0.5, -2.0]), min_size=k, max_size=k))
    # reordered and rescaled copies: rows of different ranges, one matrix
    rows = np.array([data.draw(st.permutations(x.tolist())) for _ in range(k)])
    rows *= np.array(scales)[:, None]
    edges, counts, probs = _bin(rows, m)
    for row, e, c, p in zip(rows, edges, counts, probs):
        try:
            Histogram(edges=e, counts=c, probs=p)
            binned = (e, c)
        except DomainError:  # the support is too narrow for m equal cells
            binned = None
        _assert_bins_like_numpy(row, m, binned)


@settings(max_examples=300, deadline=None)
@given(binnable_samples())
def test_report_of_a_sample_equals_the_report_of_its_matrix_row(sample):
    # a sample is binned as a vector, a matrix row by row: both give the same
    # report, or the same error
    x, m = sample
    outcomes = []
    for report in (lambda: entropy_report(x, m=m),
                   lambda: _reports(x[None, :], m, DEFAULT_ORDER_GRID, DEFAULT_ORDER_GRID)[0]):
        try:
            outcomes.append(repr(report()))  # repr: the field types too
        except (DomainError, DegenerateSupportError) as exc:
            outcomes.append((type(exc), str(exc), getattr(exc, "row", None)))
    assert outcomes[0] == outcomes[1]


_ORDERS = st.one_of(
    st.sampled_from([0.5, 1.0, 1.0 - _ONE_TOL / 2, 1.0 + _ONE_TOL / 2, 1.0 + 1e-6,
                     1.4, 1.45, 2.0, 3.0]),
    st.floats(0.05, 5.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=200).filter(lambda v: min(v) < max(v)),
       st.integers(1, 30), st.lists(_ORDERS, min_size=1, max_size=6),
       st.lists(st.one_of(_ORDERS, st.just(0.0)), min_size=1, max_size=6))
@example(values=[0.0, 2.2250738585e-313], m=4, alphas=[2.0], qs=[2.0])
def test_report_equals_scalar_estimators(values, m, alphas, qs):
    x = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", FiniteVarianceWarning)
        try:
            h = build_histogram(x, m)
        except DegenerateSupportError as exc:
            # a spread too narrow for m equal cells (a subnormal one): the
            # report refuses it with the same documented error
            with pytest.raises(DegenerateSupportError) as report_exc:
                entropy_report(x, m=m, alpha_grid=tuple(alphas), q_grid=tuple(qs))
            assert str(report_exc.value) == str(exc)
            return
        rep = entropy_report(x, m=m, alpha_grid=tuple(alphas), q_grid=tuple(qs))
        s = shannon(h)
        assert rep.shannon == s
        assert rep.renyi == tuple((a, renyi(h, a)) for a in alphas)
        assert rep.tsallis == tuple((q, tsallis(h, q)) for q in qs)
    # orders within _ONE_TOL of 1 report the Shannon limit itself
    for order, value in rep.renyi + rep.tsallis:
        if abs(order - 1.0) <= _ONE_TOL:
            assert value == s
    assert (rep.bins, rep.n_obs) == (h.m, h.n)
    assert rep.empty_cells == int((h.counts == 0).sum())
    assert rep.cell_width == (h.edges[-1] - h.edges[0]) / h.m


# -------------------------------------------------------------------- shannon

def test_shannon_certain_event_is_zero():
    assert shannon(hist([1.0, 0.0, 0.0])) == 0.0


def test_shannon_uniform_two_cells():
    assert shannon(hist([0.5, 0.5])) == pytest.approx(math.log(2), rel=1e-15)


def test_shannon_direct_summation():
    expected = -0.25 * math.log(0.25) - 0.75 * math.log(0.75)  # 0.562335...
    assert shannon(hist([0.25, 0.75])) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.562335, abs=5e-7)


# ---------------------------------------------------------------------- renyi

def test_renyi_uniform_is_log_m_at_every_order():
    for m in (2, 3, 7, 16):
        h = hist(np.full(m, 1.0 / m))
        for alpha in (0.5, 1.0, 1.3, 2.0, 5.0):
            assert renyi(h, alpha) == pytest.approx(math.log(m), rel=1e-12)


def test_renyi_near_one_uses_shannon_limit():
    h = hist([0.25, 0.75])
    assert renyi(h, 1.0 + 1e-9) == pytest.approx(0.562335, abs=1e-4)
    assert renyi(h, 1.0) == shannon(h)


def test_renyi_order_two_direct():
    # sum p^2 = 0.0625 + 0.5625 = 0.625; value = -ln 0.625 = ln 1.6
    assert renyi(hist([0.25, 0.75]), 2.0) == pytest.approx(math.log(1.6), rel=1e-14)
    assert math.log(1.6) == pytest.approx(0.470004, abs=5e-7)


def test_renyi_rejects_nonpositive_order():
    h = hist([0.5, 0.5])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            renyi(h, bad)


def test_renyi_at_huge_orders_is_finite_and_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # alpha * log p overflows for the small cell only
        h = Histogram.from_counts([1, 10**9])
        assert renyi(h, 1e307) == pytest.approx(-math.log(h.probs[1]), rel=1e-6)
        # and for every cell: the alpha -> infinity limit, -log p_max
        h = Histogram.from_counts([1] * 10)
        assert renyi(h, 1e308) == -math.log(h.probs[0])
        # no product overflows at this order and histogram
        assert renyi(Histogram.from_counts([1, 2, 3]), 1e306) == math.log(2.0)
        rep = entropy_report(np.arange(100.0), m=10, alpha_grid=(1.4, 1e308))
    assert rep.renyi == ((1.4, renyi(build_histogram(np.arange(100.0), 10), 1.4)),
                         (1e308, -math.log(0.1)))


# -------------------------------------------------------------------- tsallis

def test_tsallis_certain_event_is_zero():
    for q in (0.0, 0.5, 1.4, 2.0):
        assert tsallis(hist([1.0, 0.0]), q) == 0.0


def test_certain_event_is_plus_zero_in_every_family():
    h = Histogram.from_counts([5, 0, 0])
    values = [shannon(h), *(renyi(h, a) for a in (0.5, 1.0, 2.0, 1e306)),
              *(tsallis(h, q) for q in (0.0, 0.5, 1.0, 2.0))]
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)


def test_tsallis_uniform_two_cells_q2():
    assert tsallis(hist([0.5, 0.5]), 2.0) == pytest.approx(0.5, rel=1e-15)


def test_tsallis_direct_summation():
    expected = (1.0 - (0.25 ** 1.4 + 0.75 ** 1.4)) / 0.4
    assert tsallis(hist([0.25, 0.75]), 1.4) == pytest.approx(expected, rel=1e-14)


def test_tsallis_near_one_uses_shannon_limit():
    h = hist([0.25, 0.75])
    assert tsallis(h, 1.0) == shannon(h)
    assert tsallis(h, 1.0 + 5e-9) == shannon(h)


def test_tsallis_rejects_negative_index():
    with pytest.raises(DomainError):
        tsallis(hist([0.5, 0.5]), -0.1)


def test_tsallis_uniform_closed_form():
    for m in (2, 5, 12):
        h = hist(np.full(m, 1.0 / m))
        for q in (0.5, 1.4, 2.0):
            assert tsallis(h, q) == pytest.approx((1 - m ** (1 - q)) / (q - 1), rel=1e-12)


# ------------------------------------------------------------------ invariants

@settings(max_examples=200, deadline=None)
@given(prob_vectors())
def test_entropies_nonnegative_and_bounded(p):
    h = hist(p)
    m = p.size
    s = shannon(h)
    assert 0.0 <= s <= math.log(m) + 1e-12
    for alpha in (0.5, 1.4, 2.0, 5.0):
        r = renyi(h, alpha)
        assert r >= -1e-12
        if alpha > 1:
            assert r <= s + 1e-12
    for q in (0.5, 1.4, 1.5, 2.0):
        t = tsallis(h, q)
        assert -1e-12 <= t <= (1 - m ** (1 - q)) / (q - 1) + 1e-12


@settings(max_examples=200, deadline=None)
@given(prob_vectors())
def test_renyi_nonincreasing_in_order(p):
    h = hist(p)
    vals = [renyi(h, a) for a in (0.5, 1.0, 1.4, 1.45, 1.5, 2.0, 5.0)]
    for hi, lo in zip(vals, vals[1:]):
        assert lo <= hi + 1e-12


@settings(max_examples=150, deadline=None)
@given(prob_vectors())
def test_limit_continuity_near_one(p):
    h = hist(p)
    s = shannon(h)
    for order in (1.0 - 1e-6, 1.0 + 1e-6):
        assert abs(renyi(h, order) - s) <= 1e-4
        assert abs(tsallis(h, order) - s) <= 1e-4


@pytest.mark.parametrize("m", [2, 3, 10, 100])
def test_uniform_maximizes_all_entropies(m):
    # moving epsilon = 0.01 of mass between two cells must strictly lower
    # every entropy relative to the uniform histogram
    uniform = np.full(m, 1.0 / m)
    tilted = uniform.copy()
    tilted[0] -= 0.01
    tilted[-1] += 0.01
    hu, ht = hist(uniform), hist(tilted)
    assert shannon(ht) < shannon(hu)
    for alpha in (0.5, 1.45, 2.0):
        assert renyi(ht, alpha) < renyi(hu, alpha)
    for q in (0.5, 1.45, 2.0):
        assert tsallis(ht, q) < tsallis(hu, q)


def test_shannon_doubling_adds_log2():
    for m in (1, 2, 3, 5, 8, 16):
        gain = shannon(hist(np.full(2 * m, 0.5 / m))) - shannon(hist(np.full(m, 1.0 / m)))
        assert gain == pytest.approx(math.log(2), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(prob_vectors())
def test_matches_direct_expression_evaluation(p):
    # independent one-liner evaluations of each defining expression
    h = hist(p)
    nz = p[p > 0]
    assert shannon(h) == pytest.approx(float(-(nz * np.log(nz)).sum()), abs=1e-12)
    for alpha in (0.5, 1.4, 2.0):
        direct = math.log(float((nz ** alpha).sum())) / (1.0 - alpha)
        assert renyi(h, alpha) == pytest.approx(direct, abs=1e-12)
    for q in (0.5, 1.4, 2.0):
        direct = (1.0 - float((nz ** q).sum())) / (q - 1.0)
        assert tsallis(h, q) == pytest.approx(direct, abs=1e-12)


# -------------------------------------------------------------- entropy_report

def test_report_on_single_cell_histogram_is_all_zero():
    x = np.array([0.0, 0.2, 0.7, 1.0])
    rep = entropy_report(x, m=1)
    assert rep.shannon == 0.0
    assert all(v == 0.0 for _, v in rep.renyi)
    assert all(v == 0.0 for _, v in rep.tsallis)
    assert rep.bins == 1 and rep.n_obs == 4
    # +0, where the sums give -0.0 (Shannon, and Renyi orders above 1)
    assert all(math.copysign(1.0, v) == 1.0
               for v in (rep.shannon, *(v for _, v in rep.renyi + rep.tsallis)))


def test_report_default_bins_is_ceil_sqrt_n():
    rng = np.random.default_rng(9)
    rep = entropy_report(rng.standard_normal(200))
    assert rep.bins == math.ceil(math.sqrt(200))  # 15
    assert rep.n_obs == 200


def test_report_default_grids():
    rng = np.random.default_rng(10)
    rep = entropy_report(rng.standard_normal(300))
    assert [a for a, _ in rep.renyi] == [1.4, 1.45, 1.5]
    assert [q for q, _ in rep.tsallis] == [1.4, 1.45, 1.5]


def test_report_values_consistent_with_histogram():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(400)
    rep = entropy_report(x, m=20, alpha_grid=(1.4, 2.0), q_grid=(1.4,))
    h = build_histogram(x, 20)
    assert rep.shannon == shannon(h)
    assert rep.renyi == ((1.4, renyi(h, 1.4)), (2.0, renyi(h, 2.0)))
    assert rep.tsallis == ((1.4, tsallis(h, 1.4)),)


def test_q_outside_finite_variance_window_warns():
    rng = np.random.default_rng(12)
    x = rng.standard_normal(100)
    for _ in range(2):  # a grid's indices outside the window are found once; each call warns
        with pytest.warns(FiniteVarianceWarning, match=r"5/3"):
            entropy_report(x, q_grid=(2.0,))
        with pytest.warns(FiniteVarianceWarning) as caught:
            entropy_report(x, q_grid=(0.9, 1.4, 2.0))
        assert [str(w.message).split()[2] for w in caught] == ["q=0.9", "q=2"]


def test_finite_variance_warning_points_at_the_caller():
    x = np.random.default_rng(12).standard_normal(100)
    with pytest.warns(FiniteVarianceWarning) as caught:
        entropy_report(x, q_grid=(2.0,))
        _reports(np.array([x, x]), None, (1.4,), (2.0,))
    assert [w.filename for w in caught] == [__file__, __file__]


@pytest.mark.parametrize("q", [math.nan, -1.0])
def test_invalid_tsallis_index_raises_before_any_warning(q):
    x = np.random.default_rng(12).standard_normal(100)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match="Tsallis index must be nonnegative"):
            entropy_report(x, q_grid=(q,))
    assert caught == []


@pytest.mark.parametrize("grid", [1.4, ["a"], [None], [1.4 + 1j], [[1.4]],
                                  np.array([[1.4, 1.5]]), "1.4", [10**400]])
@pytest.mark.parametrize("name", ["alpha_grid", "q_grid"])
def test_hostile_order_grids_raise_a_domain_error_naming_the_grid(grid, name):
    x = np.random.default_rng(12).standard_normal(100)
    grids = {"alpha_grid": DEFAULT_ORDER_GRID, "q_grid": DEFAULT_ORDER_GRID, name: grid}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=name):
            entropy_report(x, **grids)
        with pytest.raises(DomainError, match=name):
            _reports(np.array([x, x]), None, grids["alpha_grid"], grids["q_grid"])


def test_order_grids_may_be_generators():
    x = np.random.default_rng(12).standard_normal(100)
    rep = entropy_report(x, alpha_grid=(a for a in (1.4, 2.0)), q_grid=iter([1.2]))
    assert rep == entropy_report(x, alpha_grid=(1.4, 2.0), q_grid=(1.2,))


@pytest.mark.parametrize("estimator", [shannon, lambda h: renyi(h, 2.0),
                                       lambda h: tsallis(h, 2.0)])
@pytest.mark.parametrize("h", [None, np.array([0.5, 0.5]), {"probs": [0.5, 0.5]}])
def test_estimators_of_anything_but_a_histogram_raise_domain_error(estimator, h):
    with pytest.raises(DomainError, match="Histogram"):
        estimator(h)


def test_unhashable_scalar_orders_raise_domain_error():
    h = hist([0.25, 0.75])
    with pytest.raises(DomainError, match="Renyi orders"):
        renyi(h, [2.0])
    with pytest.raises(DomainError, match="Tsallis indices"):
        tsallis(h, np.array(2.0))


def test_a_sample_report_checks_its_cells_once_and_builds_no_histogram(monkeypatch):
    # the cells of one sample are checked as _reports checks a block of
    # rows, without a Histogram; build_histogram is the one that builds one
    checked, built = [], []
    check = entropy_module._check_cells
    monkeypatch.setattr(entropy_module, "_check_cells",
                        lambda edges, probs: checked.append(edges.shape) or check(edges, probs))
    post_init = Histogram.__post_init__
    monkeypatch.setattr(Histogram, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    rng = np.random.default_rng(14)
    m = math.ceil(math.sqrt(500))
    entropy_report(rng.standard_normal(500))
    assert checked == [(m + 1,)] and built == []
    checked.clear()
    per_block = _BLOCK_VALUES // 500
    _reports(rng.standard_normal((3 * per_block + 4, 500)), None,
             DEFAULT_ORDER_GRID, DEFAULT_ORDER_GRID)
    assert checked == [(per_block, m + 1)] * 3 + [(4, m + 1)] and built == []
    checked.clear()
    build_histogram(rng.standard_normal(500), m)
    assert checked == [(m + 1,)] and len(built) == 1


def test_default_grid_does_not_warn():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entropy_report(x)


def test_empty_grid_rejected():
    with pytest.raises(DomainError):
        entropy_report(np.array([0.0, 1.0]), alpha_grid=())
    with pytest.raises(DomainError):
        entropy_report(np.array([0.0, 1.0]), q_grid=())


def test_report_propagates_degenerate_support():
    with pytest.raises(DegenerateSupportError):
        entropy_report(np.zeros(25))
