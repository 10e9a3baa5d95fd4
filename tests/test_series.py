import datetime as dt
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volentropy import (
    DomainError,
    DuplicateDateError,
    FitConfig,
    InsufficientDataError,
    ModelFamily,
    ParamVector,
    ParseError,
    PricePoint,
    ReturnSeries,
    SimConfig,
    build_histogram,
    entropy_report,
    fit,
    load_prices,
    load_returns,
    log_likelihood,
    simulate_path,
    squared_autocorr,
    standard_errors,
    to_log_returns,
    variance_path,
)
from volentropy.series import Dates


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- load_prices

def test_two_rows_parse_in_date_order(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n2002-06-03,1000.0\n2002-06-04,1010.0\n")
    pts = load_prices(path)
    assert [p.date.isoformat() for p in pts] == ["2002-06-03", "2002-06-04"]
    assert [p.close for p in pts] == [1000.0, 1010.0]


def test_rows_out_of_order_are_sorted(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n2003-01-02,5.0\n2002-06-03,4.0\n")
    pts = load_prices(path)
    assert pts[0].date < pts[1].date
    assert pts[0].close == 4.0


def test_tab_delimiter_autodetected(tmp_path):
    path = write(tmp_path, "px.tsv", "date\tclose\n2002-06-03\t1000.0\n2002-06-04\t1010.0\n")
    assert len(load_prices(path)) == 2


def test_custom_column_names(tmp_path):
    path = write(tmp_path, "px.csv", "day,level\n2002-06-03,7.5\n2002-06-04,7.6\n")
    pts = load_prices(path, date_col="day", price_col="level")
    assert pts[0].close == 7.5


def test_zero_price_is_domain_error(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n2002-06-03,0\n")
    with pytest.raises(DomainError, match="2002-06-03"):
        load_prices(path)


def test_negative_price_is_domain_error(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n2002-06-03,-3.0\n")
    with pytest.raises(DomainError):
        load_prices(path)


def test_malformed_row_names_line_number(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n2002-06-03,1.0\nnot-a-date,2.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_prices(path)


def test_short_row_names_line_number(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n2002-06-03\n")
    with pytest.raises(ParseError, match="line 2"):
        load_prices(path)


def test_duplicate_date_rejected(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n2002-06-03,1.0\n2002-06-03,2.0\n")
    with pytest.raises(DuplicateDateError, match="2002-06-03"):
        load_prices(path)


def test_missing_column_is_parse_error(tmp_path):
    path = write(tmp_path, "px.csv", "date,price\n2002-06-03,1.0\n")
    with pytest.raises(ParseError, match="close"):
        load_prices(path)


def test_empty_file_reports_no_observations(tmp_path):
    path = write(tmp_path, "px.csv", "")
    with pytest.raises(InsufficientDataError, match="no observations"):
        load_prices(path)


def test_header_only_reports_no_observations(tmp_path):
    path = write(tmp_path, "px.csv", "date,close\n")
    with pytest.raises(InsufficientDataError, match="no observations"):
        load_prices(path)


# --------------------------------------------------------------- load_returns

def test_returns_file_loads_directly(tmp_path):
    path = write(tmp_path, "r.csv", "date,return\n2002-06-04,0.01\n2002-06-03,-0.02\n")
    rs = load_returns(path)
    # sorted by date, values kept verbatim
    assert rs.dates[0] < rs.dates[1]
    np.testing.assert_allclose(rs.returns, [-0.02, 0.01])
    assert rs.source == path


def test_a_byte_order_mark_does_not_hide_the_first_column(tmp_path):
    # spreadsheets save "CSV UTF-8" with a leading byte-order mark
    prices = "date,close\n2002-06-03,1000.0\n2002-06-04,1010.0\n"
    returns = "date,return\n2002-06-04,0.01\n2002-06-03,-0.02\n"
    for text, load in ((prices, load_prices), (returns, load_returns)):
        plain = load(write(tmp_path, "plain.csv", text))
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            marked = load(str(p))
        if load is load_prices:
            assert marked == plain
        else:
            assert marked.dates == plain.dates
            np.testing.assert_array_equal(marked.returns, plain.returns)


def test_blank_lines_are_skipped(tmp_path):
    path = write(tmp_path, "r.csv", "date,return\n\n2002-06-03,0.01\n , \n2002-06-04,0.02\n\n")
    rs = load_returns(path)
    assert rs.dates == (dt.date(2002, 6, 3), dt.date(2002, 6, 4))
    assert rs.returns.tolist() == [0.01, 0.02]


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "NaN", "Infinity"])
def test_a_non_finite_value_names_its_line(tmp_path, text):
    rows = f"2002-06-03,0.01\n2002-06-04,{text}\n"
    with pytest.raises(ParseError, match=f"line 3: non-finite return '{text}'"):
        load_returns(write(tmp_path, "r.csv", "date,return\n" + rows))
    with pytest.raises(ParseError, match=f"line 3: non-finite price '{text}'"):
        load_prices(write(tmp_path, "px.csv", "date,close\n" + rows.replace("0.0", "1.0")))


def test_returns_file_bad_value(tmp_path):
    path = write(tmp_path, "r.csv", "date,return\n2002-06-04,oops\n")
    with pytest.raises(ParseError, match="line 2"):
        load_returns(path)


# -------------------------------------------------------------- to_log_returns

def px(*pairs):
    return [PricePoint(dt.date.fromisoformat(d), c) for d, c in pairs]


def test_equal_prices_give_zero_return():
    rs = to_log_returns(px(("2002-06-03", 100.0), ("2002-06-04", 100.0)))
    assert rs.returns[0] == 0.0


def test_ln_e_ratio_gives_unit_return():
    rs = to_log_returns(px(("2002-06-03", 100.0), ("2002-06-04", 100.0 * math.e)))
    np.testing.assert_allclose(rs.returns[0], 1.0, rtol=0, atol=1e-14)


def test_three_prices_match_direct_log_ratios():
    # oracle: direct evaluation of ln(ratio)
    rs = to_log_returns(px(("2002-06-03", 100.0), ("2002-06-04", 110.0), ("2002-06-05", 99.0)))
    np.testing.assert_allclose(rs.returns, [math.log(1.1), math.log(99.0 / 110.0)], rtol=1e-15)
    assert abs(rs.returns[0] - 0.09531) < 5e-6
    assert abs(rs.returns[1] - (-0.10536)) < 5e-6


def test_return_dates_are_later_dates_of_each_pair():
    rs = to_log_returns(px(("2002-06-03", 1.0), ("2002-06-04", 2.0), ("2002-06-06", 3.0)))
    assert rs.dates == (dt.date(2002, 6, 4), dt.date(2002, 6, 6))


def test_single_price_is_insufficient():
    with pytest.raises(InsufficientDataError):
        to_log_returns(px(("2002-06-03", 100.0)))


@given(
    closes=st.lists(st.floats(min_value=1e-3, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=60),
)
@settings(max_examples=100)
def test_roundtrip_reconstructs_final_price(closes):
    pts = [PricePoint(dt.date(2000, 1, 1) + dt.timedelta(days=i), c)
           for i, c in enumerate(closes)]
    rs = to_log_returns(pts)
    assert len(rs) == len(closes) - 1
    rebuilt = closes[0] * math.exp(float(np.sum(rs.returns)))
    assert rebuilt == pytest.approx(closes[-1], rel=1e-10)


@given(
    # single-step price ratios stay below e^3, so one ulp of any log-return
    # is comfortably under the 1e-15 absolute budget
    closes=st.lists(st.floats(min_value=0.5, max_value=10.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=40),
    scale=st.floats(min_value=1e-6, max_value=1e6,
                    allow_nan=False, allow_infinity=False),
)
@settings(max_examples=100)
def test_scale_invariance_of_log_returns(closes, scale):
    dates = [dt.date(2000, 1, 1) + dt.timedelta(days=i) for i in range(len(closes))]
    a = to_log_returns([PricePoint(d, c) for d, c in zip(dates, closes)])
    b = to_log_returns([PricePoint(d, c * scale) for d, c in zip(dates, closes)])
    np.testing.assert_allclose(a.returns, b.returns, rtol=0, atol=1e-15)


# ----------------------------------------------------------------- invariants

def test_price_point_rejects_nonpositive_close():
    with pytest.raises(DomainError):
        PricePoint(dt.date(2002, 6, 3), 0.0)


def test_return_series_rejects_nan():
    with pytest.raises(DomainError):
        ReturnSeries(id="x", dates=(dt.date(2000, 1, 1),), returns=np.array([np.nan]))


def test_return_series_rejects_length_mismatch():
    with pytest.raises(DomainError):
        ReturnSeries(id="x", dates=(dt.date(2000, 1, 1),), returns=np.array([0.1, 0.2]))


# ------------------------------------------------- the return-vector contract

GARCH = ModelFamily.GARCH
POINT = ParamVector(1e-5, 0.1, 0.8)
DATES = tuple(dt.date(2000, 1, 1) + dt.timedelta(days=i) for i in range(60))


def _with(value: float) -> np.ndarray:
    r = 0.01 * np.sin(np.arange(60.0))
    r[17] = value
    return r


ENTRY_POINTS = {
    "ReturnSeries": lambda r: ReturnSeries("x", DATES, r),
    "fit": lambda r: fit(r, FitConfig(GARCH, restarts=0)),
    "standard_errors": lambda r: standard_errors(POINT, r, FitConfig(GARCH)),
    "variance_path": lambda r: variance_path(GARCH, POINT, r),
    "log_likelihood": lambda r: log_likelihood(GARCH, POINT, r),
    "squared_autocorr": lambda r: squared_autocorr(r, 5),
    "entropy_report": lambda r: entropy_report(r),
    "build_histogram": lambda r: build_histogram(r, 8),
}

HOSTILE = {
    "2-D": np.ones((10, 60)),
    "None": None,
    "empty": np.array([]),
    "NaN": _with(np.nan),
    "+inf": _with(np.inf),
    "-inf": _with(-np.inf),
    "complex": np.full(60, 1 + 1j),
    "text": np.array(["0.01"] * 60),
    "text list": ["0.01"] * 60,
    "object": np.array([0.01] * 60, dtype=object),
    "ragged": [[0.01, 0.02], [0.03]],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", HOSTILE)
def test_hostile_returns_raise_domain_error_at_every_entry_point(entry, case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            ENTRY_POINTS[entry](HOSTILE[case])
    if case.endswith(("NaN", "inf")):
        assert "non-finite" in str(info.value) and "NaN or infinite" in str(info.value)


def test_fit_tells_an_empty_vector_from_a_short_one():
    with pytest.raises(DomainError, match="nonempty"):
        fit(np.array([]), FitConfig(GARCH))
    with pytest.raises(InsufficientDataError, match="at least 50"):
        fit(_with(0.0)[:49], FitConfig(GARCH))


def test_series_and_its_returns_give_the_same_results():
    series, _ = simulate_path(SimConfig(GARCH, POINT, n=600, seed=5))
    r = series.returns
    a, b = variance_path(GARCH, POINT, series), variance_path(GARCH, POINT, r)
    assert np.array_equal(a.sigma2, b.sigma2) and a.loglik == b.loglik
    assert log_likelihood(GARCH, POINT, series) == log_likelihood(GARCH, POINT, r)
    assert np.array_equal(squared_autocorr(series, 10), squared_autocorr(r, 10))
    assert entropy_report(series) == entropy_report(r)
    config = FitConfig(GARCH, innovation="gaussian", restarts=0)
    x, y = fit(series, config), fit(r, config)
    assert (x.params, x.loglik, x.stderr, x.iterations, x.diagnostics) == (
        y.params, y.loglik, y.stderr, y.iterations, y.diagnostics)
    assert np.array_equal(x.cov, y.cov)


def test_integer_returns_convert_to_float():
    ints = np.arange(-30, 30) % 7
    assert np.array_equal(ReturnSeries("x", DATES, ints).returns, ints.astype(float))
    assert entropy_report(ints) == entropy_report(ints.astype(float))
    assert np.array_equal(squared_autocorr(list(ints), 5), squared_autocorr(ints.astype(float), 5))


# ------------------------------------------------------------- the date sequence

GAPPED = (dt.date(2002, 6, 3), dt.date(2002, 6, 4), dt.date(2002, 6, 6), dt.date(2002, 6, 10))
RUN = tuple(dt.date(2002, 6, 3) + dt.timedelta(days=i) for i in range(5))


@pytest.mark.parametrize("days", [GAPPED, RUN], ids=["gapped", "consecutive"])
def test_dates_index_like_their_tuple(days):
    dates = Dates(days)
    assert len(dates) == len(days)
    for i in range(-len(days), len(days)):
        assert dates[i] == days[i] and type(dates[i]) is dt.date
    for i in (len(days), len(days) + 7, -len(days) - 1):
        with pytest.raises(IndexError, match="out of range"):
            dates[i]
    with pytest.raises(TypeError):
        dates[1.0]


@pytest.mark.parametrize("days", [GAPPED, RUN], ids=["gapped", "consecutive"])
def test_dates_slice_and_iterate_like_their_tuple(days):
    dates = Dates(days)
    assert tuple(dates) == days and list(reversed(dates)) == list(reversed(days))
    for key in (slice(1, None), slice(None, -1), slice(None, None, -1), slice(1, 3),
                slice(0, 0), slice(None, None, 2), slice(10, 20)):
        part = dates[key]
        assert isinstance(part, Dates)
        assert part == days[key] and tuple(part) == days[key] and len(part) == len(days[key])
    assert days[2] in dates and dt.date(1999, 1, 1) not in dates
    assert dates.index(days[2]) == 2


def test_dates_equal_their_tuple_and_hash_as_it():
    assert Dates(GAPPED) == GAPPED and GAPPED == Dates(GAPPED)
    assert Dates(RUN) == RUN and Dates(RUN) == Dates(list(RUN))
    assert Dates(GAPPED) != RUN and Dates(GAPPED) != GAPPED[:-1] and Dates(GAPPED) != Dates(RUN)
    assert Dates(GAPPED) != GAPPED[::-1]
    assert Dates(GAPPED) != list(GAPPED)  # a tuple's equal, as the tuple was
    # a gapped sequence equals the consecutive one it slices to
    assert Dates(GAPPED)[:2] == Dates(RUN)[:2] == RUN[:2]
    assert hash(Dates(GAPPED)) == hash(GAPPED) and hash(Dates(RUN)) == hash(RUN)
    assert {Dates(RUN): 1}[RUN] == 1
    assert Dates(()) == () and len(Dates(())) == 0


def test_dates_are_immutable():
    dates = Dates(GAPPED)
    with pytest.raises(TypeError):
        dates[0] = dt.date(2000, 1, 1)
    with pytest.raises(AttributeError):
        dates.extra = 1
    with pytest.raises(ValueError):
        dates._days[0] = 0  # a gapped sequence's ordinals are read-only


@pytest.mark.parametrize("bad", [
    [dt.date(2000, 1, 1), "2000-01-02"],
    [730120],
    [dt.datetime(2000, 1, 1)],
    [None],
    None,
    range(0, 3),
    range(dt.date.max.toordinal(), dt.date.max.toordinal() + 2),
])
def test_a_non_date_entry_raises_domain_error(bad):
    with pytest.raises(DomainError):
        Dates(bad)
    with pytest.raises(DomainError):
        ReturnSeries("x", bad, np.zeros(2))


def test_dates_of_dates_share_their_days_and_repr_names_the_span():
    for days in (GAPPED, RUN):
        dates = Dates(days)
        again = Dates(dates)
        assert again == dates and again._days is dates._days
    assert repr(Dates(())) == "Dates(n=0)"
    assert repr(Dates(GAPPED)) == "Dates(n=4, first=2002-06-03, last=2002-06-10)"
    assert repr(Dates(RUN)[1:]) == "Dates(n=4, first=2002-06-04, last=2002-06-07)"


def test_a_range_of_day_ordinals_reaches_the_calendar_end():
    last = dt.date.max.toordinal()
    dates = Dates(range(last - 2, last + 1))
    assert dates[-1] == dt.date.max and dates == (dt.date(9999, 12, 29), dt.date(9999, 12, 30),
                                                  dt.date.max)


def test_simulated_dates_round_trip_through_the_cli_csv(tmp_path, capsys):
    from volentropy.cli import main

    out = tmp_path / "sim.csv"
    assert main(["simulate", "--family", "garch", "--omega", "1e-5", "--alpha", "0.1",
                 "--beta", "0.8", "--n", "400", "--seed", "4", "--output", str(out)]) == 0
    capsys.readouterr()
    series, _ = simulate_path(SimConfig(GARCH, ParamVector(1e-5, 0.1, 0.8), n=400, seed=4))
    loaded = load_returns(str(out))
    assert loaded.dates == series.dates == tuple(series.dates)
    assert loaded.dates[0] == dt.date(2000, 1, 1) and loaded.dates[-1] == dt.date(2001, 2, 3)
    assert np.array_equal(loaded.returns, series.returns)


def test_a_simulated_path_keeps_no_per_day_storage():
    config = SimConfig(GARCH, POINT, n=100_000, seed=3)
    simulate_path(config)  # first-call imports and caches stay outside the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series, sigma2 = simulate_path(config)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(series.dates) == 100_000 and series.dates[-1] == dt.date(2273, 10, 15)
    assert retained <= series.returns.nbytes + sigma2.nbytes + 64 * 1024
