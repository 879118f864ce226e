import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from test_integration import synthetic_novel

from lettercorr import (
    DisplacementCurve,
    IndicatorSeries,
    average_displacement,
    default_k_grid,
    displacement,
    fit_exponent,
    indicator,
    normalize,
    symbol_code,
    walk,
)


def direct_displacement(bits: np.ndarray, ks) -> np.ndarray:
    """O(N*k) reference: materialize every window sum, then its variance."""
    return np.array(
        [float(np.var(sliding_window_view(bits, int(k)).sum(axis=1, dtype=np.int64))) for k in ks]
    )


def centered_profile_displacement(bits: np.ndarray, ks) -> np.ndarray:
    """Alternative route: running sum of mean-centered data, k-lag increments."""
    profile = np.concatenate(([0.0], np.cumsum(bits - bits.mean(), dtype=np.float64)))
    return np.array([float(np.var(profile[k:] - profile[:-k])) for k in ks])


def uint64_displacement(bits: np.ndarray, ks) -> np.ndarray:
    """The all-uint64 kernel: modular cross term, chunks below 2**64 only."""
    n = bits.size
    mask = (1 << 64) - 1
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(bits, dtype=np.uint64, out=prefix[1:])
    q1 = np.zeros(n + 2, dtype=np.uint64)
    np.cumsum(prefix, out=q1[1:])
    q2 = np.zeros(n + 2, dtype=np.uint64)
    np.multiply(prefix, prefix, out=q2[1:])
    np.cumsum(q2[1:], out=q2[1:])
    f = []
    for k in ks:
        m = n - k + 1
        rows = mask // (k * k)
        s1 = s2 = 0
        for a in range(0, m, rows):
            b = min(a + rows, m)
            s1 += (int(q1[b + k]) - int(q1[a + k]) - int(q1[b]) + int(q1[a])) & mask
            cross = int(np.dot(prefix[a + k : b + k], prefix[a:b]))
            squares = int(q2[b + k]) - int(q2[a + k]) + int(q2[b]) - int(q2[a])
            s2 += (squares - 2 * cross) & mask
        f.append((m * s2 - s1 * s1) / (m * m))
    return np.array(f)


def _series(bits) -> IndicatorSeries:
    return IndicatorSeries(bits=np.asarray(bits, dtype=np.uint8), source_letter=0)


def exact_variance(s1: int, s2: int, m: int) -> float:
    """Variance of m integers from their exact sum and sum of squares."""
    return (m * s2 - s1 * s1) / (m * m)


def test_indicator_examples():
    text = normalize("aba")
    s = indicator(text, "a")
    assert s.bits.tolist() == [1, 0, 1]
    assert s.mean == pytest.approx(2 / 3)
    assert indicator(text, "z").bits.tolist() == [0, 0, 0]
    assert indicator(text, "z").mean == 0.0


def test_indicator_series_partition_the_alphabet():
    rng = np.random.default_rng(5)
    from lettercorr import NormalizedText

    text = NormalizedText(rng.integers(0, 27, size=500).astype(np.uint8))
    total = np.zeros(500, dtype=np.int64)
    for code in range(27):
        bits = indicator(text, code).bits
        # the bits are the comparison's bytes viewed as uint8, which must
        # equal the cast they replace
        assert bits.dtype == np.uint8
        assert bits.tobytes() == (text.codes == code).astype(np.uint8).tobytes()
        total += bits
    assert np.all(total == 1)


def test_indicator_rejects_empty_text():
    with pytest.raises(ValueError, match="empty text"):
        indicator(normalize(""), "a")


@pytest.mark.parametrize(
    "bits, message",
    [
        ([], "non-empty 1-d"),
        ([[0, 1], [1, 0]], "non-empty 1-d"),
        # checked as given, not after a cast to uint8
        ([0, 256, 1, 0.7] * 20, "must hold integers, not float64"),
        ([0, 256, 1, 0] * 20, "only contain 0 and 1"),
        ([0, -1, 1, 0] * 20, "only contain 0 and 1"),
    ],
)
def test_indicator_series_rejects_bits_other_than_0_and_1(bits, message):
    with pytest.raises(ValueError, match=message):
        IndicatorSeries(bits=bits, source_letter=0)


def test_constant_zero_series_has_zero_displacement():
    curve = displacement(_series([0] * 100), [1, 2, 5, 10, 25])
    assert np.all(curve.f == 0.0)


def test_alternating_series_vanishes_at_even_k():
    bits = np.tile([1, 0], 200)
    curve = displacement(_series(bits), [2, 4, 8, 16, 64])
    assert np.all(curve.f == 0.0)


def test_prefix_sum_matches_direct_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(200, 4000))
        bits = (rng.random(n) < rng.uniform(0.05, 0.5)).astype(np.uint8)
        ks = np.unique(rng.integers(1, max(n // 4, 2), size=6))
        got = displacement(_series(bits), ks).f
        want = direct_displacement(bits, ks)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


bit_arrays = st.one_of(
    st.lists(st.integers(0, 1), min_size=4, max_size=400),
    st.integers(4, 400).map(lambda n: [0] * n),
    st.integers(4, 400).map(lambda n: [1] * n),
)


@given(bit_arrays, st.data())
def test_displacement_is_the_exact_window_variance(bits, data):
    n = len(bits)
    ks = sorted(data.draw(st.sets(st.integers(1, n // 4), max_size=5)) | {n // 4})
    got = displacement(_series(bits), ks).f
    for k, f in zip(ks, got.tolist()):
        sums = [sum(bits[i : i + k]) for i in range(n - k + 1)]
        assert f == exact_variance(sum(sums), sum(d * d for d in sums), len(sums))


@st.composite
def spans(draw):
    # 1-5 spans (a, b, k) of window starts, anywhere in the sequence
    bits = draw(st.lists(st.integers(0, 1), min_size=8, max_size=400))
    n = len(bits)
    cases = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(1, n))
        a = draw(st.integers(0, n - k))
        cases.append((a, draw(st.integers(a + 1, n - k + 1)), k))
    return bits, cases


@given(spans(), st.data())
def test_window_moments_are_the_exact_sums_over_each_span(case, data):
    # small caps cut the spans into several chunks and batches on the
    # float64 path; a minimum above the rows sends them down the uint64 one.
    # A small block floor leaves blocks of the largest k's rows, so spans
    # and chunks cross block edges and the prefix is refilled many times
    bits, cases = case
    square = max(sum(bits), 1) ** 2
    bound = data.draw(st.integers(1, len(bits))) * square
    min_rows = data.draw(st.integers(0, len(bits) + 1))
    batch = data.draw(st.integers(1, 12))
    block = data.draw(st.integers(1, len(bits)))
    with mock.patch.multiple(
        walk, _FLOAT_EXACT=bound, _FLOAT_MIN_ROWS=min_rows, _BATCH_CHUNKS=batch,
        _BLOCK_ROWS=block,
    ):
        got = walk._window_moments(np.array(bits, dtype=np.uint8), cases)
    want = []
    for a, b, k in cases:
        sums = [sum(bits[i : i + k]) for i in range(a, b)]
        want.append((sum(sums), sum(d * d for d in sums)))
    assert got == want


@st.composite
def ones_near_the_ends(draw):
    # ones only within k of either end, where a window's edge leaves the
    # sequence; optionally flipped, so that nearly every symbol is a one
    n = draw(st.integers(8, 400))
    k = draw(st.integers(1, n // 4))
    near = list(range(k)) + list(range(n - k, n))
    ones = draw(st.sets(st.sampled_from(near)))
    bits = [int(i in ones) for i in range(n)]
    if draw(st.booleans()):
        bits = [1 - b for b in bits]
    return bits, k


@given(st.one_of(bit_arrays.map(lambda b: (b, len(b) // 4)), ones_near_the_ends()), st.data())
def test_float_chunks_match_the_uint64_kernel(case, data):
    # a small float64 bound puts chunk seams inside short sequences; a
    # minimum above the resulting rows sends the walk down the uint64
    # path. The kernel reads Q1 and Q2 from the ones' positions, at every
    # chunk edge of a batch of ks in one gather, and small batches end
    # anywhere from inside the first k's chunks to after the last k. The
    # kernel holds the prefix one block of rows at a time, and a small
    # block floor puts block edges inside the chunks; the reference keeps
    # everything dense and takes one k at a time
    bits, k = case
    n = len(bits)
    ks = sorted(data.draw(st.sets(st.integers(1, n // 4), max_size=5)) | {k, n // 4})
    square = max(sum(bits), 1) ** 2
    rows = data.draw(st.integers(1, n))
    bound = rows * square + data.draw(st.integers(0, square - 1))
    min_rows = data.draw(st.integers(0, n + 1))
    batch = data.draw(st.integers(1, 2 * n))
    block = data.draw(st.integers(1, n))
    with mock.patch.multiple(
        walk, _FLOAT_EXACT=bound, _FLOAT_MIN_ROWS=min_rows, _BATCH_CHUNKS=batch,
        _BLOCK_ROWS=block,
    ):
        got = displacement(_series(bits), ks).f
    assert got.tolist() == uint64_displacement(np.array(bits, dtype=np.uint8), ks).tolist()


def test_frequent_symbols_of_the_novel_match_the_uint64_kernel():
    # only a symbol whose float64 cap (2**53 - 1) // n1**2 falls below N
    # splits the rows of a k into several float chunks: a, e and space
    # (whose cross term passes 2**53 at small k, so one float64 dot over
    # every row would round); x is a one-chunk control
    text = synthetic_novel()
    grid = default_k_grid(len(text))
    series = {code: indicator(text, code) for code in range(27)}
    split = [
        code for code, s in series.items()
        if ((1 << 53) - 1) // max(int(s.bits.sum()), 1) ** 2 < len(text)
    ]
    assert split == [symbol_code("a"), symbol_code("e"), symbol_code("space")]
    for code in [*split, symbol_code("x")]:
        bits = series[code].bits
        got = displacement(series[code], grid).f
        assert got.tolist() == uint64_displacement(bits, grid.tolist()).tolist(), code


def _peak_bytes(series, ks) -> int:
    tracemalloc.start()
    try:
        displacement(series, ks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_displacement_memory_is_the_prefix_block_plus_three_words_per_one():
    # out to k = N/4 the prefix buffer holds 2**17 + N/4 + 1 words, 2 bytes
    # a symbol and 1 MiB, beside the positions' two running sums, 16 bytes
    # a one: space, the novel's most frequent symbol, is one in five
    # symbols, so it needs about 6.0 bytes a symbol; a block of N/4 rows
    # would add 1.1 (7.1), the whole prefix 4
    text = synthetic_novel()
    n = len(text)
    series = indicator(text, "space")
    assert series.mean < 0.2
    peak = _peak_bytes(series, default_k_grid(n))
    assert peak <= 6.5 * n, f"{peak / n:.2f} bytes per symbol"
    # at p = 0.3, 2 bytes a symbol, 1 MiB and 16 bytes a one come to
    # 7.9 bytes a symbol; a uint64 copy of the float64 buffer would add 3
    bits = (np.random.default_rng(4).random(1_000_000) < 0.3).astype(np.uint8)
    peak = _peak_bytes(_series(bits), [1, 10, 1000, 250_000])
    assert peak <= 8.5 * 1_000_000, f"{peak / 1e6:.2f} bytes per symbol"
    # when every symbol is a one the positions and both running sums
    # peak at three words a symbol, before the prefix is built
    ones = _series(np.ones(1_000_000, dtype=np.uint8))
    peak = _peak_bytes(ones, [1, 10, 1000, 250_000])
    assert peak <= 24.5 * 1_000_000, f"{peak / 1e6:.2f} bytes per symbol"


def test_short_grid_memory_is_set_by_the_largest_window():
    # a grid that ends at k = 1,000 holds a prefix block of 2**17 + 1,000
    # words whatever N is, so the peak is the positions and their two
    # running sums, three words a one: 2.4 bytes a symbol at p = 0.1,
    # where the whole prefix would take 8
    n = 4_000_000
    bits = (np.random.default_rng(10).random(n) < 0.1).astype(np.uint8)
    grid = np.unique(np.geomspace(1, 1000, 30).astype(np.int64))
    peak = _peak_bytes(_series(bits), grid)
    assert peak <= 3 * n, f"{peak / n:.2f} bytes per symbol"


def test_chunk_bookkeeping_is_bounded_by_the_batches():
    # a float64 bound of 400 rows cuts the grid's windows into some 28,000
    # chunks per prefix block, about 400 bytes each if a block's were read
    # at once (over 40 bytes a symbol here); batches of 4,096 chunks hold
    # it to about 7 bytes a symbol, beside the walk's 11 at p = 0.3
    n = 1 << 18
    bits = (np.random.default_rng(1).random(n) < 0.3).astype(np.uint8)
    ones = int(bits.sum())
    with mock.patch.multiple(walk, _FLOAT_EXACT=400 * ones * ones, _FLOAT_MIN_ROWS=0):
        peak = _peak_bytes(_series(bits), default_k_grid(n))
    assert peak <= 25 * n, f"{peak / n:.2f} bytes per symbol"


def test_windows_past_the_uint64_bound_are_summed_in_chunks():
    # at N = 8e6 and k = N/4 the window sums' sum of squares passes 2**64,
    # so one uint64 dot product cannot hold it; the reference takes the
    # moments from a histogram of the window sums in Python integers
    n = 8_000_000
    k = n // 4
    bits = (np.random.default_rng(8).integers(0, 20, size=n, dtype=np.uint8) != 0).astype(np.uint8)
    prefix = np.concatenate(([0], np.cumsum(bits, dtype=np.int64)))
    counts = np.bincount(prefix[k:] - prefix[:-k])
    del prefix
    values = np.flatnonzero(counts).tolist()
    weights = counts[values].tolist()
    s1 = sum(c * v for v, c in zip(values, weights))
    s2 = sum(c * v * v for v, c in zip(values, weights))
    assert s2 >= 1 << 64
    got = displacement(_series(bits), [1, k]).f
    assert got[1] == exact_variance(s1, s2, n - k + 1)
    assert got[0] == pytest.approx(0.95 * 0.05, rel=1e-2)


def test_variance_form_matches_centered_profile_form():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = int(rng.integers(1000, 10_000))
        bits = (rng.random(n) < 0.2).astype(np.uint8)
        ks = np.unique(rng.integers(1, n // 4, size=8))
        got = displacement(_series(bits), ks).f
        want = centered_profile_displacement(bits, ks)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_iid_displacement_grows_like_k_times_variance():
    # Monte-Carlo oracle: across independent Bernoulli(p) series the mean
    # of F(k)/k must approach p(1-p) within 3 standard errors
    p = 0.1
    ks = [10, 100, 1000]
    rng = np.random.default_rng(99)
    ratios = np.empty((100, len(ks)))
    for i in range(100):
        bits = (rng.random(1_000_000) < p).astype(np.uint8)
        ratios[i] = displacement(_series(bits), ks).f / ks
    for j, k in enumerate(ks):
        mean = ratios[:, j].mean()
        sem = ratios[:, j].std(ddof=1) / 10.0
        assert abs(mean - p * (1 - p)) < 3 * sem, f"k={k}: {mean} vs {p * (1 - p)}"


def test_relabeling_zero_one_leaves_displacement_unchanged():
    rng = np.random.default_rng(3)
    bits = (rng.random(5000) < 0.3).astype(np.uint8)
    ks = [1, 7, 50, 400, 1250]
    f_orig = displacement(_series(bits), ks).f
    f_flip = displacement(_series(1 - bits), ks).f
    assert np.allclose(f_orig, f_flip, rtol=1e-12, atol=1e-15)


def test_displacement_rejects_oversized_windows():
    with pytest.raises(ValueError, match="k=30 exceeds N/4=25"):
        displacement(_series([0, 1] * 50), [10, 30])


def test_displacement_rejects_bad_grids():
    s = _series([0, 1] * 50)
    with pytest.raises(ValueError, match="strictly increasing"):
        displacement(s, [5, 5])
    with pytest.raises(ValueError, match="at least 1"):
        displacement(s, [0, 3])
    with pytest.raises(ValueError, match="empty"):
        displacement(s, [])


@pytest.mark.parametrize(
    "grid, message",
    [
        ([5, 5], "strictly increasing"),
        ([0, 3], "at least 1"),
        ([10, 30], "k=30 exceeds N/4=25"),
        # not cast down to [2, 10] or [1, 2]
        ([2.5, 10.7], "window lengths must be integers, not float64"),
        ([1.5, 2.9], "window lengths must be integers, not float64"),
    ],
)
def test_curve_and_displacement_reject_a_grid_alike(grid, message):
    with pytest.raises(ValueError, match=message) as from_displacement:
        displacement(_series([0, 1] * 50), grid)
    with pytest.raises(ValueError, match=message) as from_curve:
        DisplacementCurve(k=np.array(grid), f=np.ones(2), n=100)
    assert str(from_curve.value) == str(from_displacement.value)


def test_fit_recovers_exact_power_laws():
    k = np.unique(np.geomspace(10, 10_000, 30).astype(np.int64))
    curve = DisplacementCurve(k=k, f=3.0 * k.astype(float) ** 1.2, n=40_000)
    fit = fit_exponent(curve, 10, 10_000)
    assert fit.alpha == pytest.approx(1.2, abs=1e-9)
    assert fit.rms_residual == pytest.approx(0.0, abs=1e-9)
    assert fit.excluded_zero == 0

    linear = DisplacementCurve(k=k, f=k.astype(float), n=40_000)
    assert fit_exponent(linear, 10, 10_000).alpha == pytest.approx(1.0, abs=1e-12)


def test_fit_excludes_zero_points_and_counts_them():
    k = np.array([10, 20, 40, 80, 160])
    f = np.array([10.0, 0.0, 40.0, 80.0, 160.0])
    fit = fit_exponent(DisplacementCurve(k=k, f=f, n=1000), 10, 160)
    assert fit.excluded_zero == 1
    assert fit.alpha == pytest.approx(1.0, abs=1e-12)


def test_fit_needs_three_usable_points():
    k = np.array([10, 20, 40, 80])
    f = np.array([1.0, 2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="at least 3"):
        fit_exponent(DisplacementCurve(k=k, f=f, n=1000), 10, 80)
    with pytest.raises(ValueError, match="empty fit range"):
        fit_exponent(DisplacementCurve(k=k, f=f, n=1000), 80, 10)


def test_iid_series_fits_near_unity_over_every_decade():
    rng = np.random.default_rng(2024)
    bits = (rng.random(1_000_000) < 0.3).astype(np.uint8)
    curve = displacement(_series(bits), default_k_grid(1_000_000))
    for lo in (10, 100, 1000, 10_000):
        alpha = fit_exponent(curve, lo, lo * 10).alpha
        assert 0.9 <= alpha <= 1.1, f"decade [{lo}, {lo * 10}]: {alpha}"


def test_default_k_grid_shapes():
    g = default_k_grid(400, 10)
    assert g[0] == 1 and g[-1] == 100
    assert np.all(np.diff(g) > 0)
    assert default_k_grid(40)[-1] == 10
    assert default_k_grid(1_000_000)[-1] == 250_000
    with pytest.raises(ValueError, match="too short"):
        default_k_grid(39)
    # a grid depends on n only through N/4: one n per N/4 of 10..5,000 at
    # three densities, every density at every 50th, and a few longer texts
    cases = [(n, ppd) for n in range(40, 20_001, 4) for ppd in (1, 20, 60)]
    cases += [(n, ppd) for n in range(40, 20_001, 200) for ppd in range(1, 61)]
    cases += [(n, ppd) for n in (10**5, 10**6 + 3, 10**7 + 1, 10**8) for ppd in range(1, 61)]
    for n, ppd in cases:
        g = default_k_grid(n, ppd)
        assert g[0] == 1 and g[-1] == n // 4 and np.all(np.diff(g) > 0), (n, ppd)


def test_default_k_grid_past_one_point_per_length():
    # 10**30 points per decade would ask geomspace for about 5e30 floats;
    # the grid holds every length, returned without building them
    assert np.array_equal(default_k_grid(1_000_000, 10**30), np.arange(1, 250_001))
    # at the densities around the count where that starts, the grid is
    # still what geomspace gives
    for n in (40, 401, 4_003, 40_000):
        k_max = n // 4
        first = int((k_max * (np.ceil(np.log(k_max)) + 1) + 2) / np.log10(k_max))
        for ppd in range(first - 3, first + 4):
            count = int(round(np.log10(k_max) * ppd)) + 1
            spaced = np.unique(np.geomspace(1.0, float(k_max), count).astype(np.int64))
            assert np.array_equal(default_k_grid(n, ppd), spaced), (n, ppd)


def test_average_displacement():
    k = np.array([1, 2, 4])
    a = DisplacementCurve(k=k, f=np.array([1.0, 2.0, 4.0]), n=100)
    b = DisplacementCurve(k=k, f=np.array([3.0, 2.0, 0.0]), n=100)
    avg = average_displacement([a, b])
    assert avg.f.tolist() == [2.0, 2.0, 2.0]
    other = DisplacementCurve(k=np.array([1, 3, 4]), f=np.ones(3), n=100)
    with pytest.raises(ValueError, match="same window grid"):
        average_displacement([a, other])


def test_average_displacement_rejects_curves_of_different_lengths():
    # texts of 401 and 402 symbols share a window grid, not a length
    grid = default_k_grid(402)
    assert np.array_equal(grid, default_k_grid(401))
    longer = displacement(_series([0, 1] * 201), grid)
    shorter = displacement(_series([0, 1] * 200 + [0]), grid)
    with pytest.raises(ValueError, match="one length, not 402 and 401"):
        average_displacement([longer, shorter])
