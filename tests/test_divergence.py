import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_integration import synthetic_novel

from lettercorr import (
    SPACE,
    JsdProfile,
    NormalizedText,
    divergence,
    entropy,
    fluctuation_level,
    jsd,
    jsd_profile,
    normalize,
)

PROFILE_ARRAYS = ("positions", "raw", "fluct", "normalized", "support", "trials")


# The per-pair paths the segment-pair kernel replaced, kept as references.


def _entropy_1d(freqs: np.ndarray) -> float:
    p = freqs[freqs > 0]
    return float(-(p * np.log(p)).sum())


def _jsd_1d(p: np.ndarray, q: np.ndarray) -> float:
    fp, fq = p / p.sum(), q / q.sum()
    d = _entropy_1d((fp + fq) / 2.0) - 0.5 * (_entropy_1d(fp) + _entropy_1d(fq))
    return max(d, 0.0)


def _loop_profile(text: NormalizedText, length: int, step: int, include_space: bool):
    """One pair of bincounts per boundary, as the profile was first computed."""
    n_symbols = 27 if include_space else SPACE
    rows = []
    for b in range(length, len(text) - length + 1, step):
        left = np.bincount(text.codes[b - length : b], minlength=27)[:n_symbols]
        right = np.bincount(text.codes[b : b + length], minlength=27)[:n_symbols]
        n_left, n_right = int(left.sum()), int(right.sum())
        if n_left == 0 or n_right == 0:
            continue
        pooled = int(np.count_nonzero(left + right))
        d = jsd(left, right)
        if pooled < 2:
            level = norm = 0.0
        else:
            level = fluctuation_level(pooled, n_left, n_right)
            norm = d / level
        trials = 2.0 / (1.0 / n_left + 1.0 / n_right)
        rows.append((b, d, level, norm, pooled, trials))
    columns = list(zip(*rows)) or [()] * 6
    dtypes = (np.int64, np.float64, np.float64, np.float64, np.int64, np.float64)
    return [np.asarray(c, dtype=t) for c, t in zip(columns, dtypes)]


def _assert_profile_is(profile: JsdProfile, expected) -> None:
    for name, want in zip(PROFILE_ARRAYS, expected):
        got = getattr(profile, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _runs(alphabet, max_run: int):
    """Texts as runs of repeated symbols drawn from ``alphabet``."""
    run = st.tuples(st.sampled_from(alphabet), st.integers(1, max_run))
    return st.lists(run, min_size=2, max_size=120).map(
        lambda runs: NormalizedText(np.repeat([c for c, _ in runs], [k for _, k in runs]))
    )


profile_texts = st.one_of(
    _runs(range(27), 3),  # all 27 symbols, short space runs
    st.lists(st.integers(0, 26), min_size=1, max_size=3, unique=True).flatmap(
        lambda alphabet: _runs(alphabet, 4)  # 1-3 symbols: flat and near-flat levels
    ),
    _runs([0, 1, 2, 3, SPACE, SPACE], 12),  # long space runs: all-space segments
)


counts_pairs = st.integers(min_value=2, max_value=27).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 200), min_size=n, max_size=n),
        st.lists(st.integers(0, 200), min_size=n, max_size=n),
    ).filter(lambda pq: sum(pq[0]) > 0 and sum(pq[1]) > 0)
)


def test_entropy_examples():
    assert entropy([5, 0, 0]) == 0.0
    assert entropy([3, 3]) == pytest.approx(math.log(2), abs=1e-12)
    assert entropy([10] * 27) == pytest.approx(math.log(27), abs=1e-12)
    with pytest.raises(ValueError, match="empty"):
        entropy([0, 0])


def test_jsd_examples():
    assert jsd([3, 1], [3, 1]) == 0.0
    assert jsd([1, 0], [0, 1]) == pytest.approx(math.log(2), abs=1e-12)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        jsd([1, 2], [1, 2, 3])


def test_jsd_and_entropy_reject_what_is_not_counts():
    not_counts = [
        ([0.7, 1.6, 2.9], "integers"),  # an int cast gives [0, 1, 2]
        ([0.2, 0.8], "integers"),  # an int cast gives [0, 0]
        ([3, -1, 2], "non-negative"),
        (np.ones((2, 2, 2), dtype=np.int64), "1-d or 2-d"),
        ([], "non-empty"),
        ([[1, 2], [0, 0]], "empty distribution"),
    ]
    for counts, message in not_counts:
        with pytest.raises(ValueError, match=message):
            entropy(counts)
        with pytest.raises(ValueError, match=message):
            jsd(counts, counts)
    with pytest.raises(ValueError, match=r"alphabet mismatch: .*\(2, 3\) vs \(3, 3\)"):
        jsd(np.ones((2, 3), dtype=np.int64), np.ones((3, 3), dtype=np.int64))


def test_jsd_ignores_count_scale():
    # equal frequency vectors from different trial counts diverge by zero
    assert jsd([2, 4, 6], [1, 2, 3]) == 0.0


@given(counts_pairs)
def test_jsd_bounds_and_symmetry(pq):
    p, q = np.array(pq[0]), np.array(pq[1])
    d = jsd(p, q)
    assert 0.0 <= d <= math.log(2) + 1e-12
    assert d == jsd(q, p)
    if np.array_equal(p / p.sum(), q / q.sum()):
        assert d == 0.0
    else:
        assert d > 0.0


def test_fluctuation_level_examples():
    assert fluctuation_level(27, 1000) == pytest.approx(0.0065, abs=1e-15)
    assert fluctuation_level(2, 123) == pytest.approx(1 / (4 * 123), abs=1e-15)
    assert fluctuation_level(9, 500, 500) == pytest.approx(fluctuation_level(9, 500), abs=1e-15)
    with pytest.raises(ValueError, match="at least 2"):
        fluctuation_level(1, 100)
    with pytest.raises(ValueError, match="positive"):
        fluctuation_level(5, 0)


@pytest.mark.parametrize("n_symbols,trials", [(5, 1000), (27, 10_000)])
def test_fluctuation_level_matches_monte_carlo(n_symbols, trials):
    # same-law multinomial sample pairs must average to (n-1)/(4N)
    rng = np.random.default_rng(7)
    law = np.full(n_symbols, 1.0 / n_symbols)
    draws = rng.multinomial(trials, law, size=(1000, 2))
    mean = np.mean(jsd(draws[:, 0], draws[:, 1]))
    predicted = fluctuation_level(n_symbols, trials)
    assert abs(mean - predicted) <= 0.15 * predicted


def _stacked_pairs(n: int):
    """Several count pairs over ``n`` symbols, of different supports, which
    the row kernel sums as separate groups; with many zeros a zero-padded
    row sum would add in another order."""
    counts = st.one_of(
        st.lists(st.integers(0, 200), min_size=n, max_size=n),
        st.lists(st.one_of(st.just(0), st.integers(1, 300)), min_size=n, max_size=n),
    ).filter(any)
    return st.lists(st.tuples(counts, counts), min_size=1, max_size=8)


@given(st.integers(2, 27).flatmap(_stacked_pairs))
def test_jsd_and_entropy_match_the_one_dimensional_sums(pairs):
    left, right = (np.array(side, dtype=np.int64) for side in zip(*pairs))
    h, d = entropy(left), jsd(left, right)
    assert h.shape == d.shape == (len(pairs),)
    for i, (p, q) in enumerate(zip(left, right)):
        assert h[i].hex() == entropy(p).hex() == _entropy_1d(p / p.sum()).hex()
        assert d[i].hex() == jsd(p, q).hex() == _jsd_1d(p, q).hex()


@given(
    profile_texts,
    st.data(),
    st.booleans(),
    st.sampled_from([1, 2, 3, 5, divergence._CHUNK_PAIRS]),
    st.sampled_from([1, 20, divergence._CHUNK_SPAN]),
    # small pieces cut both the segments and the blocks between their edges
    st.sampled_from([1, 7, divergence._PIECE]),
)
def test_profile_matches_the_per_boundary_loop(text, data, include_space, pairs, span, piece):
    length = data.draw(st.integers(1, len(text) // 2), label="length")
    # steps that divide L, that do not, and that exceed it
    step = data.draw(st.integers(1, 2 * length + 3), label="step")
    with mock.patch.multiple(divergence, _CHUNK_PAIRS=pairs, _CHUNK_SPAN=span, _PIECE=piece):
        profile = jsd_profile(text, length, step, include_space=include_space)
    _assert_profile_is(profile, _loop_profile(text, length, step, include_space))
    assert profile.step == step


# chunks bounded by their pair count, and (step 300) by the symbols they span
@pytest.mark.parametrize("length,step", [(7, 1), (40, 3), (5, 6), (5, 300)])
def test_profile_spanning_several_chunks_matches_the_loop(length, step):
    chunk = min(divergence._CHUNK_PAIRS, divergence._CHUNK_SPAN // step)
    rng = np.random.default_rng(length)
    codes = rng.integers(0, 27, size=2 * chunk * step + 2 * length + step)
    text = NormalizedText(codes.astype(np.uint8))
    profile = jsd_profile(text, length, step)
    assert len(profile) > 2 * chunk
    _assert_profile_is(profile, _loop_profile(text, length, step, True))


def test_profile_memory_stays_near_its_output():
    rng = np.random.default_rng(3)
    text = NormalizedText(rng.integers(0, 27, size=50_000).astype(np.uint8))
    jsd_profile(text, 50, 1)
    tracemalloc.start()
    try:
        profile = jsd_profile(text, 50, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = sum(getattr(profile, name).nbytes for name in PROFILE_ARRAYS)
    assert peak <= 3 * output


def test_profile_memory_is_bounded_by_the_pieces():
    # a chunk's counts are built a piece of 2**15 symbols at a time, so
    # long segments cost no more than short ones; one bincount index over
    # a chunk's span took 3.7 MB at L = 1e5 and 5.2 MB at L = 2e5
    text = synthetic_novel()
    for length in (100_000, 200_000):
        tracemalloc.start()
        try:
            jsd_profile(text, length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000, f"L = {length}: {peak / 1e6:.2f} MB"


def test_profile_of_constant_text_is_zero():
    text = NormalizedText(np.zeros(4000, dtype=np.uint8))
    profile = jsd_profile(text, 500)
    assert len(profile) > 0
    assert profile.step == 50  # the default: a tenth of the segment length
    assert np.all(profile.raw == 0.0)
    assert np.all(profile.normalized == 0.0)


def test_profile_of_iid_text_sits_at_fluctuation_level():
    rng = np.random.default_rng(12)
    text = NormalizedText(rng.integers(0, 27, size=200_000).astype(np.uint8))
    profile = jsd_profile(text, 1000)
    assert 0.8 <= profile.normalized.mean() <= 1.2


def test_profile_peaks_at_composition_junction():
    # two homogeneous halves with different laws: the junction boundary
    # must carry the largest normalized divergence
    rng = np.random.default_rng(4)
    n = 20_000
    left = rng.choice([0, 1, SPACE], size=n // 2, p=[0.5, 0.3, 0.2])
    right = rng.choice([0, 1, SPACE], size=n // 2, p=[0.2, 0.3, 0.5])
    text = NormalizedText(np.concatenate([left, right]).astype(np.uint8))
    profile = jsd_profile(text, 2000, step=2000)
    peak = profile.positions[profile.normalized.argmax()]
    assert peak == n // 2


def test_profile_effective_support_tracks_pooled_symbols():
    rng = np.random.default_rng(9)
    text = NormalizedText(rng.integers(0, 3, size=50_000).astype(np.uint8))
    profile = jsd_profile(text, 5000)
    assert np.all(profile.support == 3)
    assert np.all(profile.trials == 5000.0)
    assert np.allclose(profile.fluct, fluctuation_level(3, 5000))


def test_profile_letters_only_skips_empty_segments():
    codes = np.full(6000, SPACE, dtype=np.uint8)
    codes[:1000] = 0  # letters only in the first stretch
    codes[-1000:] = 1
    text = NormalizedText(codes)
    profile = jsd_profile(text, 1000, step=500, include_space=False)
    # interior boundaries see all-space segments on both sides and are dropped
    assert len(profile) < len(range(1000, 5001, 500))
    assert np.all(np.isfinite(profile.normalized))


def test_profile_validation():
    text = normalize("short text")
    with pytest.raises(ValueError, match="shorter than two segments"):
        jsd_profile(text, 100)
    with pytest.raises(ValueError, match="step"):
        jsd_profile(text, 5, step=0)
    # exactly one pair fits
    assert len(jsd_profile(normalize("abcdefghij", trim=True), np.int64(5))) == 1
