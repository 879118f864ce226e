import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_integration import synthetic_novel

from lettercorr import (
    SPACE,
    NormalizedText,
    decode_symbols,
    default_k_grid,
    displacement,
    fit_exponent,
    indicator,
    letter_shuffle,
    normalize,
    nullmodels,
    tokenize,
    two_regime_sequence,
    window_permute,
    window_shuffle,
    word_shuffle,
)


def _words(text: NormalizedText) -> list[str]:
    tokens = tokenize(text)
    return [tokens.vocab[i] for i in tokens.types]


def _histogram(text: NormalizedText) -> np.ndarray:
    return np.bincount(text.codes, minlength=27)


def _drifting_text(n: int, seed: int) -> NormalizedText:
    # two-symbol text whose 'a' probability drifts along the sequence
    p = 0.15 + 0.1 * np.sin(2 * np.pi * np.arange(n) / 20_000)
    rng = np.random.default_rng(seed)
    return NormalizedText(np.where(rng.random(n) < p, 0, SPACE).astype(np.uint8))


def test_generators_are_deterministic_given_seed():
    text = _drifting_text(5_000, 1)
    assert window_shuffle(text, 100, 7) == window_shuffle(text, 100, 7)
    assert window_permute(text, 100, 7) == window_permute(text, 100, 7)
    assert letter_shuffle(text, 7) == letter_shuffle(text, 7)
    assert two_regime_sequence(1000, burst_len=50, seed=7) == two_regime_sequence(
        1000, burst_len=50, seed=7
    )
    assert window_shuffle(text, 100, 7) != window_shuffle(text, 100, 8)


def test_seed_is_mandatory():
    text = normalize("some words here")
    with pytest.raises(ValueError, match="seed"):
        letter_shuffle(text, None)


def test_window_shuffle_of_constant_text_is_identity():
    text = NormalizedText(np.zeros(500, dtype=np.uint8))
    assert window_shuffle(text, 64, 3) == text


def test_window_shuffle_whole_text_window_matches_global_histogram():
    # window of 2N degenerates to iid draws from the whole text, so the
    # histogram matches the source in expectation
    text = _drifting_text(30_000, 2)
    source = _histogram(text) / len(text)
    sampled = np.zeros(27)
    n_seeds = 20
    for seed in range(n_seeds):
        sampled += _histogram(window_shuffle(text, 2 * len(text), seed)) / len(text)
    sampled /= n_seeds
    assert np.abs(sampled - source).max() < 0.01


def test_window_shuffle_validation():
    text = _drifting_text(100, 0)
    with pytest.raises(ValueError, match="at least 2"):
        window_shuffle(text, 1, 0)
    with pytest.raises(ValueError, match="empty text"):
        window_shuffle(normalize(""), 10, 0)


@given(
    st.lists(st.integers(0, 26), min_size=1, max_size=300),
    st.data(),
    st.integers(min_value=0, max_value=2**32),
)
def test_window_shuffle_matches_the_position_formula(codes, data, seed):
    # the bounds built from one position array, as before the in-place
    # clamps and the blocks. Small blocks put interior blocks, drawn with
    # one scalar range, next to clamped ones; window 2 draws nothing, and
    # windows of 2N or more have no interior
    n = len(codes)
    window = data.draw(
        st.one_of(st.integers(2, 2 * n + 3), st.sampled_from([2, 3, 2 * n, 2 * n + 1]))
    )
    block = data.draw(st.integers(1, n + 1))
    pos = np.arange(n, dtype=np.int64)
    lo = np.maximum(pos - window // 2 + 1, 0)
    hi = np.minimum(pos + (window + 1) // 2, n)
    source = np.array(codes, dtype=np.uint8)
    want = source[np.random.default_rng(seed).integers(lo, hi)]
    with mock.patch.object(nullmodels, "_BLOCK", block):
        got = window_shuffle(NormalizedText(source), window, seed)
    assert got == NormalizedText(want)


def test_window_shuffle_draws_huge_windows_as_twice_the_text():
    # a window past the int64 range is clamped before any array is built
    text = _drifting_text(1000, 4)
    for window in (2000, 2001, 10**6, 10**20):
        assert window_shuffle(text, window, 3) == window_shuffle(text, 2000, 3)


def test_window_shuffle_memory_is_the_output_and_one_block():
    # the 1-byte output; the bounds, picks and gathered codes exist one
    # block at a time
    n = 1_000_000
    text = NormalizedText(np.random.default_rng(5).integers(0, 27, n).astype(np.uint8))
    tracemalloc.start()
    try:
        window_shuffle(text, 3000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n, f"{peak / n:.2f} bytes per symbol"


def test_window_shuffle_preserves_local_frequencies():
    # Monte-Carlo check: windowed resampling keeps per-block letter
    # frequencies, a full shuffle erases the drift entirely
    text = _drifting_text(100_000, 11)
    block = 3000
    n_blocks = len(text) // block

    def block_freqs(t: NormalizedText) -> np.ndarray:
        view = t.codes[: n_blocks * block].reshape(n_blocks, block)
        return (view == 0).mean(axis=1)

    source = block_freqs(text)
    window_err = np.mean(
        [np.abs(block_freqs(window_shuffle(text, 3000, s)) - source).mean() for s in range(50)]
    )
    global_err = np.mean(
        [np.abs(block_freqs(letter_shuffle(text, s)) - source).mean() for s in range(50)]
    )
    assert window_err < 0.02
    assert global_err > 3 * window_err


def test_window_permute_preserves_histogram_exactly():
    text = _drifting_text(10_000, 3)
    for window in (2, 17, 1000, 10_000):
        assert np.array_equal(_histogram(window_permute(text, window, 5)), _histogram(text))


def _window_permute_by_blocks(codes: np.ndarray, window: int, rng: np.random.Generator):
    # one shuffle per block in turn: the loop the single permuted call replaced
    out = codes.copy()
    for start in range(0, out.size, window):
        rng.shuffle(out[start : start + window])
    return out


@given(
    st.lists(st.integers(0, 26), min_size=1, max_size=400),
    st.data(),
    st.integers(min_value=0, max_value=2**32),
)
def test_window_permute_matches_one_shuffle_per_block(codes, data, seed):
    # the same output and the same generator state afterwards, so a numpy
    # whose permuted draws differently from shuffle fails here. Windows of
    # 1 and N, windows that leave a tail, and a tail of one symbol
    n = len(codes)
    tails_of_one = [w for w in range(2, n) if n % w == 1]
    window = data.draw(
        st.one_of(
            st.integers(1, n),
            st.sampled_from([1, n, *tails_of_one[:3]]),
        )
    )
    source = np.array(codes, dtype=np.uint8)
    want_rng = np.random.default_rng(seed)
    want = _window_permute_by_blocks(source, window, want_rng)
    got_rng = np.random.default_rng(seed)
    with mock.patch.object(nullmodels, "_rng", lambda _: got_rng):
        got = window_permute(NormalizedText(source), window, seed)
    assert got == NormalizedText(want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_window_permute_matches_one_shuffle_per_block_on_a_long_text():
    text = _drifting_text(100_003, 6)
    for window in (2, 3, 7, 30, 3000):
        want = _window_permute_by_blocks(text.codes, window, np.random.default_rng(1))
        assert window_permute(text, window, 1) == NormalizedText(want)


def test_window_permute_identity_and_validation():
    text = _drifting_text(1000, 4)
    assert window_permute(text, 1, 9) == text
    with pytest.raises(ValueError, match="exceeds text length"):
        window_permute(text, 1001, 9)


def test_letter_shuffle_preserves_histogram_exactly():
    text = _drifting_text(10_000, 5)
    assert np.array_equal(_histogram(letter_shuffle(text, 1)), _histogram(text))


def test_word_shuffle_preserves_token_multiset():
    text = normalize("the cat saw the other cat by the sea")
    shuffled = word_shuffle(text, 2)
    assert sorted(_words(shuffled)) == sorted(_words(text))


@given(
    st.lists(st.sampled_from("abc   "), min_size=1, max_size=300)
    .map("".join)
    .flatmap(lambda s: st.tuples(st.just(s), st.integers(1, len(s) + 1))),
    st.integers(min_value=0, max_value=2**32),
)
@example(("     ", 1), 0)
@example(("  ab  c ab   a  ", 2), 7)
def test_word_shuffle_matches_the_word_list_shuffle(case, seed):
    # the word list permutation the token table replaced, on texts with
    # space runs or no words at all, joined in blocks of any size
    s, block = case
    text = decode_symbols(s.encode())
    words = s.split()
    order = np.random.default_rng(seed).permutation(len(words))
    with mock.patch.object(nullmodels, "_BLOCK", block):
        got = word_shuffle(text, seed)
    assert got == normalize(" ".join(words[i] for i in order))


def test_word_shuffle_memory_is_the_token_table_and_one_block_of_words():
    # the peak is tokenize's, 6.2 bytes a symbol of the novel: the offsets
    # are freed before the ids are permuted, and no list holds every word
    # (lists of the permuted ids and of their words took 13.8)
    text = synthetic_novel()
    n = len(text)
    tracemalloc.start()
    try:
        word_shuffle(text, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * n, f"{peak / n:.2f} bytes per symbol"


def test_two_regime_alphabet_and_placement():
    seq = two_regime_sequence(10_000, burst_len=100, seed=0)
    assert set(np.unique(seq.codes)) <= {0, SPACE}
    assert len(seq) == 10_000
    # burst_len = 0 gives the plain homogeneous process
    assert two_regime_sequence(5000, 0.1, 0.9, 0, seed=1) == two_regime_sequence(
        5000, 0.1, 0.1, 0, seed=1
    )


def full_array_two_regime(length, base_p, burst_p, burst_len, burst_start, seed):
    """One probability per position and one draw over all, as before blocks."""
    p = np.full(length, base_p)
    p[burst_start : burst_start + burst_len] = burst_p
    draws = np.random.default_rng(seed).random(length)
    return NormalizedText(np.where(draws < p, 0, SPACE).astype(np.uint8))


@given(st.data(), st.integers(min_value=0, max_value=2**32))
def test_two_regime_blocks_match_the_full_array_formula(data, seed):
    # block sizes that put the burst edges on a block seam, and bursts
    # that start, end or lie inside one block or span several
    length = data.draw(st.integers(1, 400))
    burst_len = data.draw(st.integers(0, length))
    burst_start = data.draw(st.integers(0, length - burst_len))
    seams = [e for e in (burst_start, burst_start + burst_len) if e > 0]
    block = data.draw(st.one_of(st.integers(1, length + 1), st.sampled_from(seams or [1])))
    base_p, burst_p = data.draw(st.sampled_from([(0.062, 0.1054), (0.3, 0.9), (0.5, 0.5)]))
    with mock.patch.object(nullmodels, "_BLOCK", block):
        got = two_regime_sequence(length, base_p, burst_p, burst_len, burst_start, seed=seed)
    assert got == full_array_two_regime(length, base_p, burst_p, burst_len, burst_start, seed)


def test_two_regime_memory_is_the_output_alone():
    # the draws and their comparison exist one block at a time
    n = 1_200_000
    tracemalloc.start()
    try:
        two_regime_sequence(n, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n, f"{peak / n:.2f} bytes per symbol"


def test_two_regime_equal_probabilities_fit_near_unity():
    seq = two_regime_sequence(400_000, 0.1, 0.1, 6250, seed=8)
    curve = displacement(indicator(seq, "a"), default_k_grid(len(seq)))
    alpha = fit_exponent(curve, 10, 10_000).alpha
    assert 0.9 <= alpha <= 1.1


def test_two_regime_validation():
    with pytest.raises(ValueError, match="base_p"):
        two_regime_sequence(100, base_p=0.0, seed=0)
    with pytest.raises(ValueError, match="burst_p"):
        two_regime_sequence(100, burst_p=1.0, seed=0)
    with pytest.raises(ValueError, match="does not fit"):
        two_regime_sequence(100, burst_len=50, burst_start=80, seed=0)
    with pytest.raises(ValueError, match="length"):
        two_regime_sequence(0, seed=0)
