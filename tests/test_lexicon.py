import math
import re
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_integration import synthetic_novel

from lettercorr import (
    SPACE,
    NormalizedText,
    Tokens,
    band_jsd,
    build_lexicon,
    compare_halves,
    content_word_variance_model,
    decode_symbols,
    divergence,
    fluctuation_level,
    jsd,
    normalize,
    partition_bands,
    tokenize,
    zipf_fit,
)
from lettercorr.lexicon import Band, BandJsdEntry, BandPartition, FrequencyLexicon, _band_labels


def _tokens(words) -> Tokens:
    return tokenize(normalize(" ".join(words)))


# surrogate-like texts: few letters, so words repeat, and runs of spaces
surrogates = st.lists(st.sampled_from("abc   "), max_size=300).map(
    lambda s: decode_symbols("".join(s).encode())
)

# texts of random words over all 26 letters, with runs of spaces
word_texts = st.lists(st.sampled_from("abcdefghijklmnopqrstuvwxyz    "), max_size=600).map(
    lambda s: decode_symbols("".join(s).encode())
)


# The paths the token table and the lexicon columns replaced, kept as references.


def _regex_tokens(text: NormalizedText) -> list[tuple[str, int, int]]:
    return [
        (m.group().decode("ascii"), m.start(), m.end() - m.start())
        for m in re.finditer(rb"[a-z]+", text.to_bytes())
    ]


def _counter_lexicon(words: list[str]) -> FrequencyLexicon:
    counts = Counter(words)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return FrequencyLexicon(
        words=tuple(w for w, _ in ordered),
        counts=np.array([c for _, c in ordered], dtype=np.int64),
        lengths=np.array([len(w) for w, _ in ordered], dtype=np.int64),
        total_letters=sum(c * len(w) for w, c in counts.items()),
    )


def _scanned_partition(lex: FrequencyLexicon, band_count: int, share: float) -> BandPartition:
    """partition_bands as a scan in rank order, as it was first computed."""
    counts, lengths = lex.counts.tolist(), lex.lengths.tolist()
    closes: list[int] = []
    cum_letters = 0
    for rank, (count, length) in enumerate(zip(counts, lengths), start=1):
        cum_letters += count * length
        while (
            len(closes) < band_count - 1
            and cum_letters >= (len(closes) + 1) * share * lex.total_letters - 1e-6
        ):
            closes.append(rank)

    bounds: list[tuple[int, int]] = []
    prev = 0
    for c in closes:
        bounds.append((prev + 1, c))
        prev = c
    while len(bounds) < band_count - 1:
        bounds.append((prev + 1, prev))
    bounds.append((prev + 1, len(lex)))

    bands = []
    for i, (lo, hi) in enumerate(bounds):
        members = range(lo - 1, hi)  # empty when lo > hi
        letters = sum(counts[j] * lengths[j] for j in members)
        bands.append(Band(i + 1, lo, hi, len(members), letters / lex.total_letters))
    return BandPartition(tuple(bands), share, any(b.word_types == 0 for b in bands))


def _loop_band_filter(text: NormalizedText, lex: FrequencyLexicon, band) -> NormalizedText:
    keep = frozenset()
    if band.rank_lo <= band.rank_hi:
        keep = frozenset(lex.words[band.rank_lo - 1 : band.rank_hi])
    out = text.codes.copy()
    for word, start, length in _regex_tokens(text):
        if word not in keep:
            out[start : start + length] = SPACE
    return NormalizedText(out)


def _scanned_halves(text: NormalizedText) -> tuple[Counter, Counter, int]:
    tokens = _regex_tokens(text)
    mid = len(text) // 2
    split = mid
    for _, start, length in tokens:
        if start >= mid:
            break
        end = start + length
        if end > mid:
            split = start if mid - start < end - mid else end
            break
    first = Counter(w for w, start, _ in tokens if start < split)
    second = Counter(w for w, start, _ in tokens if start >= split)
    return first, second, split


def _loop_band_jsd(text: NormalizedText, lex, partition, length: int) -> list[BandJsdEntry]:
    """One pair of bincounts per segment pair and band, as band_jsd was first computed."""
    entries = []
    for band in partition.bands:
        codes = _loop_band_filter(text, lex, band).codes
        norms, effs = [], []
        for s in range(0, len(text) - 2 * length + 1, 2 * length):
            left = np.bincount(codes[s : s + length], minlength=27)[:SPACE]
            right = np.bincount(codes[s + length : s + 2 * length], minlength=27)[:SPACE]
            n_left, n_right = int(left.sum()), int(right.sum())
            if n_left == 0 or n_right == 0:
                continue
            pooled = int(np.count_nonzero(left + right))
            if pooled < 2:
                continue
            norms.append(jsd(left, right) / fluctuation_level(pooled, n_left, n_right))
            effs.append(2.0 / (1.0 / n_left + 1.0 / n_right))
        entries.append(
            BandJsdEntry(
                band=band,
                mean_normalized=float(np.mean(norms)) if norms else math.nan,
                pair_count=len(norms),
                mean_trials=float(np.mean(effs)) if effs else math.nan,
            )
        )
    return entries


def _iid_letter_text(n: int, seed: int) -> NormalizedText:
    # homogeneous iid symbols: sloped letter law plus ~19% spaces
    rng = np.random.default_rng(seed)
    weights = np.concatenate([np.linspace(3.0, 0.4, 26), [6.0]])
    return NormalizedText(rng.choice(27, size=n, p=weights / weights.sum()).astype(np.uint8))


def test_build_lexicon_orders_by_count_then_word():
    lex = build_lexicon(_tokens(["a", "a", "b"]))
    # row i is rank i + 1
    assert lex.words == ("a", "b")
    assert lex.counts.tolist() == [2, 1] and lex.lengths.tolist() == [1, 1]

    tie = build_lexicon(_tokens(["b", "a"]))
    assert tie.words == ("a", "b")


def test_lexicon_letter_shares_sum_to_one():
    lex = build_lexicon(_tokens(["whale", "whale", "sea", "a"]))
    assert lex.total_letters == 5 + 5 + 3 + 1
    assert lex.letter_shares.tolist() == [10 / 14, 1 / 14, 3 / 14]
    assert lex.letter_shares.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="no tokens"):
        build_lexicon(_tokens([]))


@given(surrogates)
def test_build_lexicon_matches_the_counter_lexicon(text):
    words = [w for w, _, _ in _regex_tokens(text)]
    assume(words)
    # == on the dataclass would compare the arrays by identity, so compare columns
    got, want = build_lexicon(tokenize(text)), _counter_lexicon(words)
    assert got.words == want.words
    assert got.counts.dtype == got.lengths.dtype == np.int64
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.lengths, want.lengths)
    assert got.total_letters == want.total_letters
    # the shares the rank loop took as c * len(w) / total_letters in Python ints
    shares = [c * len(w) / want.total_letters for w, c in zip(want.words, want.counts.tolist())]
    assert [x.hex() for x in got.letter_shares.tolist()] == [x.hex() for x in shares]


def test_zipf_fit_recovers_exact_exponents():
    # counts C/k are exact integers for k <= 12 when C = 27720
    words = [f"w{chr(97 + i)}" for i in range(12)]
    stream = []
    for k, w in enumerate(words, start=1):
        stream.extend([w] * (27720 // k))
    assert zipf_fit(build_lexicon(_tokens(stream)), 1, 12) == pytest.approx(-1.0, abs=1e-9)

    # inverse-square counts, built directly
    lex = FrequencyLexicon(
        words=tuple(words),
        counts=np.array([(27720 // k) ** 2 for k in range(1, 13)], dtype=np.int64),
        lengths=np.full(12, 2, dtype=np.int64),
        total_letters=1,
    )
    assert zipf_fit(lex, 1, 12) == pytest.approx(-2.0, abs=1e-9)


def test_zipf_fit_needs_ten_ranks():
    lex = build_lexicon(_tokens(["a", "b", "c"]))
    with pytest.raises(ValueError, match="at least 10"):
        zipf_fit(lex, 1, 3)


def test_partition_five_equal_words_one_per_band():
    lex = build_lexicon(_tokens(["aa", "bb", "cc", "dd", "ee"]))
    part = partition_bands(lex)
    assert not part.degenerate
    assert [(b.rank_lo, b.rank_hi, b.word_types) for b in part.bands] == [
        (1, 1, 1),
        (2, 2, 1),
        (3, 3, 1),
        (4, 4, 1),
        (5, 5, 1),
    ]
    assert all(b.letter_share == pytest.approx(0.2, abs=1e-12) for b in part.bands)


def test_partition_single_word_is_degenerate():
    lex = build_lexicon(_tokens(["whale"]))
    part = partition_bands(lex)
    assert part.degenerate
    assert part.bands[0].word_types == 1
    assert all(b.word_types == 0 for b in part.bands[1:])


def test_partition_covers_lexicon_and_shares():
    text = _iid_letter_text(200_000, 6)
    lex = build_lexicon(tokenize(text))
    part = partition_bands(lex)
    assert sum(b.word_types for b in part.bands) == len(lex)
    assert sum(b.letter_share for b in part.bands) == pytest.approx(1.0, abs=1e-9)
    hi = 0
    for b in part.bands:
        if b.word_types:
            assert b.rank_lo == hi + 1
            hi = b.rank_hi
    assert hi == len(lex)


def test_partition_targets_tolerate_float_rounding():
    # 3 * 0.1 * 10 rounds to 3.0000000000000004; the third band still closes
    # at the word that brings the cumulative letter count to exactly 3
    lex = build_lexicon(_tokens(list("abcdefghij")))
    part = partition_bands(lex, 4, 0.1)
    assert [(b.rank_lo, b.rank_hi) for b in part.bands] == [(1, 1), (2, 2), (3, 3), (4, 10)]
    assert part.bands == _scanned_partition(lex, 4, 0.1).bands


@given(st.one_of(surrogates, word_texts), st.data())
def test_partition_bands_matches_the_rank_order_scan(text, data):
    assume(len(tokenize(text)))
    lex = build_lexicon(tokenize(text))
    band_count = data.draw(st.integers(1, 9), label="band_count")
    # count x share may pass 1, leaving targets no word reaches
    share = data.draw(st.sampled_from([1 / band_count, 0.1, 0.5, 1.0]), label="target_share")
    got, want = partition_bands(lex, band_count, share), _scanned_partition(lex, band_count, share)
    assert got.degenerate == want.degenerate
    assert got.target_share == want.target_share
    assert [(b.index, b.rank_lo, b.rank_hi, b.word_types) for b in got.bands] == [
        (b.index, b.rank_lo, b.rank_hi, b.word_types) for b in want.bands
    ]
    assert [b.letter_share.hex() for b in got.bands] == [b.letter_share.hex() for b in want.bands]


def _in_band(text: NormalizedText, lex: FrequencyLexicon, band) -> np.ndarray:
    """Where the one-band labels mark a letter of the band."""
    labels = _band_labels(text, lex, (band,), tokenize(text))
    assert labels.shape == text.codes.shape
    return labels == 1


def test_band_filter_whole_lexicon_is_identity():
    text = normalize("the whale sees the sea")
    lex = build_lexicon(tokenize(text))
    part = partition_bands(lex, band_count=1, target_share=1.0)
    assert np.array_equal(_in_band(text, lex, part.bands[0]), text.codes != SPACE)


def test_band_filter_empty_band_blanks_everything():
    text = normalize("the whale sees the sea")
    lex = build_lexicon(tokenize(text))
    part = partition_bands(build_lexicon(tokenize(normalize("x"))), band_count=5)
    empty = part.bands[1]
    assert not _in_band(text, lex, empty).any()


def test_band_filter_letter_accounting():
    text = _iid_letter_text(50_000, 7)
    lex = build_lexicon(tokenize(text))
    part = partition_bands(lex)
    total = np.zeros(26, dtype=np.int64)
    for band in part.bands:
        counts = np.bincount(text.codes[_in_band(text, lex, band)], minlength=27)
        assert counts[SPACE] == 0
        expected = (lex.counts * lex.lengths)[band.rank_lo - 1 : band.rank_hi].sum()
        assert counts.sum() == expected
        total += counts[:26]
    # the five bands' letters partition the original letter counts exactly
    assert np.array_equal(total, np.bincount(text.codes, minlength=27)[:26])


@given(surrogates, surrogates, st.integers(min_value=1, max_value=4))
# ranks 1-10 of a 2-word lexicon keep only its two words
@example(normalize("the cat sat on the mat by a big red dog"), normalize("the the cat"), 1)
def test_band_filter_matches_the_per_token_loop(text, other, band_count):
    # the other text's lexicon leaves some of this text's words unranked, and
    # the other text's bands may run past the ranks of this text's lexicon
    assume(len(tokenize(text)) and len(tokenize(other)))
    lexicons = [build_lexicon(tokenize(source)) for source in (text, other)]
    for lex in lexicons:
        for ranked in lexicons:
            for band in partition_bands(ranked, band_count, 1 / band_count).bands:
                kept = _loop_band_filter(text, lex, band).codes != SPACE
                assert np.array_equal(_in_band(text, lex, band), kept)


def test_band_jsd_homogeneous_text_sits_at_fluctuation_level():
    text = _iid_letter_text(1_200_000, 31)
    lex = build_lexicon(tokenize(text))
    part = partition_bands(lex)
    report = band_jsd(text, lex, part, 50_000)
    assert len(report.entries) == 5
    for entry in report.entries:
        assert entry.pair_count == 12
        assert 0.6 <= entry.mean_normalized <= 1.4
    peak = report.peak()
    assert peak in report.entries


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@given(
    st.one_of(surrogates, word_texts),
    st.data(),
    # up to 13 label groups: the chunk's pair bound runs from its floor of
    # one pair to _CHUNK_PAIRS // groups
    st.integers(min_value=1, max_value=12),
    st.sampled_from([1, 2, 3, divergence._CHUNK_PAIRS]),
    st.sampled_from([1, 20, divergence._CHUNK_SPAN]),
    st.sampled_from([1, 7, divergence._PIECE]),
)
def test_band_jsd_matches_the_per_pair_loop(text, data, band_count, pairs, span, piece):
    # a lexicon of the text's first half leaves the words only the rest holds in no band
    ranked = NormalizedText(text.codes[: data.draw(st.sampled_from([len(text), len(text) // 2]))])
    assume(len(text) >= 2 and len(tokenize(ranked)))
    lex = build_lexicon(tokenize(ranked))
    partition = partition_bands(lex, band_count, 1 / band_count)
    length = data.draw(st.integers(1, len(text) // 2), label="length")
    with mock.patch.multiple(divergence, _CHUNK_PAIRS=pairs, _CHUNK_SPAN=span, _PIECE=piece):
        report = band_jsd(text, lex, partition, length)
    expected = _loop_band_jsd(text, lex, partition, length)
    assert len(report.entries) == len(expected)
    for got, want in zip(report.entries, expected):
        assert got.band == want.band
        assert got.pair_count == want.pair_count
        # bitwise, NaN included
        assert _bits(got.mean_normalized) == _bits(want.mean_normalized)
        assert _bits(got.mean_trials) == _bits(want.mean_trials)


def test_band_jsd_past_255_bands_matches_the_per_pair_loop():
    # more word types than a uint8 band label can number; at the default
    # share of 0.2 five bands take every word, and the 295 empty bands
    # have no scored rows
    text = _iid_letter_text(5_000, 8)
    lex = build_lexicon(tokenize(text))
    spread, default = partition_bands(lex, 300, 1 / 300), partition_bands(lex, 300)
    assert len(lex) > 256 and any(b.word_types for b in spread.bands[255:])
    assert sum(not b.word_types for b in default.bands) == 295
    for partition in (spread, default):
        report = band_jsd(text, lex, partition, 200)
        expected = _loop_band_jsd(text, lex, partition, 200)
        assert [(e.band, e.pair_count) for e in report.entries] == [
            (e.band, e.pair_count) for e in expected
        ]
        # bitwise, NaN included
        assert [(_bits(e.mean_normalized), _bits(e.mean_trials)) for e in report.entries] == [
            (_bits(e.mean_normalized), _bits(e.mean_trials)) for e in expected
        ]


def test_band_jsd_memory_is_bounded_by_the_chunk_table():
    # a chunk holds at most _CHUNK_PAIRS // groups pairs, so 301 label
    # groups keep its count table as small as one group's; bounded by
    # pairs alone, a chunk's arrays took 63 bytes a symbol here
    text = synthetic_novel()
    lex = build_lexicon(tokenize(text))
    partition = partition_bands(lex, 300, 1 / 300)
    tracemalloc.start()
    try:
        band_jsd(text, lex, partition, 1_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10.5 * len(text), f"{peak / len(text):.2f} B/symbol"


def test_band_jsd_needs_one_pair():
    text = normalize("too short")
    lex = build_lexicon(tokenize(text))
    with pytest.raises(ValueError, match="shorter than two segments of 100"):
        band_jsd(text, lex, partition_bands(lex), 100)
    for length in (0, -5):
        with pytest.raises(ValueError, match="segment length must be positive"):
            band_jsd(text, lex, partition_bands(lex), length)


def _half_counts(comp, half: int) -> dict[str, int]:
    counts = comp.first if half == 1 else comp.second
    return {w: c for w, c in zip(comp.words, counts.tolist()) if c}


def test_compare_halves_of_doubled_text_is_symmetric():
    half = "call me ishmael "
    comp = compare_halves(normalize(half * 2))
    assert comp.split_at == len(half)
    assert np.array_equal(comp.first, comp.second)
    assert comp.first_tokens == comp.second_tokens == 3
    assert comp.words == ("call", "ishmael", "me")
    assert comp.relative_change.tolist() == [0.0, 0.0, 0.0]
    assert comp.count_ratio("call", "me", 1) == comp.count_ratio("call", "me", 2) == 1.0


def test_compare_halves_snaps_to_nearest_token_boundary():
    # midpoint falls inside 'aaaa'; the nearer boundary is its end
    comp = compare_halves(normalize("aaaa bb"))
    assert comp.split_at == 4
    assert _half_counts(comp, 1) == {"aaaa": 1}
    assert _half_counts(comp, 2) == {"bb": 1}

    # here the nearer boundary is the token start
    comp = compare_halves(normalize("b aaaa"))
    assert comp.split_at == 2
    assert _half_counts(comp, 1) == {"b": 1}
    assert _half_counts(comp, 2) == {"aaaa": 1}


def test_compare_halves_frequencies_and_ordering():
    comp = compare_halves(normalize("a a b . c a a c"))
    assert comp.words == ("a", "c", "b")
    freq_first, freq_second = comp.frequencies
    assert freq_first[2] == pytest.approx(1 / 3)
    assert freq_second[2] == 0.0
    assert comp.relative_change[2] == -1.0
    assert comp.relative_change[1] == math.inf
    with pytest.raises(ValueError, match="does not occur"):
        comp.count_ratio("a", "b", 2)
    with pytest.raises(ValueError, match="no words"):
        compare_halves(normalize("..."))


def test_half_must_be_one_or_two():
    comp = compare_halves(normalize("a a b . c a a c"))
    for half in (0, 3):
        with pytest.raises(ValueError, match="half must be 1 or 2"):
            comp.count_ratio("a", "c", half)


def test_compare_halves_needs_words_in_both_halves():
    for raw in ("call", "  call", "whale  "):
        with pytest.raises(ValueError, match="both halves need words"):
            compare_halves(decode_symbols(raw.encode()))


@given(surrogates)
def test_compare_halves_matches_the_split_point_scan(text):
    first, second, split = _scanned_halves(text)
    if not first or not second:
        with pytest.raises(ValueError, match="no words"):
            compare_halves(text)
        return
    comp = compare_halves(text)
    assert comp.split_at == split
    assert _half_counts(comp, 1) == dict(first) and _half_counts(comp, 2) == dict(second)
    assert comp.first_tokens == first.total() and comp.second_tokens == second.total()


@given(surrogates)
def test_compare_halves_splits_the_lexicon(text):
    first, second, _ = _scanned_halves(text)
    assume(first and second)
    comp = compare_halves(text)
    lex = build_lexicon(tokenize(text))
    assert comp.words == lex.words
    assert np.array_equal(comp.first + comp.second, lex.counts)


def test_moby_dick_zipf_exponent_near_minus_one(moby_text):
    lex = build_lexicon(tokenize(moby_text))
    assert -1.3 <= zipf_fit(lex, 10, 1000) <= -0.8


def test_moby_dick_content_words_rank_high(moby_text):
    lex = build_lexicon(tokenize(moby_text))
    top100 = set(lex.words[:100])
    assert "whale" in top100


def test_content_word_variance_model_examples():
    expected, sd, rel = content_word_variance_model()
    assert expected == pytest.approx(45.0, abs=1e-12)
    assert sd == pytest.approx(math.sqrt(45.0), abs=1e-12)
    assert rel == pytest.approx(1 / math.sqrt(45.0), abs=1e-12)

    zero = content_word_variance_model(letter_prob=0.0)
    assert zero.expected_count == 0.0 and zero.standard_deviation == 0.0
    assert math.isnan(zero.relative_sd)

    hundred = content_word_variance_model(100, 5.0, 0.2)
    assert hundred.expected_count == pytest.approx(100.0)
    assert hundred.relative_sd == pytest.approx(0.1, abs=1e-12)

    with pytest.raises(ValueError, match="positive"):
        content_word_variance_model(word_count=0)
    with pytest.raises(ValueError, match="probability"):
        content_word_variance_model(letter_prob=1.5)
