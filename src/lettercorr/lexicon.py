"""Rank-frequency lexicon, letter-share bands, and lexical change analyses.

Word types are ranked by decreasing frequency and partitioned into
contiguous rank bands that each account for a fixed share of all letters
in the text. Filtering the text down to one band and profiling the
divergence of adjacent segments shows which part of the vocabulary drives
changes in letter composition; half-vs-half word counts expose the same
drift at the level of individual words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergence import jsd_profile
from .textnorm import SPACE, NormalizedText, Tokens, tokenize


@dataclass(frozen=True)
class FrequencyLexicon:
    """Word types ordered by decreasing count, ties broken alphabetically.

    Parallel columns in rank order: row i is rank i + 1. ``counts`` and
    ``lengths`` are int64 arrays, ``total_letters`` their dot product.
    """

    words: tuple[str, ...]
    counts: np.ndarray
    lengths: np.ndarray
    total_letters: int

    def __len__(self) -> int:
        return len(self.words)

    @property
    def letter_shares(self) -> np.ndarray:
        """Each word type's share of all letters in the text."""
        return self.counts * self.lengths / self.total_letters


@dataclass(frozen=True)
class Band:
    """Contiguous rank range; empty bands have rank_lo > rank_hi."""

    index: int
    rank_lo: int
    rank_hi: int
    word_types: int
    letter_share: float


@dataclass(frozen=True)
class BandPartition:
    bands: tuple[Band, ...]
    target_share: float
    degenerate: bool


@dataclass(frozen=True)
class BandJsdEntry:
    band: Band
    mean_normalized: float
    pair_count: int
    mean_trials: float


@dataclass(frozen=True)
class BandJsdReport:
    entries: tuple[BandJsdEntry, ...]
    segment_length: int

    def peak(self) -> BandJsdEntry:
        """Entry with the largest mean normalized divergence."""
        scored = [e for e in self.entries if not math.isnan(e.mean_normalized)]
        if not scored:
            raise ValueError("no band produced a countable segment pair")
        return max(scored, key=lambda e: e.mean_normalized)


class VarianceModel(NamedTuple):
    expected_count: float
    standard_deviation: float
    relative_sd: float


def _rank_order(tokens: Tokens) -> tuple[tuple[str, ...], np.ndarray, list[int]]:
    """The word types by decreasing count, ties broken alphabetically: the
    words, their counts, and their indices into ``tokens.vocab``."""
    vocab = tokens.vocab
    counts = np.bincount(tokens.types, minlength=len(vocab))
    per_type = counts.tolist()
    order = sorted(range(len(vocab)), key=lambda t: (-per_type[t], vocab[t]))
    return tuple(vocab[t] for t in order), counts[order], order


def build_lexicon(tokens: Tokens) -> FrequencyLexicon:
    """Rank word types by decreasing count; rank 1 is the most frequent."""
    if not len(tokens):
        raise ValueError("no tokens to rank")
    words, counts, _ = _rank_order(tokens)
    return FrequencyLexicon(
        words=words,
        counts=counts,
        lengths=np.array([len(w) for w in words], dtype=np.int64),
        total_letters=int(tokens.lengths.sum()),
    )


def zipf_fit(lex: FrequencyLexicon, rank_lo: int, rank_hi: int) -> float:
    """Least-squares slope of ln(count) against ln(rank) over a rank range.

    Natural novels come out near -1.
    """
    first = max(rank_lo, 1)
    counts = lex.counts[first - 1 : rank_hi]
    if len(counts) < 10:
        raise ValueError(
            f"need at least 10 ranks in [{rank_lo}, {rank_hi}], have {len(counts)}"
        )
    ranks = np.arange(first, first + len(counts), dtype=np.float64)
    slope, _ = np.polyfit(np.log(ranks), np.log(counts), 1)
    return float(slope)


def partition_bands(
    lex: FrequencyLexicon, band_count: int = 5, target_share: float = 0.2
) -> BandPartition:
    """Split the lexicon into contiguous rank bands of equal letter share.

    In rank order, a band closes at the first word whose cumulative letter
    share reaches the band's cumulative target; the last band absorbs
    whatever remains. A single dominant word can close several targets at
    once, leaving empty bands; the partition is then flagged degenerate.
    """
    if band_count < 1:
        raise ValueError("band_count must be at least 1")
    if not 0.0 < target_share <= 1.0:
        raise ValueError("target_share must lie in (0, 1]")
    if not len(lex):
        raise ValueError("empty lexicon")

    # integer letter counts keep the cumulative sums free of float drift
    cum = np.concatenate(([0], np.cumsum(lex.counts * lex.lengths)))
    targets = np.arange(1, band_count) * target_share * lex.total_letters - 1e-6
    closes = np.searchsorted(cum[1:], targets)
    # targets past the last word close no band: those bands are empty and
    # sit just before the last band, which takes the rest
    closes[closes == len(lex)] = -1
    ends = np.maximum.accumulate(np.concatenate(([0], closes + 1, [len(lex)])))
    shares = np.diff(cum[ends]) / lex.total_letters
    bands = tuple(
        Band(index=i + 1, rank_lo=lo + 1, rank_hi=hi, word_types=hi - lo, letter_share=share)
        for i, (lo, hi, share) in enumerate(
            zip(ends[:-1].tolist(), ends[1:].tolist(), shares.tolist())
        )
    )
    return BandPartition(
        bands=bands,
        target_share=target_share,
        degenerate=any(b.word_types == 0 for b in bands),
    )


def band_filter_text(
    text: NormalizedText,
    lex: FrequencyLexicon,
    band: Band,
    tokens: Tokens | None = None,
) -> NormalizedText:
    """Blank out every word not in the band, keeping offsets intact.

    Out-of-band tokens are overwritten with spaces of equal length, so the
    output has exactly the text's length and in-band words sit at their
    original positions.
    """
    if tokens is None:
        tokens = tokenize(text)
    in_band = set(lex.words[band.rank_lo - 1 : band.rank_hi])
    keep = np.array([w in in_band for w in tokens.vocab], dtype=bool)
    # tokens tile the letters in order, so token masks repeat into letter masks
    out = text.codes.copy()
    blank = out != SPACE
    np.place(blank, blank, np.repeat(~keep[tokens.types], tokens.lengths))
    np.putmask(out, blank, SPACE)
    return NormalizedText(out)


def check_segment_length(n: int, segment_length: int) -> int:
    """Check that one pair of segments of ``segment_length`` fits in a text
    of ``n`` symbols, as ``band_jsd`` needs; return the length as an int."""
    length = int(segment_length)
    if length < 1:
        raise ValueError("segment length must be positive")
    if 2 * length > n:
        raise ValueError(f"text of length {n} is shorter than one segment pair of {2 * length}")
    return length


def band_jsd(
    text: NormalizedText,
    lex: FrequencyLexicon,
    partition: BandPartition,
    segment_length: int = 100_000,
) -> BandJsdReport:
    """Mean normalized divergence of adjacent segment pairs per band.

    Each band's entry is read from the letters-only ``jsd_profile`` of the
    text filtered to that band, at step 2L: segment pairs tile the
    original coordinate space from the start (offsets 0, 2L, 4L, ...), and
    each pair's divergence is normalized by the fluctuation level for its
    own letter counts. Pairs where a segment contains no in-band letters
    are skipped; pairs with a single pooled letter are not averaged.
    """
    length = check_segment_length(len(text), segment_length)
    tokens = tokenize(text)
    entries = []
    for band in partition.bands:
        filtered = band_filter_text(text, lex, band, tokens)
        profile = jsd_profile(filtered, length, 2 * length, include_space=False)
        scored = profile.support > 1
        norm = profile.normalized[scored]
        entries.append(
            BandJsdEntry(
                band=band,
                mean_normalized=float(np.mean(norm)) if norm.size else math.nan,
                pair_count=norm.size,
                mean_trials=float(np.mean(profile.trials[scored])) if norm.size else math.nan,
            )
        )
    return BandJsdReport(entries=tuple(entries), segment_length=length)


@dataclass(frozen=True, eq=False)
class HalfComparison:
    """Word counts for the two halves of a text, split at a token boundary.

    Parallel columns in the whole text's lexicon rank order: ``words``, and
    the int64 counts ``first`` and ``second`` before and after ``split_at``.
    """

    words: tuple[str, ...]
    first: np.ndarray
    second: np.ndarray
    split_at: int

    @property
    def first_tokens(self) -> int:
        return int(self.first.sum())

    @property
    def second_tokens(self) -> int:
        return int(self.second.sum())

    @property
    def frequencies(self) -> tuple[np.ndarray, np.ndarray]:
        """Occurrences per token in the first half and in the second."""
        return self.first / self.first_tokens, self.second / self.second_tokens

    @property
    def relative_change(self) -> np.ndarray:
        """(f2 - f1) / f1 on per-token frequencies; inf where f1 = 0."""
        f1, f2 = self.frequencies
        return np.divide(f2 - f1, f1, out=np.full(f1.shape, math.inf), where=self.first > 0)

    def count_ratio(self, numer: str, denom: str, half: int) -> float:
        """Count ratio of two words within half 1 or 2."""
        if half not in (1, 2):
            raise ValueError("half must be 1 or 2")
        counts = dict(zip(self.words, (self.first if half == 1 else self.second).tolist()))
        bottom = counts.get(denom, 0)
        if bottom == 0:
            raise ValueError(f"word {denom!r} does not occur in half {half}")
        return counts.get(numer, 0) / bottom


def compare_halves(text: NormalizedText) -> HalfComparison:
    """Word counts for the first and second halves of the text.

    The split point is the midpoint symbol snapped to the nearest token
    boundary, so no word is cut in two and the per-half counts partition
    the full token stream. Each half must hold at least one word.
    """
    tokens = tokenize(text)
    # a token goes to the first half unless mid is nearer its start than its end
    mid = len(text) // 2
    ends = tokens.starts + tokens.lengths
    first_tokens = int(np.searchsorted(tokens.starts + ends, 2 * mid, side="right"))
    if first_tokens in (0, len(tokens)):
        raise ValueError("no words in one half of the text; both halves need words")
    split = min(max(mid, int(ends[first_tokens - 1])), int(tokens.starts[first_tokens]))
    words, counts, order = _rank_order(tokens)
    first = np.bincount(tokens.types[:first_tokens], minlength=len(tokens.vocab))[order]
    return HalfComparison(words=words, first=first, second=counts - first, split_at=split)


def content_word_variance_model(
    word_count: float = 100, avg_word_length: float = 4.5, letter_prob: float = 0.1
) -> VarianceModel:
    """Poisson estimate of one letter's count variation in a content-word pool.

    A pool of ``word_count`` words of ``avg_word_length`` letters drawn
    from a language with per-letter probability ``letter_prob`` contains
    ``word_count * avg_word_length * letter_prob`` of that letter on
    average, with standard deviation sqrt of that (variance = mean). The
    relative spread 1/sqrt(expected) is what makes a small pool of
    frequent words dominate letter-distribution drift. ``relative_sd`` is
    nan when the expected count is zero.
    """
    if word_count <= 0 or avg_word_length <= 0:
        raise ValueError("word count and word length must be positive")
    if not 0.0 <= letter_prob <= 1.0:
        raise ValueError("letter probability must lie in [0, 1]")
    expected = word_count * avg_word_length * letter_prob
    sd = math.sqrt(expected)
    relative = sd / expected if expected > 0 else math.nan
    return VarianceModel(expected, sd, relative)
