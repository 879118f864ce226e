"""Entropy, Jensen-Shannon divergence, and along-text divergence profiles.

The divergence between two observed symbol distributions is compared
against its analytic fluctuation level, the expected divergence between
two finite samples of one underlying law: (n - 1) / (4 N) for n possible
outcomes and N trials per sample. Profiles report the divergence between
adjacent text segments normalized by that level, so values near 1 mean
"statistically indistinguishable" and values well above 1 mean the local
symbol composition really changed.

Distributions are integer count arrays. ``entropy`` and ``jsd`` take one
distribution as a 1-d array and return a float, or one per row of a 2-d
array and return an array; one row kernel serves them and the profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .textnorm import ALPHABET_SIZE, SPACE, NormalizedText


def _row_entropy(freqs: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row of a frequency matrix.

    Rows are grouped by support m and summed as compressed (rows x m)
    matrices, so each row adds its nonzero terms exactly as a 1-d sum of
    them does; zero padding would change numpy's pairwise summation order.
    """
    nonzero = freqs > 0
    support = np.count_nonzero(nonzero, axis=1)
    out = np.empty(len(freqs))
    for m in np.unique(support):
        rows = support == m
        p = freqs[rows][nonzero[rows]].reshape(-1, m)
        out[rows] = -(p * np.log(p)).sum(axis=1)
    return out


def _counts(counts: np.ndarray) -> np.ndarray:
    """``counts`` as an array, checked to hold one distribution, or one per
    row, of non-negative integer counts with a positive total."""
    counts = np.asarray(counts)
    if counts.ndim not in (1, 2) or counts.size == 0:
        raise ValueError("counts must be a non-empty 1-d or 2-d array")
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"counts must be integers, not {counts.dtype}")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    if not counts.sum(axis=-1).all():
        raise ValueError("empty distribution has no frequencies")
    return counts


def entropy(counts: np.ndarray) -> float | np.ndarray:
    """Shannon entropy in nats of a count vector, or of each row of a count
    matrix; zero counts contribute 0."""
    counts = _counts(counts)
    rows = np.atleast_2d(counts)
    h = _row_entropy(rows / rows.sum(axis=1, keepdims=True))
    return float(h[0]) if counts.ndim == 1 else h


def jsd(p: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Jensen-Shannon divergence in nats between two count vectors, or
    between each pair of rows of two count matrices of one shape.

    Computed as the entropy of the equal-weight mixture minus the mean of
    the two entropies. Symmetric, non-negative, zero exactly when the
    frequency vectors coincide, and bounded by ln 2.
    """
    p, q = _counts(p), _counts(q)
    if p.shape != q.shape:
        raise ValueError(f"alphabet mismatch: counts of shape {p.shape} vs {q.shape}")
    d = _pair_stats(np.atleast_2d(p), np.atleast_2d(q))[0]
    return float(d[0]) if p.ndim == 1 else d


def fluctuation_level(n_symbols: int, trials: int, trials2: int | None = None) -> float:
    """Expected divergence between two same-law samples.

    Equal sample sizes give (n - 1) / (4 N). With unequal sizes the level
    is (n - 1) / 8 * (1/N1 + 1/N2), which reduces to the former when
    N1 = N2. Valid only for symbols that actually occur; pass the pooled
    support as ``n_symbols``, not the nominal alphabet size.
    """
    if n_symbols < 2:
        raise ValueError("fluctuation level needs at least 2 observed symbols")
    if trials <= 0 or (trials2 is not None and trials2 <= 0):
        raise ValueError("trial counts must be positive")
    if trials2 is None:
        return (n_symbols - 1) / (4.0 * trials)
    return (n_symbols - 1) / 8.0 * (1.0 / trials + 1.0 / trials2)


def _pair_stats(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row of two count matrices with positive totals: the divergence,
    the unequal-N fluctuation level for the pooled support (0 for a single
    pooled symbol), the pooled support and the harmonic-mean trial count.
    """
    n_left, n_right = left.sum(axis=1), right.sum(axis=1)
    fp, fq = left / n_left[:, None], right / n_right[:, None]
    raw = _row_entropy((fp + fq) / 2.0) - 0.5 * (_row_entropy(fp) + _row_entropy(fq))
    support = np.count_nonzero(left + right, axis=1)
    inverse = 1.0 / n_left + 1.0 / n_right
    return np.maximum(raw, 0.0), (support - 1) / 8.0 * inverse, support, 2.0 / inverse


# pairs per chunk, and symbols their starts may span: bounds a chunk's arrays
_CHUNK_PAIRS, _CHUNK_SPAN = 1024, 1 << 18
# symbols per piece of a chunk's span counted at once: bounds the bincount
# index at 256 KiB, whatever the segment length
_PIECE = 1 << 15


def check_segment_length(n: int, segment_length: int) -> int:
    """Check that a pair of segments of ``segment_length`` fits in a text of
    ``n`` symbols; return the length as an int."""
    length = int(segment_length)
    if length < 1:
        raise ValueError("segment length must be positive")
    if 2 * length > n:
        raise ValueError(f"text of length {n} is shorter than two segments of {length}")
    return length


def _segment_pairs(
    text: NormalizedText, length: int, step: int, n_symbols: int, labels=None, groups: int = 1
):
    """Yield each chunk's pair offsets (every ``step`` symbols from 0) and
    the counts of the first ``n_symbols`` symbols in the pairs' left and
    right segments, in int64 rows per (pair, group), pair-major. ``labels``
    puts each symbol in a group below ``groups``; None puts all in one.

    A chunk's span is cut at every segment edge; the cumulative sum of the
    block counts between edges, one bincount per piece of ``_PIECE``
    symbols, gives each segment's counts as a difference of two rows. A
    chunk holds at most ``_CHUNK_PAIRS // groups`` pairs, whatever groups.
    """
    starts = range(0, len(text) - 2 * length + 1, step)
    size = max(1, min(_CHUNK_PAIRS // groups, _CHUNK_SPAN // step))
    for i in range(0, len(starts), size):
        chunk = starts[i : i + size]
        lefts = np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.int64)
        bounds = lefts + np.arange(3)[:, None] * length
        edges = np.unique(bounds)
        # block j counts into row j + 1, so cum[k] counts the span before edges[k]
        hist = np.zeros((edges.size, groups, ALPHABET_SIZE), dtype=np.int64)
        for a in range(edges[0], edges[-1], _PIECE):
            b = min(a + _PIECE, edges[-1])
            # the piece meets the blocks of rows lo..hi, cut at edges[lo:hi]
            lo, hi = np.searchsorted(edges, (a, b - 1), side="right")
            sizes = np.diff(edges[lo:hi], prepend=a, append=b)
            index = np.repeat(np.arange(sizes.size) * groups, sizes)
            if labels is not None:
                index += labels[a:b]
            index *= ALPHABET_SIZE
            index += text.codes[a:b]
            counts = np.bincount(index, minlength=hist[lo : hi + 1].size)
            hist[lo : hi + 1] += counts.reshape(-1, groups, ALPHABET_SIZE)
        cum = np.cumsum(hist[..., :n_symbols], axis=0)
        # free this chunk's table before the caller's next step allocates
        del index, hist
        start, mid, end = np.searchsorted(edges, bounds)
        left, right = cum[mid] - cum[start], cum[end] - cum[mid]
        yield lefts, left.reshape(-1, n_symbols), right.reshape(-1, n_symbols)


@dataclass(frozen=True, eq=False)
class JsdProfile:
    """Divergence between adjacent segments at each boundary position.

    Parallel arrays: ``positions`` holds the boundary offsets, ``raw`` the
    divergence in nats, ``fluct`` the analytic fluctuation level for the
    pooled support and segment trial counts, ``normalized`` their ratio,
    ``support`` the pooled number of observed symbols, and ``trials`` the
    effective per-segment trial count (harmonic mean for unequal counts).
    """

    positions: np.ndarray
    raw: np.ndarray
    fluct: np.ndarray
    normalized: np.ndarray
    support: np.ndarray
    trials: np.ndarray
    segment_length: int
    step: int
    include_space: bool

    def __len__(self) -> int:
        return self.positions.size


def jsd_profile(
    text: NormalizedText,
    segment_length: int,
    step: int | None = None,
    *,
    include_space: bool = True,
) -> JsdProfile:
    """Divergence between the segments left and right of each boundary.

    Boundaries run from ``segment_length`` to ``N - segment_length`` in
    increments of ``step`` (default: a tenth of the segment length, for a
    smooth curve). Degenerate boundaries, where the pooled support is a
    single symbol, report zero divergence and zero level; in letters-only
    mode, boundaries with an all-space segment are skipped.
    """
    n = len(text)
    length = check_segment_length(n, segment_length)
    if step is None:
        step = max(length // 10, 1)
    if step < 1:
        raise ValueError("step must be at least 1")

    n_symbols = ALPHABET_SIZE if include_space else SPACE
    chunks = []
    for lefts, left, right in _segment_pairs(text, length, step, n_symbols):
        counted = left.any(axis=1) & right.any(axis=1)
        chunks.append((lefts[counted], *_pair_stats(left[counted], right[counted])))
    lefts, raw, fluct, support, trials = (np.concatenate(c) for c in zip(*chunks))
    return JsdProfile(
        positions=lefts + length,
        raw=raw,
        fluct=fluct,
        normalized=np.divide(raw, fluct, out=np.zeros_like(raw), where=support > 1),
        support=support,
        trials=trials,
        segment_length=length,
        step=step,
        include_space=include_space,
    )
