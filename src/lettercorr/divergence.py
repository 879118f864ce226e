"""Entropy, Jensen-Shannon divergence, and along-text divergence profiles.

The divergence between two observed symbol distributions is compared
against its analytic fluctuation level, the expected divergence between
two finite samples of one underlying law: (n - 1) / (4 N) for n possible
outcomes and N trials per sample. Profiles report the divergence between
adjacent text segments normalized by that level, so values near 1 mean
"statistically indistinguishable" and values well above 1 mean the local
symbol composition really changed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .textnorm import ALPHABET_SIZE, SPACE, NormalizedText


@dataclass(frozen=True, eq=False)
class SymbolDistribution:
    """Observed symbol counts over a fixed alphabet."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-d array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def n_symbols(self) -> int:
        return self.counts.size

    @property
    def total(self) -> int:
        """Number of trials behind the distribution."""
        return int(self.counts.sum())

    @property
    def freqs(self) -> np.ndarray:
        total = self.total
        if total == 0:
            raise ValueError("empty distribution has no frequencies")
        return self.counts / total

    @property
    def support(self) -> int:
        """Symbols with at least one observation."""
        return int(np.count_nonzero(self.counts))


def _entropy_of(freqs: np.ndarray) -> float:
    p = freqs[freqs > 0]
    return float(-(p * np.log(p)).sum())


def entropy(dist: SymbolDistribution) -> float:
    """Shannon entropy in nats; zero-probability outcomes contribute 0."""
    if dist.total == 0:
        raise ValueError("empty distribution")
    return _entropy_of(dist.freqs)


def jsd(p: SymbolDistribution, q: SymbolDistribution) -> float:
    """Jensen-Shannon divergence between two distributions, in nats.

    Computed as the entropy of the equal-weight mixture minus the mean of
    the two entropies. Symmetric, non-negative, zero exactly when the
    frequency vectors coincide, and bounded by ln 2.
    """
    if p.n_symbols != q.n_symbols:
        raise ValueError(f"alphabet mismatch: {p.n_symbols} vs {q.n_symbols} symbols")
    fp = p.freqs
    fq = q.freqs
    d = _entropy_of((fp + fq) / 2.0) - 0.5 * (_entropy_of(fp) + _entropy_of(fq))
    return max(d, 0.0)


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


def segment_distribution(
    text: NormalizedText, start: int, length: int, *, include_space: bool = True
) -> SymbolDistribution:
    """Symbol counts in ``text[start : start + length]``.

    With ``include_space=False`` the space symbol is dropped from both the
    counts and the trial total.
    """
    if length <= 0:
        raise ValueError("segment length must be positive")
    if start < 0 or start + length > len(text):
        raise ValueError(
            f"segment [{start}, {start + length}) outside text of length {len(text)}"
        )
    counts = np.bincount(text.codes[start : start + length], minlength=ALPHABET_SIZE)
    counts = counts.astype(np.int64)
    if not include_space:
        counts = counts[:SPACE]
    return SymbolDistribution(counts)


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
    length = int(segment_length)
    if length < 1:
        raise ValueError("segment length must be positive")
    if 2 * length > n:
        raise ValueError(f"text of length {n} is shorter than two segments of {length}")
    if step is None:
        step = max(length // 10, 1)
    if step < 1:
        raise ValueError("step must be at least 1")

    positions: list[int] = []
    raw: list[float] = []
    fluct: list[float] = []
    normalized: list[float] = []
    support: list[int] = []
    trials: list[float] = []
    for b in range(length, n - length + 1, step):
        left = segment_distribution(text, b - length, length, include_space=include_space)
        right = segment_distribution(text, b, length, include_space=include_space)
        n_left = left.total
        n_right = right.total
        if n_left == 0 or n_right == 0:
            continue
        pooled = int(np.count_nonzero(left.counts + right.counts))
        d = jsd(left, right)
        if pooled < 2:
            level = 0.0
            norm = 0.0
        else:
            level = fluctuation_level(pooled, n_left, n_right)
            norm = d / level
        positions.append(b)
        raw.append(d)
        fluct.append(level)
        normalized.append(norm)
        support.append(pooled)
        trials.append(2.0 / (1.0 / n_left + 1.0 / n_right))
    return JsdProfile(
        positions=np.asarray(positions, dtype=np.int64),
        raw=np.asarray(raw, dtype=np.float64),
        fluct=np.asarray(fluct, dtype=np.float64),
        normalized=np.asarray(normalized, dtype=np.float64),
        support=np.asarray(support, dtype=np.int64),
        trials=np.asarray(trials, dtype=np.float64),
        segment_length=length,
        include_space=include_space,
    )
