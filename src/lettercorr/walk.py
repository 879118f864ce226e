"""Random-walk displacement analysis of letter indicator sequences.

A text is reduced to a binary sequence marking one letter's occurrences.
The displacement function F(k) is the variance, over all starting
positions, of the sums of length-k windows of that sequence. Linear
growth of F(k) in k signals an uncorrelated sequence; persistent
correlations show up as a steeper power law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .textnorm import NormalizedText, symbol_code

# uint64 arithmetic is exact modulo 2**64; a value known to lie in
# [0, 2**64) is recovered from its residue by masking
_WRAP_MASK = (1 << 64) - 1
# every integer up to 2**53 is a float64, so a float64 sum of
# non-negative integers is exact while the total stays below it
_FLOAT_EXACT = (1 << 53) - 1
# below this many rows per chunk the uint64 dot replaces the float64 one,
# which per-chunk overhead once made slower at 9k rows. Since the
# occurrence sums it is not: on a 2-vCPU host, a Bernoulli sequence of
# N = 4e6, p = 0.25 (about 9,004 rows per chunk) took 0.34-0.42 s with the
# float64 dot forced, against 0.46-0.77 s with uint64. The value is kept,
# as no measured text has a symbol frequent enough to fall below it
_FLOAT_MIN_ROWS = 12_000
# chunks whose moments displacement reads per gather: enough to take every
# k of a text of a few million symbols at once, and few enough that the
# per-chunk bookkeeping (some 400 bytes each) stays small at any N
_BATCH_CHUNKS = 1 << 12
# rows per block of the prefix that the exact kernel holds, whatever the
# largest window: 2**17 rows (1 MiB of float64) keep the per-block Python
# work (a pass over the spans, a gather, a dot per span) small beside the
# dots, where 2**16 rows made walks of a 1.2M-symbol text 13-36% slower
_BLOCK_ROWS = 1 << 17


@dataclass(frozen=True, eq=False)
class IndicatorSeries:
    """Binary occurrence sequence for one symbol of a text."""

    bits: np.ndarray
    source_letter: int

    def __post_init__(self) -> None:
        bits = np.asarray(self.bits)
        if bits.ndim != 1 or bits.size == 0:
            raise ValueError("indicator series must be a non-empty 1-d sequence")
        if bits.dtype.kind not in "biu":
            raise ValueError(f"indicator series must hold integers, not {bits.dtype}")
        # checked before the cast, which would wrap 256 to 0 and -1 to 255
        if int(bits.max()) > 1 or (bits.dtype.kind == "i" and int(bits.min()) < 0):
            raise ValueError("indicator series may only contain 0 and 1")
        object.__setattr__(self, "bits", np.ascontiguousarray(bits, dtype=np.uint8))

    def __len__(self) -> int:
        return self.bits.size

    @property
    def mean(self) -> float:
        return float(self.bits.mean())


@dataclass(frozen=True, eq=False)
class DisplacementCurve:
    """Sampled (k, F(k)) pairs for a source sequence of length n."""

    k: np.ndarray
    f: np.ndarray
    n: int

    def __post_init__(self) -> None:
        k = np.asarray(self.k)
        f = np.ascontiguousarray(self.f, dtype=np.float64)
        if k.shape != f.shape or k.ndim != 1:
            raise ValueError("k and F must be 1-d arrays of equal length")
        k = _check_grid(k, self.n)
        if np.any(f < 0):
            raise ValueError("displacement values must be non-negative")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "f", f)

    def __len__(self) -> int:
        return self.k.size


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power-law fit of a displacement curve in log space."""

    alpha: float
    log_intercept: float
    k_min: int
    k_max: int
    rms_residual: float
    excluded_zero: int


def _check_grid(k: np.ndarray, n: int) -> np.ndarray:
    """``k`` as int64 window lengths, which must be integers, at least 1,
    strictly increasing and at most N/4."""
    if k.size and k.dtype.kind not in "biu":
        raise ValueError(f"window lengths must be integers, not {k.dtype}")
    k = np.ascontiguousarray(k, dtype=np.int64)
    if k.size and k[0] < 1:
        raise ValueError(f"window k={int(k[0])} must be at least 1")
    if np.any(np.diff(k) <= 0):
        raise ValueError("window grid must be strictly increasing")
    if k.size and k[-1] > n // 4:
        bad = int(k[np.argmax(k > n // 4)])
        raise ValueError(f"window k={bad} exceeds N/4={n // 4} for a sequence of length {n}")
    return k


def indicator(text: NormalizedText, letter: int | str) -> IndicatorSeries:
    """Binary series with a one wherever ``letter`` occurs in ``text``."""
    code = symbol_code(letter)
    if len(text) == 0:
        raise ValueError("empty text")
    bits = (text.codes == code).view(np.uint8)
    return IndicatorSeries(bits=bits, source_letter=code)


def displacement(series: IndicatorSeries, k_grid: Iterable[int]) -> DisplacementCurve:
    """Variance of length-k window sums over all starting positions.

    The m = N-k+1 window sums of each k have the exact moments S1 and S2
    of :func:`_window_moments`, and F = (m S2 - S1**2) / m**2 is then one
    correctly rounded division. Window lengths are capped at N/4 to keep
    enough windows for a stable variance.
    """
    n = series.bits.size
    ks = np.asarray(list(k_grid) if not isinstance(k_grid, np.ndarray) else k_grid)
    if ks.size == 0:
        raise ValueError("window grid is empty")
    ks = _check_grid(ks, n)
    moments = _window_moments(series.bits, [(0, n - k + 1, k) for k in ks.tolist()])
    f = [(m * s2 - s1 * s1) / (m * m) for m, (s1, s2) in zip((n + 1 - ks).tolist(), moments)]
    return DisplacementCurve(k=ks, f=np.array(f), n=n)


def _window_moments(
    bits: np.ndarray, spans: Sequence[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """Exact moments (S1, S2), in Python ints, of the window sums of each
    span (a, b, k): the windows of length k that start at rows a..b-1,
    for 0 <= a < b <= N-k+1.

    With P the prefix sums of the bits, the window sums are
    d_i = P[i+k] - P[i]. S1 = sum d_i comes from the running sums
    Q1(x) = sum_{i<x} P[i], and S2 = sum d_i**2 from Q2(x) = sum_{i<x} P[i]**2
    minus twice the cross term sum P[i] P[i+k], one dot product per chunk.
    Q1 and Q2 are read from the positions of the ones: the s-th one (from
    0) enters P at index at[s], one past its position, and adds 2s + 1 to
    P**2 there, so with c = P[min(x, N)], Q1(x) = x c - R1[c] and
    Q2(x) = x c**2 - R2[c], where R1[t] and R2[t] sum at[s] and
    (2s + 1) at[s] over s < t. R1 and R2 are int64 cumsums that wrap,
    exact modulo 2**64; since 0 <= S2 <= rows * k**2, the rows of a span
    are cut into chunks of at most (2**64 - 1) // k**2 rows (one chunk
    unless rows * k**2 reaches 2**64, near N = 7.4e6 at k = N/4), whose
    moments are recovered from their residues and added in Python ints.

    The cross term is a float64 dot (BLAS) when that is exact. Every P
    is at most n1, the count of ones, so every product is at most n1**2,
    and in any summation order (blocked, threaded or fused) every
    partial sum of a chunk of rows is a sum of non-negative integer
    products, at most rows * n1**2. Chunks are therefore also capped at
    (2**53 - 1) // n1**2 rows, which keeps every partial sum an exactly
    representable integer, so the dot is exact. When that cap falls below
    ``_FLOAT_MIN_ROWS`` (n1 above about 866,000 ones) the prefix stays
    uint64 and the dot is the exact modular one; that switch is a speed
    choice, tuned on synthetic sequences only, since either dot is exact.

    P is held one block of rows at a time. With kmax the largest k and
    block = ``_BLOCK_ROWS``, the windows that start at rows s..s+block-1
    read P[s..s+block+kmax] only, so one buffer of block + kmax + 1 words
    serves every span: it is refilled block by block, keeping the kmax + 1
    values the next block shares and summing only the new ones (when
    kmax > block the kept values overlap their old place; numpy copies
    them forward without a temporary), and each span's rows in a block
    are cut into chunks under both caps. Memory is that buffer plus three
    words per one: the positions, R1 and R2. The positions are freed
    before the buffer is made, so the peak is
    max(3 n1, 2 n1 + block + kmax) words: a quarter of a word per symbol
    and a fixed 1 MiB for the prefix at kmax = N/4, and O(kmax) at any N
    for a short grid. A block's chunks are read in batches of about
    ``_BATCH_CHUNKS`` chunks (or one span's, if it has more), with one
    gather of Q1 and Q2 per batch; the bookkeeping takes about 400 bytes
    a chunk.
    """
    n = bits.size
    # r1[t] and r2[t] sum at[s] and (2s + 1) * at[s] over s < t, in int64
    # arithmetic that wraps, so exact modulo 2**64. The bits are 0 or 1, so
    # their bool view has the same nonzeros, which numpy finds 3x faster
    at = np.flatnonzero(bits.view(bool))
    at += 1
    ones = at.size
    r1 = np.zeros(ones + 1, dtype=np.int64)
    np.cumsum(at, out=r1[1:])
    r2 = np.arange(-1, 2 * ones, 2, dtype=np.int64)
    r2[0] = 0
    r2[1:] *= at
    np.cumsum(r2, out=r2)
    del at

    # a float64 dot is exact over at most dot_rows rows; the uint64 dot
    # is exact modulo 2**64 over any number
    dot_rows = _FLOAT_EXACT // max(ones * ones, 1)
    dtype = np.float64
    if dot_rows < _FLOAT_MIN_ROWS:
        dtype, dot_rows = np.uint64, n
    kmax = max(k for _, _, k in spans)
    block = _BLOCK_ROWS
    # prefix[:have] holds P[s : s + have] for the block at row s
    prefix = np.zeros(min(block + kmax, n) + 1, dtype=dtype)
    have = 1

    total1, total2 = [0] * len(spans), [0] * len(spans)
    chunks, ends = [], []
    for s in range(0, max(b for _, b, _ in spans), block):
        if s:
            have -= block
            prefix[:have] = prefix[block : block + have]
        top = min(block + kmax + 1, n + 1 - s)
        prefix[have:top] = bits[s + have - 1 : s + top - 1]
        np.cumsum(prefix[have - 1 : top], out=prefix[have - 1 : top])
        have = top
        # each span's rows in this block, as offsets from s
        for j, (a, b, k) in enumerate(spans):
            lo, hi = max(a - s, 0), min(b - s, block)
            rows = min(_WRAP_MASK // (k * k), dot_rows)
            chunks += [(r, min(r + rows, hi), k) for r in range(lo, hi, rows)]
            ends.append(len(chunks))
            if len(chunks) < _BATCH_CHUNKS and j < len(spans) - 1:
                continue
            # Q1 and Q2 at a, b, a + k and b + k of every chunk in one gather
            starts, stops, lags = np.array(chunks, dtype=np.int64).reshape(-1, 3).T
            x = np.concatenate((starts, stops, starts + lags, stops + lags))
            c = prefix[np.minimum(x, n - s)].astype(np.int64)
            x += s
            xc = x * c
            q1 = (xc - r1[c]).reshape(4, -1)
            q2 = (xc * c - r2[c]).reshape(4, -1)
            # per chunk, S1 and the sum of squares lie in [0, 2**64), so
            # their residues read as uint64 are the values themselves
            s1 = (q1[3] - q1[2] - q1[1] + q1[0]).view(np.uint64).tolist()
            squares = (q2[3] - q2[2] + q2[1] - q2[0]).view(np.uint64).tolist()
            s2 = [
                (square - 2 * int(np.dot(prefix[lo + k : hi + k], prefix[lo:hi]))) & _WRAP_MASK
                for (lo, hi, k), square in zip(chunks, squares)
            ]
            for i, e, span in zip([0, *ends], ends, range(j + 1 - len(ends), j + 1)):
                total1[span] += sum(s1[i:e])
                total2[span] += sum(s2[i:e])
            chunks, ends = [], []
    return list(zip(total1, total2))


def fit_exponent(curve: DisplacementCurve, k_min: int, k_max: int) -> ScalingFit:
    """Fit F(k) ~ k**alpha by least squares on (ln k, ln F) within a range.

    Grid points with F = 0 cannot enter the log fit; they are dropped and
    counted in ``excluded_zero``. At least 3 usable points are required.
    """
    if k_min >= k_max:
        raise ValueError(f"empty fit range [{k_min}, {k_max}]")
    in_range = (curve.k >= k_min) & (curve.k <= k_max)
    usable = in_range & (curve.f > 0)
    excluded = int(np.count_nonzero(in_range & (curve.f <= 0)))
    have = int(np.count_nonzero(usable))
    if have < 3:
        raise ValueError(f"need at least 3 points with F > 0 in [{k_min}, {k_max}], have {have}")
    lk = np.log(curve.k[usable])
    lf = np.log(curve.f[usable])
    slope, intercept = np.polyfit(lk, lf, 1)
    resid = lf - (slope * lk + intercept)
    return ScalingFit(
        alpha=float(slope),
        log_intercept=float(intercept),
        k_min=int(k_min),
        k_max=int(k_max),
        rms_residual=float(np.sqrt(np.mean(resid * resid))),
        excluded_zero=excluded,
    )


def default_k_grid(n: int, points_per_decade: int = 20) -> np.ndarray:
    """Log-spaced unique integer window lengths from 1 to n // 4."""
    if n < 40:
        raise ValueError(f"sequence of length {n} is too short for a window grid (need >= 40)")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be at least 1")
    k_max = n // 4
    count = max(int(round(np.log10(k_max) * points_per_decade)) + 1, 2)
    # past this count the points lie less than 1 apart: every length is on the grid
    if count > k_max * (np.ceil(np.log(k_max)) + 1) + 2:
        return np.arange(1, k_max + 1)
    return np.unique(np.geomspace(1.0, float(k_max), count).astype(np.int64))


def average_displacement(curves: Sequence[DisplacementCurve]) -> DisplacementCurve:
    """Equal-weight mean of per-letter displacement curves of one text."""
    if not curves:
        raise ValueError("no curves to average")
    k0, n0 = curves[0].k, curves[0].n
    for c in curves[1:]:
        if not np.array_equal(c.k, k0):
            raise ValueError("curves must share the same window grid")
        if c.n != n0:
            raise ValueError(f"curves must come from sequences of one length, not {n0} and {c.n}")
    f = np.mean(np.stack([c.f for c in curves]), axis=0)
    return DisplacementCurve(k=k0.copy(), f=f, n=n0)
