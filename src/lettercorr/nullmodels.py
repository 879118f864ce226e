"""Shuffled and synthetic control sequences.

Each generator preserves a chosen statistic of the source text (local
letter distribution, exact global histogram, word multiset) while
destroying other structure, or synthesizes a sequence with a prescribed
distribution drift. All generators are deterministic functions of their
inputs and a mandatory seed; every call builds its own PCG64 generator
from that seed, so adding new analyses never perturbs existing outputs.
"""

from __future__ import annotations

import numpy as np

from .textnorm import SPACE, NormalizedText, decode_symbols, tokenize

# no generator calls normalize; perfbench's traced run patches the name
# in this module, so it stays importable from here
from .textnorm import normalize  # noqa: F401


# positions drawn per call by the generators that work in blocks
_BLOCK = 1 << 14


def _rng(seed: int | None) -> np.random.Generator:
    if seed is None:
        raise ValueError("a seed is required for reproducible output")
    return np.random.default_rng(seed)


def window_shuffle(text: NormalizedText, window: int, seed: int) -> NormalizedText:
    """Resample every position from a centered window of the source.

    Output position i is drawn uniformly, with replacement, from the
    source symbols with index j in [max(0, i - window//2 + 1),
    min(N, i + ceil(window/2))). That range holds ``window - 1`` symbols,
    so ``window=2`` returns the text unchanged; the blocks of
    :func:`window_permute` hold ``window``. Windows are clamped at the text
    boundaries, never wrapped, so a window of 2N or more degenerates to
    iid draws from the whole text (and is drawn as a window of 2N). Local
    letter frequencies survive in expectation; everything else is
    destroyed. Positions are drawn and their symbols gathered in blocks,
    so besides the output the draw holds one block of picked indices.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text")
    if window < 2:
        raise ValueError("window must be at least 2")
    # every window of 2N or more gives lo = 0 and hi = N at every position;
    # the clamp keeps the bounds below in int64
    window = min(window, 2 * n)
    back, ahead = window // 2 - 1, (window + 1) // 2
    rng = _rng(seed)
    out = np.empty(n, dtype=np.uint8)
    # numpy draws element by element alike for scalar and array bounds,
    # so blocks of positions give the same picks as one call over all;
    # only blocks that reach a text boundary need per-position bounds
    for a in range(0, n, _BLOCK):
        b = min(a + _BLOCK, n)
        lo = np.arange(a - back, b - back)
        if a < back or b - 1 + ahead > n:
            hi = lo + (window - 1)
            np.maximum(lo, 0, out=lo)
            np.minimum(hi, n, out=hi)
            picks = rng.integers(lo, hi)
        else:
            picks = rng.integers(0, window - 1, size=b - a)
            picks += lo
        out[a:b] = text.codes[picks]
    return NormalizedText(out)


def window_permute(text: NormalizedText, window: int, seed: int) -> NormalizedText:
    """Permute symbols inside disjoint blocks of ``window`` symbols.

    The last block may be shorter. Unlike :func:`window_shuffle` this
    preserves the global letter histogram exactly, which makes it the
    control of choice for exact-invariant assertions. ``window=1`` is the
    identity. The full blocks are shuffled by one ``Generator.permuted``
    call over their rows, which draws exactly as one ``Generator.shuffle``
    per block in turn would, so the short tail is shuffled last.
    """
    n = len(text)
    if n == 0:
        raise ValueError("empty text")
    if window < 1:
        raise ValueError("window must be at least 1")
    if window > n:
        raise ValueError(f"window {window} exceeds text length {n}")
    rng = _rng(seed)
    out = text.codes.copy()
    full = n - n % window
    blocks = out[:full].reshape(-1, window)
    rng.permuted(blocks, axis=1, out=blocks)
    rng.shuffle(out[full:])
    return NormalizedText(out)


def letter_shuffle(text: NormalizedText, seed: int) -> NormalizedText:
    """Uniform random permutation of all symbols: the block permutation
    whose one block is the whole text."""
    return window_permute(text, len(text), seed)


def word_shuffle(text: NormalizedText, seed: int) -> NormalizedText:
    """Uniform random permutation of words, rejoined with single spaces.

    Of the token table only the type ids are kept, shuffled in place and
    spelled out one block of tokens at a time, so no list holds every word.
    """
    if len(text) == 0:
        raise ValueError("empty text")
    rng = _rng(seed)
    tokens = tokenize(text)
    types, vocab = tokens.types, tokens.vocab
    out = np.full(int(tokens.lengths.sum()) + max(len(tokens) - 1, 0), SPACE, dtype=np.uint8)
    del tokens
    rng.shuffle(types)
    at = 0
    for a in range(0, types.size, _BLOCK):
        # the words are canonical already, so their bytes decode as they are
        words = " ".join(map(vocab.__getitem__, memoryview(types[a : a + _BLOCK])))
        out[at : at + len(words)] = decode_symbols(words.encode()).codes
        at += len(words) + 1
    return NormalizedText(out)


def two_regime_sequence(
    length: int = 1_200_000,
    base_p: float = 0.062,
    burst_p: float = 0.1054,
    burst_len: int = 6250,
    burst_start: int | None = None,
    *,
    seed: int,
) -> NormalizedText:
    """Bernoulli sequence over {'a', space} with one elevated-rate burst.

    Every position is an independent draw producing 'a' with probability
    ``base_p``, except inside the burst range where ``burst_p`` applies.
    The burst is centered in the sequence unless ``burst_start`` is given.
    The defaults give a sequence whose displacement curve shows the same
    three-region shape as a natural novel despite carrying no structure
    at all. The uniform draws are made and compared in blocks, so only
    the output grows with ``length``.
    """
    if length < 1:
        raise ValueError("length must be positive")
    for name, p in (("base_p", base_p), ("burst_p", burst_p)):
        if not 0.0 < p < 1.0:
            raise ValueError(f"{name} must lie strictly between 0 and 1")
    if burst_len < 0:
        raise ValueError("burst_len must be non-negative")
    if burst_start is None:
        burst_start = max((length - burst_len) // 2, 0)
    if burst_start < 0 or burst_start + burst_len > length:
        raise ValueError(
            f"burst [{burst_start}, {burst_start + burst_len}) does not fit in length {length}"
        )
    rng = _rng(seed)
    burst_end = burst_start + burst_len
    codes = np.empty(length, dtype=np.uint8)
    for a in range(0, length, _BLOCK):
        b = min(a + _BLOCK, length)
        draws = rng.random(b - a)
        hit = draws < base_p
        lo, hi = max(burst_start, a) - a, min(burst_end, b) - a
        if lo < hi:
            hit[lo:hi] = draws[lo:hi] < burst_p
        codes[a:b] = np.where(hit, 0, SPACE)
    return NormalizedText(codes)
