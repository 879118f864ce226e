"""Span recorder for the traced run, and the wrappers that feed it.

Spans are recorded from outside the package: :func:`install` replaces
each layer's public functions in the module namespaces that call them
(``lettercorr.cli.displacement``, ``lettercorr.lexicon.tokenize``, ...)
with wrappers that open a span per call and update exact work counters.
Spans stay in memory; :func:`summarize` turns them into per-layer self
times once the run is over.

Counters, all exact for a given input:

- ``walk.displacement.window_sums``: sum over calls and window lengths k
  of N - k + 1, the number of windows whose sum is taken.
- ``walk.displacement.bytes_computed``: bytes a window-sum kernel must
  touch, computed from array sizes (not measured): 9 N to read the uint8
  indicator and write an int64 prefix, plus 16 per window to read its two
  prefix values.
- ``textnorm.tokenize.tokens`` and ``textnorm.tokenize.distinct`` (number
  of distinct texts tokenized, by length and CRC-32 of the codes).
- ``lexicon.band_jsd.pairs``, ``divergence.jsd_profile.boundaries``,
  ``nullmodels.window_permute.blocks``.
- ``textnorm.normalize_stream.bytes_in``: raw bytes the stream read.
"""

from __future__ import annotations

import functools
import importlib
import time
import zlib
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module whose namespace is patched, names looked up there at call time)
PATCHES = (
    (
        "lettercorr.cli",
        (
            "average_displacement", "band_jsd", "build_lexicon", "compare_halves",
            "decode_symbols", "displacement", "fit_exponent", "indicator", "jsd_profile",
            "letter_shuffle", "normalize", "normalize_stream", "partition_bands",
            "tokenize", "two_regime_sequence", "window_permute", "window_shuffle",
            "word_shuffle", "zipf_fit",
        ),
    ),
    ("lettercorr.lexicon", ("tokenize",)),
    ("lettercorr.nullmodels", ("normalize", "tokenize")),
)


class Recorder:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.distinct_texts: set[tuple[int, int]] = set()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    The package is single-threaded, so children of one span never overlap
    and their union is their sum.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _count_displacement(rec: Recorder, args, kwargs, curve) -> None:
    n = int(curve.n)
    windows = sum(n - int(k) + 1 for k in curve.k)
    rec.counters["walk.displacement.window_sums"] += windows
    rec.counters["walk.displacement.bytes_computed"] += 9 * n + 16 * windows


def _count_tokenize(rec: Recorder, args, kwargs, tokens) -> None:
    text = args[0] if args else kwargs["text"]
    rec.counters["textnorm.tokenize.tokens"] += len(tokens)
    rec.distinct_texts.add((len(text), zlib.crc32(text.codes)))
    rec.counters["textnorm.tokenize.distinct"] = len(rec.distinct_texts)


def _count_band_jsd(rec: Recorder, args, kwargs, report) -> None:
    rec.counters["lexicon.band_jsd.pairs"] += sum(e.pair_count for e in report.entries)


def _count_jsd_profile(rec: Recorder, args, kwargs, profile) -> None:
    rec.counters["divergence.jsd_profile.boundaries"] += len(profile)


def _count_window_permute(rec: Recorder, args, kwargs, result) -> None:
    window = args[1] if len(args) > 1 else kwargs["window"]
    rec.counters["nullmodels.window_permute.blocks"] += -(-len(result) // window)


COUNTERS = {
    "walk.displacement": _count_displacement,
    "textnorm.tokenize": _count_tokenize,
    "lexicon.band_jsd": _count_band_jsd,
    "divergence.jsd_profile": _count_jsd_profile,
    "nullmodels.window_permute": _count_window_permute,
}


class _CountingReader:
    def __init__(self, rec: Recorder, src) -> None:
        self._rec = rec
        self._src = src

    def read(self, size: int = -1) -> bytes:
        data = self._src.read(size)
        self._rec.counters["textnorm.normalize_stream.bytes_in"] += len(data)
        return data


def _wrap(rec: Recorder, fn, name: str):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "textnorm.normalize_stream":
            args = (_CountingReader(rec, args[0]),) + args[1:]
        with rec.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            count(rec, args, kwargs, result)
        return result

    return traced


def install(rec: Recorder) -> list[str]:
    """Patch every name in PATCHES; return the names that were missing."""
    wrappers: dict[int, object] = {}
    missing = []
    for module_name, names in PATCHES:
        module = importlib.import_module(module_name)
        for attr in names:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            if id(fn) not in wrappers:
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = _wrap(rec, fn, f"{layer}.{fn.__name__}")
            setattr(module, attr, wrappers[id(fn)])
    return missing


def summarize(rec: Recorder) -> dict[str, float]:
    """Per span name: summed self seconds (``<name>.s``) and call count
    (``<name>.calls``); ``cli.*`` spans also report their summed duration
    as ``<name>.total_s``. Counters are merged in unchanged."""
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(rec.spans, self_times(rec.spans)):
        out[name + ".s"] += own
        out[name + ".calls"] += 1
        if name.startswith("cli."):
            out[name + ".total_s"] += end - start
    out.update(rec.counters)
    return dict(out)
