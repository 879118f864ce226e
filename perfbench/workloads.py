"""The two workloads: seeded inputs, command sequences and output oracles.

``letters`` runs the walk sequence and then the profile and null-model
sequence on one corpus: symbol-level numpy work. ``words`` runs the
lexicon sequence and then streams a large file through ``normalize``:
token-level Python work. Each pair of sequences shares one workload so
that a run can measure for about a minute: the shared host drifts in
speed over minutes, and four workloads of half a minute each spread
past their bounds.

Each operation is one ``lettercorr`` subcommand. Its oracle checks the
output file against values computed here from the generated corpus,
never by calling the package under test:

- ``normalize``: SHA-256 of the body equals that of the words joined by
  single spaces, known by construction of the raw text.
- ``walk``: F(k) at sampled k equals the exact variance of the window
  sums (integer moments, one rounding) to 1e-9 relative.
- ``jsd-profile``: boundary positions are exactly the expected ones, and
  sampled rows match a direct bincount JSD to 1e-12 (fluctuation level
  and normalized value to 1e-9 relative, the printed precision).
- ``shuffle``: letter and window-permute keep the histogram exactly (per
  block for window-permute), word keeps the word multiset, window-sample
  draws each sampled position from its window.
- ``zipf``, ``halves``: counts sum to the token total; ``bands``,
  ``band-jsd``: word types sum to the number of distinct words.

Byte identity of every output across the runs of one benchmark run is
checked by the caller.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from corpus import Corpus, synthetic_corpus, write_stream

WALK_LETTERS = ("e", "t", "a", "o")
STREAM_COPIES = 20
SYNTH_LENGTH = 1_200_000  # the CLI's default --length

_CODE = np.full(256, 255, dtype=np.uint8)
_CODE[ord("a") : ord("z") + 1] = np.arange(26, dtype=np.uint8)
_CODE[ord(" ")] = 26


class OracleError(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _split_header(path: Path) -> tuple[dict[str, str], bytes]:
    data = path.read_bytes()
    header: dict[str, str] = {}
    while data.startswith(b"#"):
        nl = data.find(b"\n")
        line = data[2:nl].decode()
        if ": " in line:
            key, val = line.split(": ", 1)
            header[key] = val
        data = data[nl + 1 :]
    return header, data


def _codes(body: bytes) -> np.ndarray:
    codes = _CODE[np.frombuffer(body, dtype=np.uint8)]
    _expect(not np.any(codes == 255), "sequence holds bytes outside 'a'..'z' and space")
    return codes


def _source(source: bytes | Path) -> np.ndarray:
    return _codes(source if isinstance(source, bytes) else _split_header(source)[1])


def _table(body: bytes) -> tuple[list[str], list[list[str]]]:
    lines = body.decode().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _sample(count: int, picks: int) -> list[int]:
    return sorted({round(i * (count - 1) / (picks - 1)) for i in range(picks)})


def check_sha(expected: str) -> Callable[[Path], None]:
    def check(path: Path) -> None:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            line = fh.readline()
            while line.startswith(b"#"):
                line = fh.readline()
            digest.update(line)
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        _expect(digest.hexdigest() == expected, "normalized output differs from the expected text")

    return check


def exact_displacement(prefix: np.ndarray, k: int) -> float:
    """Variance of all length-k window sums from integer moments."""
    sums = prefix[k:] - prefix[:-k]
    m = sums.size
    _expect(m * k * k < 2**63, f"window sums for k={k} could overflow int64")
    s1 = int(sums.sum())
    s2 = int(np.dot(sums, sums))
    return (m * s2 - s1 * s1) / (m * m)


def check_walk(source: bytes | Path, letters: tuple[str, ...], average: bool):
    def check(path: Path) -> None:
        codes = _source(source)
        header, _ = _split_header(path)
        _expect(int(header["n"]) == codes.size, "walk header n differs from the input length")
        blocks = path.read_text().split("\n\n")
        names = list(letters) + (["average"] if average else [])
        _expect(len(blocks) == len(names), f"expected {len(names)} curves, found {len(blocks)}")
        curves: dict[str, list[float]] = {}
        grid: list[int] | None = None
        for name, block in zip(names, blocks):
            lines = [ln for ln in block.splitlines() if not ln.startswith("#")]
            _expect(f"# letter: {name}" in block and lines[0] == "k\tF", f"bad block for {name}")
            rows = [ln.split("\t") for ln in lines[1:]]
            ks = [int(r[0]) for r in rows]
            _expect(grid is None or ks == grid, "curves use different k grids")
            _expect(ks[-1] == codes.size // 4, "grid does not end at N/4")
            grid = ks
            curves[name] = [float(r[1]) for r in rows]
        for j in _sample(len(grid), 5):
            k = grid[j]
            exact = {}
            for name in letters:
                prefix = np.concatenate(([0], np.cumsum(codes == ord(name) - ord("a"), dtype=np.int64)))
                exact[name] = exact_displacement(prefix, k)
            if average:
                exact["average"] = math.fsum(exact[n] for n in letters) / len(letters)
            for name, value in exact.items():
                dev = _rel(curves[name][j], value)
                _expect(dev <= 1e-9, f"F({k}) for {name} deviates {dev:.2e} from the exact variance")

    return check


def _jsd(left: np.ndarray, right: np.ndarray) -> float:
    def h(p: np.ndarray) -> float:
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    p, q = left / left.sum(), right / right.sum()
    return max(h((p + q) / 2) - 0.5 * (h(p) + h(q)), 0.0)


def check_profile(source: bytes | Path, length: int, include_space: bool):
    step = max(length // 10, 1)
    keep = 27 if include_space else 26

    def counts(codes: np.ndarray, start: int) -> np.ndarray:
        return np.bincount(codes[start : start + length], minlength=27)[:keep]

    def check(path: Path) -> None:
        codes = _source(source)
        _, body = _split_header(path)
        columns, rows = _table(body)
        _expect(columns == ["position", "raw", "fluct", "normalized"], "bad profile columns")
        bounds = np.arange(length, codes.size - length + 1, step)
        if not include_space:
            # boundaries with an all-space segment are skipped
            letters = np.concatenate(([0], np.cumsum(codes != 26)))
            left = letters[bounds] - letters[bounds - length]
            right = letters[bounds + length] - letters[bounds]
            bounds = bounds[(left > 0) & (right > 0)]
        expected = bounds.tolist()
        _expect([int(r[0]) for r in rows] == expected, "boundary positions differ")
        for i in _sample(len(rows), 9):
            b = expected[i]
            left, right = counts(codes, b - length), counts(codes, b)
            raw = _jsd(left, right)
            pooled = int(np.count_nonzero(left + right))
            level = (pooled - 1) / 8 * (1 / left.sum() + 1 / right.sum())
            got = [float(x) for x in rows[i][1:]]
            _expect(abs(got[0] - raw) <= 1e-12, f"JSD at {b}: {got[0]!r} vs direct {raw!r}")
            _expect(_rel(got[1], level) <= 1e-9, f"fluctuation level at {b} differs")
            _expect(_rel(got[2], raw / level) <= 1e-9, f"normalized JSD at {b} differs")

    return check


def check_window_sample(source: bytes | Path, window: int, seed: int):
    def check(path: Path) -> None:
        src = _source(source)
        out = _source(path)
        n = src.size
        _expect(out.size == n, "surrogate length differs from the source")
        for i in np.random.default_rng(seed).integers(0, n, size=500):
            lo, hi = max(0, i - window // 2 + 1), min(n, i + (window + 1) // 2)
            _expect(out[i] in src[lo:hi], f"symbol at {i} does not occur in its window")

    return check


def check_histogram(source: bytes | Path, block: int | None = None):
    def check(path: Path) -> None:
        src = _source(source)
        out = _source(path)
        _expect(out.size == src.size, "surrogate length differs from the source")
        width = block or src.size
        ids = np.arange(src.size) // width * 27
        same = np.array_equal(np.bincount(ids + src), np.bincount(ids + out))
        _expect(same, "symbol histogram changed" + (" within a block" if block else ""))

    return check


def check_word_multiset(corpus: Corpus):
    def check(path: Path) -> None:
        _, body = _split_header(path)
        words = body.decode().split(" ")
        _expect(Counter(words) == Counter(corpus.words), "word multiset changed")

    return check


def check_synth(length: int):
    def check(path: Path) -> None:
        out = _source(path)
        _expect(out.size == length, "synthetic sequence has the wrong length")
        _expect(bool(np.all((out == 0) | (out == 26))), "synthetic sequence leaves {'a', space}")

    return check


def check_zipf(corpus: Corpus):
    def check(path: Path) -> None:
        header, body = _split_header(path)
        columns, rows = _table(body)
        _expect(columns[:3] == ["rank", "word", "count"], "bad zipf columns")
        _expect(sum(int(r[2]) for r in rows) == len(corpus.words), "zipf counts miss tokens")
        _expect(len(rows) == int(header["word-types"]) == len(set(corpus.words)), "word types")
        letters = sum(int(r[2]) * int(r[3]) for r in rows)
        _expect(letters == int(header["total-letters"]), "zipf letter total differs")

    return check


def check_bands(corpus: Corpus):
    def check(path: Path) -> None:
        _, body = _split_header(path)
        _, rows = _table(body)
        types = len(set(corpus.words))
        _expect(sum(int(r[3]) for r in rows) == types, "band word types miss words")
        _expect(int(rows[0][1]) == 1 and int(rows[-1][2]) == types, "bands do not cover all ranks")

    return check


def check_halves(corpus: Corpus, numer: str, denom: str):
    def check(path: Path) -> None:
        header, body = _split_header(path)
        columns, rows = _table(body)
        _expect(columns[:3] == ["word", "count_first", "count_second"], "bad halves columns")
        first = {r[0]: int(r[1]) for r in rows}
        second = sum(int(r[2]) for r in rows)
        _expect(sum(first.values()) + second == len(corpus.words), "half counts miss tokens")
        _expect(sum(first.values()) == int(header["first-tokens"]), "first-half total differs")
        ratio = float(header[f"ratio {numer}/{denom}"].split()[0].split("=")[1])
        _expect(_rel(ratio, first[numer] / first[denom]) <= 1e-9, "count ratio differs")

    return check


@dataclass(frozen=True)
class Op:
    argv: list[str]
    output: Path
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Prepared:
    ops: list[Op]
    input_bytes: int  # raw text the sequence starts from
    fingerprint: str  # digest of every generated input


def _op(name: str, work: Path, out: str, *args: object, check) -> Op:
    path = work / out
    return Op([name, *map(str, args), "--output", str(path)], path, check)


def _write_corpus(work: Path, seed: int) -> tuple[Corpus, Path]:
    corpus = synthetic_corpus(seed)
    raw = work / "raw.txt"
    raw.write_bytes(corpus.raw)
    return corpus, raw


def _walk_ops(work: Path, seed: int, corpus: Corpus, raw: Path) -> list[Op]:
    """normalize, a four-letter walk, a window-sample surrogate, its walk."""
    norm, surrogate = work / "norm.txt", work / "norm-window-sample.txt"
    return [
        _op("normalize", work, norm.name, "--input", raw,
            check=check_sha(hashlib.sha256(corpus.normalized).hexdigest())),
        _op("walk", work, "walk4.tsv", "--input", norm, "-l", ",".join(WALK_LETTERS),
            "--average", "--fit", "200:1200",
            check=check_walk(norm, WALK_LETTERS, average=True)),
        _op("shuffle", work, surrogate.name, "--input", norm, "--mode", "window-sample",
            "--window", 3000, "--seed", seed,
            check=check_window_sample(corpus.normalized, 3000, seed)),
        _op("walk", work, "walk-surrogate.tsv", "--input", surrogate, "-l", "e",
            "--fit", "200:1200", check=check_walk(surrogate, ("e",), average=False)),
    ]


def _profile_ops(work: Path, seed: int, corpus: Corpus, raw: Path) -> list[Op]:
    """Divergence profiles at two scales and alphabets, every null model."""
    text = corpus.normalized
    surrogate = work / "window-sample.txt"
    return [
        _op("jsd-profile", work, "profile-1000.tsv", "--input", raw, "-L", 1000,
            check=check_profile(text, 1000, include_space=True)),
        _op("jsd-profile", work, "profile-1000-letters.tsv", "--input", raw, "-L", 1000,
            "--alphabet", "letters-only", check=check_profile(text, 1000, include_space=False)),
        _op("jsd-profile", work, "profile-100000.tsv", "--input", raw, "-L", 100_000,
            check=check_profile(text, 100_000, include_space=True)),
        _op("shuffle", work, surrogate.name, "--input", raw, "--mode", "window-sample",
            "--window", 3000, "--seed", seed, check=check_window_sample(text, 3000, seed)),
        _op("shuffle", work, "window-permute.txt", "--input", raw, "--mode", "window-permute",
            "--window", 30, "--seed", seed, check=check_histogram(text, block=30)),
        _op("shuffle", work, "letter.txt", "--input", raw, "--mode", "letter", "--seed", seed,
            check=check_histogram(text)),
        _op("synth", work, "synth.txt", "--seed", seed, check=check_synth(SYNTH_LENGTH)),
        _op("jsd-profile", work, "profile-surrogate.tsv", "--input", surrogate, "-L", 1000,
            check=check_profile(surrogate, 1000, include_space=True)),
    ]


def _lexicon_ops(work: Path, seed: int, corpus: Corpus, raw: Path) -> list[Op]:
    """Zipf table, bands, band divergence, halves and a word shuffle."""
    numer, denom = corpus.top_words(2)
    return [
        _op("zipf", work, "zipf.tsv", "--input", raw, "--fit", "10:300", check=check_zipf(corpus)),
        _op("bands", work, "bands.tsv", "--input", raw, check=check_bands(corpus)),
        _op("band-jsd", work, "band-jsd.tsv", "--input", raw, "-L", 100_000,
            check=check_bands(corpus)),
        _op("halves", work, "halves.tsv", "--input", raw, "--top", 0,
            "--ratio", f"{numer}:{denom}", check=check_halves(corpus, numer, denom)),
        _op("shuffle", work, "word.txt", "--input", raw, "--mode", "word", "--seed", seed,
            check=check_word_multiset(corpus)),
    ]


def letters(work: Path, seed: int) -> Prepared:
    """Symbol-level numpy work: the walk sequence, then the profiles and
    null models, on one corpus."""
    corpus, raw = _write_corpus(work, seed)
    ops = _walk_ops(work, seed, corpus, raw) + _profile_ops(work, seed, corpus, raw)
    return Prepared(ops, len(corpus.raw), hashlib.sha256(corpus.raw).hexdigest())


def words(work: Path, seed: int) -> Prepared:
    """Word-level Python work: the lexicon sequence on the corpus, then
    ``normalize`` streaming a file of STREAM_COPIES chapters of it."""
    corpus, raw = _write_corpus(work, seed)
    stream = work / "stream.txt"
    expected = write_stream(stream, corpus, STREAM_COPIES)
    ops = _lexicon_ops(work, seed, corpus, raw) + [
        _op("normalize", work, "stream-norm.txt", "--input", stream, check=check_sha(expected))
    ]
    digest = hashlib.sha256(corpus.raw + expected.encode()).hexdigest()
    return Prepared(ops, len(corpus.raw) + stream.stat().st_size, digest)


WORKLOADS: dict[str, Callable[[Path, int], Prepared]] = {"letters": letters, "words": words}
