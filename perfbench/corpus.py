"""Seeded synthetic novel, rendered to raw text.

The word stream follows the synthetic-novel recipe of the integration
suite (``tests/test_integration.synthetic_novel``) call for call; seed 0
yields exactly its words. Rendering then turns the single spaces
between words into what a novel has there (commas, sentence ends with a
capital after them, line wraps, paragraph breaks, the odd shouted word),
so ``normalize`` has real folding and collapsing to do. Every separator
is a run of non-letters, hence the normalized corpus is exactly the words
joined by single spaces, which the oracles use without calling the
package under test.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

LETTER_WEIGHTS = np.array(
    [8.2, 1.5, 2.8, 4.3, 12.7, 2.2, 2.0, 6.1, 7.0, 0.15, 0.77, 4.0, 2.4,
     6.7, 7.5, 1.9, 0.1, 6.0, 6.3, 9.1, 2.8, 1.0, 2.4, 0.15, 2.0, 0.07]
)


@dataclass(frozen=True)
class Corpus:
    words: list[str]  # token stream, lowercase letters only
    raw: bytes  # rendered raw text

    @property
    def normalized(self) -> bytes:
        """What ``normalize(raw)`` must produce, one byte per symbol."""
        return " ".join(self.words).encode("ascii")

    def top_words(self, count: int) -> list[str]:
        """Most frequent words, ties broken alphabetically (lexicon order)."""
        ranked = sorted(Counter(self.words).items(), key=lambda kv: (-kv[1], kv[0]))
        return [w for w, _ in ranked[:count]]


def novel_words(n_tokens: int = 220_000, seed: int = 0) -> list[str]:
    """Token stream of the integration suite's synthetic novel.

    The vocabulary is always the recipe's seed-0 vocabulary; the seed
    drives the token draws. Seed 0 reproduces the recipe exactly, and
    other seeds give new novels of nearly the same length and token
    count, so the work a workload does barely depends on the seed.
    """
    rng = np.random.default_rng(0)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    letter_p = LETTER_WEIGHTS / LETTER_WEIGHTS.sum()
    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < 3000:
        length = int(np.clip(rng.normal(4.5, 1.8), 1, 11))
        word = "".join(rng.choice(letters, size=length, p=letter_p))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    if seed != 0:
        rng = np.random.default_rng(seed)
    base_w = 1.0 / np.arange(1, len(vocab) + 1)
    fast_a, fast_b = np.arange(30, 80), np.arange(80, 130)
    slow_a, slow_b = np.arange(130, 190), np.arange(190, 250)
    n_seg = 240
    seg = n_tokens // n_seg
    picks: list[np.ndarray] = []
    for s in range(n_seg):
        fast = 0.5 + 0.5 * np.sin(2 * np.pi * s * 12 / n_seg)
        slow = 0.5 + 0.5 * np.sin(2 * np.pi * s * 2.5 / n_seg + 1.0)
        w = base_w.copy()
        w[fast_a] *= 4 * fast
        w[fast_b] *= 4 * (1 - fast)
        w[slow_a] *= 6 * slow
        w[slow_b] *= 6 * (1 - slow)
        picks.append(rng.choice(len(vocab), size=seg, p=w / w.sum()))
    return [vocab[i] for i in np.concatenate(picks)]


def render(words: list[str], seed: int) -> bytes:
    """Raw novel text whose normalization is ``" ".join(words)``.

    Uses its own generator, so the word stream is the recipe's exactly.
    The text starts and ends with a letter, so no edge space appears.
    """
    rng = np.random.default_rng([seed, 1])
    n = len(words)
    u = rng.random(n)
    # separator after each word: sentence end, comma, line wrap or space
    ends = u < 1 / 15
    commas = (u >= 1 / 15) & (u < 1 / 15 + 1 / 18)
    wraps = (u >= 0.5) & (u < 0.5 + 1 / 12)
    paragraph = rng.random(n) < 0.1
    shout = rng.random(n) < 0.002
    end_marks = rng.choice([". ", "! ", "? ", '." '], size=n, p=[0.8, 0.07, 0.08, 0.05])
    capital = np.zeros(n, dtype=bool)
    capital[0] = True
    capital[1:] = ends[:-1]
    pieces: list[str] = []
    for i, word in enumerate(words):
        if shout[i]:
            word = word.upper()
        elif capital[i]:
            word = word.capitalize()
        pieces.append(word)
        if i == n - 1:
            break
        if ends[i]:
            pieces.append(end_marks[i].rstrip() + "\n\n" if paragraph[i] else end_marks[i])
        elif commas[i]:
            pieces.append(", ")
        elif wraps[i]:
            pieces.append("\n")
        else:
            pieces.append(" ")
    return "".join(pieces).encode("ascii")


def synthetic_corpus(seed: int, n_tokens: int = 220_000) -> Corpus:
    words = novel_words(n_tokens, seed)
    return Corpus(words=words, raw=render(words, seed))


# Chapters of the stream file: digits, curly quotes and an em dash around
# each copy of the corpus. The multibyte characters sit only between words,
# so they fold to separators and never split a word.
def _chapter_open(i: int) -> bytes:
    return f"CHAPTER {i}.\n\n“".encode("utf-8")


_CHAPTER_CLOSE = "” —\n\n".encode("utf-8")


def write_stream(path, corpus: Corpus, copies: int) -> str:
    """Write ``copies`` chapters of the raw corpus; return the sha256 of
    the normalized form, built from the words rather than by normalizing."""
    body = b"chapter " + corpus.normalized + b" "
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for i in range(1, copies + 1):
            fh.write(_chapter_open(i))
            fh.write(corpus.raw)
            fh.write(_CHAPTER_CLOSE)
            digest.update(body)
    return digest.hexdigest()
