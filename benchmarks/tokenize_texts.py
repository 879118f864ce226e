"""Time and traced memory of ``tokenize`` on texts that differ in word length:

    python3 benchmarks/tokenize_texts.py [--runs 15] [--write DIR]

Builds three seeded texts of about 1.2M symbols each: the synthetic
novel of ``perfbench/corpus.py`` (seed 0), a Zipf text whose vocabulary
puts about 7% of the tokens over 8 letters, and a Zipf text of 9- to
16-letter words only. ``tokenize`` gives a word of up to 8 letters its
sort key from its letters alone and numbers longer words through a dict,
so the share of long tokens sets its cost. For each text the script
prints that share, the median ``tokenize`` time over ``--runs`` calls
and the tracemalloc peak of one call per symbol. ``--write DIR`` also
saves each text as ``DIR/<name>.txt``, one line of normalized symbols,
for runs of the CLI. The package timed is the one in the checkout that
holds this script; to compare another commit, run the script from a copy
of that commit.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import novel_words  # noqa: E402

from lettercorr import normalize, tokenize  # noqa: E402

# letters of the Zipf texts' words, drawn uniformly
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
TOKENS = 220_000


def zipf_text(rng: np.random.Generator, lengths: np.ndarray) -> str:
    """TOKENS draws, Zipf over rank, from one random word per entry of ``lengths``."""
    vocab = ["".join(rng.choice(LETTERS, size=int(n))) for n in lengths]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    draws = rng.choice(len(vocab), size=TOKENS, p=weights / weights.sum())
    return " ".join(vocab[i] for i in draws.tolist())


def texts() -> dict[str, str]:
    rng = np.random.default_rng(0)
    mixed = np.clip(np.rint(rng.normal(5.0, 2.6, 20_000)), 1, 20)
    return {
        "novel": " ".join(novel_words(seed=0)),
        "zipf_7pct_long": zipf_text(rng, mixed),
        "long_words_only": zipf_text(rng, rng.integers(9, 17, 5_000)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="timed calls per text (default 15)")
    parser.add_argument("--write", type=Path, metavar="DIR", help="also save the texts in DIR")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    print("text\tsymbols\ttokens\tlong_share\ttokenize_ms\tpeak_b_per_symbol")
    for name, raw in texts().items():
        if args.write:
            args.write.mkdir(parents=True, exist_ok=True)
            (args.write / f"{name}.txt").write_text(raw + "\n", encoding="ascii")
        text = normalize(raw, trim=True)
        tracemalloc.start()
        try:
            tokens = tokenize(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        seconds = []
        for _ in range(args.runs):
            start = time.perf_counter()
            tokenize(text)
            seconds.append(time.perf_counter() - start)
        long_share = float(np.mean(tokens.lengths > 8))
        print(
            f"{name}\t{len(text)}\t{len(tokens)}\t{long_share:.4f}"
            f"\t{np.median(seconds) * 1e3:.1f}\t{peak / len(text):.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
