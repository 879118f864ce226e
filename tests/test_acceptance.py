"""Acceptance suite: one test per criterion, at its stated tolerance.

Criteria that measure the two reference novels skip when the corpus
files are absent (tests/conftest.py documents where to put them); all
other criteria run on synthetic or random inputs and always execute.
``pytest -v`` shows one line per criterion; ``-s`` also shows the
printed PASS summaries.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from lettercorr import (
    IndicatorSeries,
    NormalizedText,
    band_jsd,
    build_lexicon,
    compare_halves,
    content_word_variance_model,
    default_k_grid,
    displacement,
    fit_exponent,
    fluctuation_level,
    indicator,
    jsd,
    jsd_profile,
    letter_shuffle,
    partition_bands,
    tokenize,
    two_regime_sequence,
    window_shuffle,
    word_shuffle,
)


def _report(criterion: int, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


def _sub_grid(n: int, k_lo: int, k_hi: int) -> np.ndarray:
    grid = default_k_grid(n)
    return grid[(grid >= k_lo) & (grid <= k_hi)]


@pytest.fixture(scope="module")
def moby_curve_a(moby_text):
    # letter 'a' displacement over the full usable decade span, shared by
    # the scaling and window-shuffle criteria
    grid = _sub_grid(len(moby_text), 1, 100_000)
    return displacement(indicator(moby_text, "a"), grid)


def test_criterion_01_prefix_sum_matches_direct_oracle():
    rng = np.random.default_rng(2001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(200, 10_001))
        bits = (rng.random(n) < rng.uniform(0.02, 0.5)).astype(np.uint8)
        ks = np.unique(np.geomspace(1, n // 4, 4).astype(np.int64))
        series = IndicatorSeries(bits=bits, source_letter=0)
        fast = displacement(series, ks).f
        direct = np.array(
            [float(np.var(sliding_window_view(bits, int(k)).sum(axis=1, dtype=np.int64))) for k in ks]
        )
        scale = np.maximum(np.abs(direct), 1e-300)
        worst = max(worst, float(np.max(np.abs(fast - direct) / scale)))
    assert worst <= 1e-9
    _report(1, f"100 series, worst relative deviation {worst:.2e}")


def test_criterion_02_uncorrelated_baseline():
    p = 0.1
    rng = np.random.default_rng(2)
    bits = (rng.random(1_000_000) < p).astype(np.uint8)
    series = IndicatorSeries(bits=bits, source_letter=0)
    grid = _sub_grid(1_000_000, 1, 10_000)
    curve = displacement(series, grid)

    alpha = fit_exponent(curve, 10, 10_000).alpha
    assert 0.95 <= alpha <= 1.05

    sel = (curve.k >= 10) & (curve.k <= 1000)
    ratios = curve.f[sel] / curve.k[sel]
    dev = float(np.max(np.abs(ratios / (p * (1 - p)) - 1.0)))
    assert dev <= 0.05
    _report(2, f"alpha={alpha:.3f}, max |F/k - p(1-p)| deviation {dev:.1%}")


def test_criterion_03_moby_letter_scaling(moby_text, moby_curve_a):
    mid_a = fit_exponent(moby_curve_a, 200, 1200).alpha
    short_a = fit_exponent(moby_curve_a, 10, 200).alpha
    assert 1.10 <= mid_a <= 1.30
    assert 0.90 <= short_a <= 1.10

    details = [f"a: short={short_a:.2f} mid={mid_a:.2f}"]
    grid = _sub_grid(len(moby_text), 1, 1200)
    for letter in ("v", "x"):
        curve = displacement(indicator(moby_text, letter), grid)
        mid = fit_exponent(curve, 200, 1200).alpha
        short = fit_exponent(curve, 10, 200).alpha
        assert mid - short >= 0.1, f"letter {letter}: mid={mid:.3f} short={short:.3f}"
        details.append(f"{letter}: short={short:.2f} mid={mid:.2f}")
    _report(3, "; ".join(details))


def test_criterion_04_full_shuffles_restore_linearity(moby_text):
    details = []
    for name, shuffled in (
        ("letter", letter_shuffle(moby_text, 401)),
        ("word", word_shuffle(moby_text, 402)),
    ):
        grid = _sub_grid(len(shuffled), 1, 100_000)
        curve = displacement(indicator(shuffled, "a"), grid)
        alpha = fit_exponent(curve, 10, 100_000).alpha
        assert 0.95 <= alpha <= 1.05, f"{name} shuffle: alpha={alpha:.3f}"
        details.append(f"{name}: alpha={alpha:.3f}")
    _report(4, "; ".join(details))


def test_criterion_05_window_shuffle_preserves_walk(moby_text, moby_curve_a):
    sel = moby_curve_a.k >= 10
    ks = moby_curve_a.k[sel]
    ln_orig = np.log(moby_curve_a.f[sel])

    deviations = np.zeros((5, ks.size))
    for i, seed in enumerate(range(501, 506)):
        shuffled = window_shuffle(moby_text, 3000, seed)
        curve = displacement(indicator(shuffled, "a"), ks)
        deviations[i] = np.abs(np.log(curve.f) - ln_orig)
    mean_dev = deviations.mean(axis=0)
    worst = float(mean_dev.max())
    assert worst <= 0.15, f"worst mean |ln F ratio| {worst:.3f} at k={int(ks[mean_dev.argmax()])}"

    wide = window_shuffle(moby_text, 300_000, 507)
    grid = _sub_grid(len(wide), 1, 1200)
    alpha = fit_exponent(displacement(indicator(wide, "a"), grid), 200, 1200).alpha
    assert 0.9 <= alpha <= 1.1
    _report(5, f"n=3000 worst mean dev {worst:.3f}; n=3e5 midrange alpha={alpha:.3f}")


def test_criterion_06_two_regime_three_regions():
    seq = two_regime_sequence(seed=3)  # defaults: p=0.062/0.1054, burst 6250, N=1.2e6
    grid = _sub_grid(len(seq), 1, 200_000)
    curve = displacement(indicator(seq, "a"), grid)

    below = fit_exponent(curve, 10, 100).alpha
    assert 0.9 <= below <= 1.1
    mid_alphas = {c: fit_exponent(curve, c, 10 * c).alpha for c in (100, 158, 251, 398, 631, 1000)}
    best_c, best_mid = max(mid_alphas.items(), key=lambda kv: kv[1])
    assert best_mid > 1.1, f"no superlinear decade: {mid_alphas}"
    above = fit_exponent(curve, 20_000, 200_000).alpha
    assert 0.9 <= above <= 1.1
    _report(
        6,
        f"below={below:.3f}, decade [{best_c}, {10 * best_c}] alpha={best_mid:.3f}, above={above:.3f}",
    )


def test_criterion_07_fluctuation_level_validates():
    rng = np.random.default_rng(7)
    details = []
    for n_symbols, trials in ((27, 10_000), (5, 1000)):
        law = np.full(n_symbols, 1.0 / n_symbols)
        draws = rng.multinomial(trials, law, size=(1000, 2))
        mean = float(np.mean(jsd(draws[:, 0], draws[:, 1])))
        predicted = fluctuation_level(n_symbols, trials)
        rel = abs(mean - predicted) / predicted
        assert rel <= 0.15, f"(n={n_symbols}, N={trials}): off by {rel:.1%}"
        details.append(f"(n={n_symbols}, N={trials}): {rel:.1%}")
    _report(7, "; ".join(details))


def test_criterion_08_jsd_profile_moby(moby_text):
    short = jsd_profile(moby_text, 1000)
    short_mean = float(short.normalized.mean())
    assert 0.7 <= short_mean <= 1.5

    long = jsd_profile(moby_text, 100_000)
    above = float((long.normalized > 1.0).mean())
    long_mean = float(long.normalized.mean())
    assert above >= 0.9
    assert long_mean >= 2.0
    _report(
        8,
        f"L=1000 mean={short_mean:.2f}; L=100000 above-level at {above:.0%}, mean={long_mean:.2f}",
    )


def test_criterion_09_band_analysis(moby_text, david_text):
    details = []
    for name, text, expected_types in (("MB", moby_text, 135), ("DC", david_text, 80)):
        lex = build_lexicon(tokenize(text))
        partition = partition_bands(lex)
        report = band_jsd(text, lex, partition, 100_000)
        peak = report.peak()
        assert peak.band.index != 1, f"{name}: peak in the topmost band"
        assert peak.band.index <= 3, f"{name}: peak band {peak.band.index} is not high-frequency"
        lo, hi = 0.8 * expected_types, 1.2 * expected_types
        assert lo <= peak.band.word_types <= hi, (
            f"{name}: peak band holds {peak.band.word_types} word types, expected ~{expected_types}"
        )
        lowest = report.entries[-1]
        assert lowest.mean_normalized > 1.0, f"{name}: lowest band at {lowest.mean_normalized:.2f}"
        details.append(
            f"{name}: peak band {peak.band.index} ({peak.band.word_types} types, "
            f"norm {peak.mean_normalized:.1f}), lowest {lowest.mean_normalized:.2f}"
        )
    _report(9, "; ".join(details))


def test_criterion_10_half_comparison_moby(moby_text):
    comp = compare_halves(moby_text)
    the_a_1 = comp.count_ratio("the", "a", 1)
    the_a_2 = comp.count_ratio("the", "a", 2)
    assert abs(the_a_1 - 2.7) <= 0.3
    assert abs(the_a_2 - 3.5) <= 0.3

    freq_first, freq_second = comp.frequencies
    whale = comp.words.index("whale")
    assert freq_second[whale] > freq_first[whale]

    is_was_1 = comp.count_ratio("is", "was", 1)
    is_was_2 = comp.count_ratio("is", "was", 2)
    assert is_was_1 > 1.0 > is_was_2
    _report(
        10,
        f"the/a {the_a_1:.2f} -> {the_a_2:.2f}; whale up; is/was {is_was_1:.2f} -> {is_was_2:.2f}",
    )


def test_criterion_11_content_word_variance_model():
    expected, sd, relative = content_word_variance_model(100, 4.5, 0.1)
    assert expected == pytest.approx(45.0, abs=1e-12)
    assert 6.5 <= sd <= 7.0
    assert 0.14 <= relative <= 0.16
    _report(11, f"expected={expected:.0f}, sd={sd:.2f}, relative={relative:.1%}")


def test_criterion_12a_walk_performance():
    rng = np.random.default_rng(12)
    text = NormalizedText(rng.integers(0, 27, size=2_000_000).astype(np.uint8))
    grid = np.unique(np.geomspace(1, len(text) // 4, 100).astype(np.int64))
    start = time.perf_counter()
    displacement(indicator(text, "e"), grid)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0, f"walk took {elapsed:.1f}s"
    _report(12, f"walk on 2e6 symbols with {grid.size}-point grid: {elapsed:.2f}s")


_CHILD_SCRIPT = """
import resource, sys
import lettercorr.cli as cli
if len(sys.argv) > 2:
    rc = cli.main(["normalize", "--input", sys.argv[1], "--output", sys.argv[2]])
    if rc != 0:
        sys.exit(rc)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_criterion_12b_streaming_normalization_memory(tmp_path):
    big = tmp_path / "big.txt"
    block = (b"The quick brown fox; JUMPS over 13 lazy dogs!\n" * 23000)[: 1 << 20]
    with open(big, "wb") as fh:
        for _ in range(100):
            fh.write(block)
    assert big.stat().st_size == 100 << 20

    def child_rss(extra_args: list[str]) -> int:
        out = subprocess.run(
            [sys.executable, "-c", _CHILD_SCRIPT, *extra_args],
            capture_output=True,
            text=True,
            check=True,
        )
        return int(out.stdout.strip())  # KiB on Linux

    baseline = child_rss([])
    working = child_rss([str(big), str(tmp_path / "norm.txt")])
    overhead_mib = (working - baseline) / 1024
    assert overhead_mib <= 64, f"streaming normalization used {overhead_mib:.0f} MiB beyond baseline"
    _report(12, f"100 MB normalize: {overhead_mib:.0f} MiB resident beyond interpreter baseline")
