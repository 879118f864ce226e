import io
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lettercorr
from lettercorr import (
    average_displacement,
    band_jsd,
    build_lexicon,
    decode_symbols,
    default_k_grid,
    displacement,
    fit_exponent,
    indicator,
    jsd_profile,
    normalize,
    partition_bands,
    symbol_code,
    tokenize,
)
from lettercorr import cli
from lettercorr.cli import main


def run(args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def corpus_file(tmp_path):
    # a drifting two-word text so every subcommand has something to chew on
    rng = np.random.default_rng(77)
    words = []
    for i in range(12_000):
        local = 0.2 + 0.15 * np.sin(2 * np.pi * i / 3000)
        word = "whale" if rng.random() < local else rng.choice(["sea", "ship", "ahab", "man"])
        words.append(word)
    path = tmp_path / "corpus.txt"
    path.write_text(" ".join(words) + "\n")
    return path


def _body(path) -> bytes:
    data = path.read_bytes()
    while data.startswith(b"#"):
        data = data[data.find(b"\n") + 1 :]
    return data


def _header(path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        if ": " in line:
            key, val = line[2:].split(": ", 1)
            out[key] = val
    return out


def _replay_line(path) -> list[str]:
    for line in path.read_text().splitlines():
        if line.startswith("# replay: "):
            return shlex.split(line[len("# replay: ") :])
    raise AssertionError(f"no replay line in {path}")


def test_normalize_roundtrip(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("Call me Ishmael. Some YEARS ago...")
    out = tmp_path / "norm.txt"
    assert run(["normalize", "--input", src, "--output", out]) == 0
    assert _body(out) == b"call me ishmael some years ago "
    # the output re-normalizes to itself, headers stripped
    assert normalize(_body(out)) == normalize(src.read_bytes())


def test_normalize_trim_flag(tmp_path):
    src = tmp_path / "raw.txt"
    src.write_text("...abc...")
    out = tmp_path / "norm.txt"
    assert run(["normalize", "--input", src, "--output", out, "--trim"]) == 0
    assert _body(out) == b"abc"


def test_walk_on_empty_file_fails_cleanly(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("")
    assert run(["walk", "--input", src, "--letter", "a"]) == 1
    assert "empty text" in capsys.readouterr().err


def test_missing_input_fails_cleanly(tmp_path, capsys):
    assert run(["walk", "--input", tmp_path / "nope.txt", "--letter", "a"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["walk", "--frobnicate"])
    assert exc.value.code == 2


def test_walk_output_and_fit_header(tmp_path, corpus_file):
    out = tmp_path / "walk.tsv"
    assert run(
        ["walk", "--input", corpus_file, "--letter", "a,e", "--average",
         "--fit", "10:1000", "--output", out]
    ) == 0
    content = out.read_text()
    assert "# letter: a" in content and "# letter: e" in content
    assert "# letter: average" in content
    assert content.count("# alpha: ") == 3
    rows = [l for l in content.splitlines() if l and not l.startswith("#") and "\t" in l]
    k_col = [r.split("\t")[0] for r in rows if r.split("\t")[0] != "k"]
    assert all(int(v) >= 1 for v in k_col)


def test_synth_is_deterministic_and_replayable(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    args = ["synth", "--length", 5000, "--burst-len", 100, "--seed", 9, "--output"]
    assert run(args + [a]) == 0
    assert run(args + [b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_shuffle_modes_and_replay(tmp_path, corpus_file):
    out = tmp_path / "shuf.txt"
    assert run(
        ["shuffle", "--input", corpus_file, "--mode", "window-sample",
         "--window", 500, "--seed", 4, "--output", out]
    ) == 0
    src_hist = np.bincount(normalize(corpus_file.read_bytes()).codes, minlength=27)
    # window-permute preserves the histogram exactly
    exact = tmp_path / "perm.txt"
    assert run(
        ["shuffle", "--input", corpus_file, "--mode", "window-permute",
         "--window", 500, "--seed", 4, "--output", exact]
    ) == 0
    perm_hist = np.bincount(decode_symbols(_body(exact)).codes, minlength=27)
    assert np.array_equal(perm_hist, src_hist)


def test_shuffle_window_past_int64_samples_like_twice_the_text(tmp_path, corpus_file, capsys):
    # any window of 2N or more draws from the whole text; the replay line
    # keeps the window as given
    n = len(normalize(corpus_file.read_bytes()))
    huge, whole = tmp_path / "huge.txt", tmp_path / "whole.txt"
    base = ["shuffle", "--input", corpus_file, "--mode", "window-sample", "--seed", 4]
    assert run([*base, "--window", "99999999999999999999", "--output", huge]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert run([*base, "--window", 2 * n, "--output", whole]) == 0
    assert _body(huge) == _body(whole)
    assert "--window 99999999999999999999" in " ".join(_replay_line(huge))


def test_shuffle_window_mode_requires_window(tmp_path, corpus_file, capsys):
    assert run(["shuffle", "--input", corpus_file, "--mode", "window-sample", "--seed", 1]) == 1
    assert "--window is required" in capsys.readouterr().err


def test_shuffle_seed_from_environment(tmp_path, corpus_file, monkeypatch, capsys):
    out = tmp_path / "s.txt"
    monkeypatch.delenv("LETTERCORR_SEED", raising=False)
    assert run(["shuffle", "--input", corpus_file, "--mode", "letter", "--output", out]) == 1
    assert "--seed is required" in capsys.readouterr().err
    monkeypatch.setenv("LETTERCORR_SEED", "123")
    assert run(["shuffle", "--input", corpus_file, "--mode", "letter", "--output", out]) == 0
    assert "--seed 123" in " ".join(_replay_line(out))


def test_jsd_profile_output(tmp_path, corpus_file):
    out = tmp_path / "prof.tsv"
    assert run(
        ["jsd-profile", "--input", corpus_file, "--segment-length", 5000, "--output", out]
    ) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "position\traw\tfluct\tnormalized"
    first = lines[1].split("\t")
    assert int(first[0]) == 5000
    assert float(first[2]) > 0
    assert "max-normalized" in _header(out)


def test_zipf_output(tmp_path, corpus_file):
    out = tmp_path / "zipf.tsv"
    assert run(["zipf", "--input", corpus_file, "--top", 3, "--output", out]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "rank\tword\tcount\tlength\tletter_share"
    assert len(rows) == 4
    counts = [int(r.split("\t")[2]) for r in rows[1:]]
    assert counts == sorted(counts, reverse=True)


def test_bands_and_band_jsd_output(tmp_path, corpus_file):
    bands_out = tmp_path / "bands.tsv"
    assert run(["bands", "--input", corpus_file, "--output", bands_out]) == 0
    rows = [l for l in bands_out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "band\trank_lo\trank_hi\tword_types\tletter_share"
    assert len(rows) == 6

    jsd_out = tmp_path / "bandjsd.tsv"
    assert run(
        ["band-jsd", "--input", corpus_file, "--segment-length", 10_000, "--output", jsd_out]
    ) == 0
    rows = [l for l in jsd_out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("band\t")
    assert len(rows) == 6
    means = [float(r.split("\t")[5]) for r in rows[1:]]
    assert all(m >= 0 or np.isnan(m) for m in means)


def test_halves_output_with_ratios(tmp_path, corpus_file):
    out = tmp_path / "halves.tsv"
    assert run(
        ["halves", "--input", corpus_file, "--top", 5, "--ratio", "whale:sea", "--output", out]
    ) == 0
    header = _header(out)
    assert "ratio whale/sea" in header
    assert "first=" in header["ratio whale/sea"]
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "word\tcount_first\tcount_second\tfreq_first\tfreq_second\trel_change"
    assert len(rows) == 6


def test_halves_bad_ratio_spec(tmp_path, corpus_file, capsys):
    assert run(["halves", "--input", corpus_file, "--ratio", "whale"]) == 1
    assert "WORD:WORD" in capsys.readouterr().err
    # words that normalized text can never hold
    out = tmp_path / "halves.tsv"
    for spec in ["sea.:whale", "The:a", "whale:sea1", "whale:s\u00e9a"]:
        assert run(["halves", "--input", corpus_file, "--ratio", spec, "--output", out]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --ratio words must be lowercase letters a-z, got {spec!r}\n"
        assert not out.exists()


def test_halves_with_an_empty_half_fails_cleanly(tmp_path, capsys):
    src = tmp_path / "one.txt"
    src.write_text("call")
    out = tmp_path / "halves.tsv"
    assert run(["halves", "--input", src, "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "both halves need words" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["zipf", "--top", -2], ["halves", "--top", -1]])
def test_negative_top_fails_cleanly(tmp_path, corpus_file, capsys, argv):
    out = tmp_path / "out.tsv"
    assert run(argv + ["--input", corpus_file, "--output", out]) == 1
    assert capsys.readouterr().err == f"error: --top must not be negative, got {argv[-1]}\n"
    assert not out.exists()


@pytest.fixture()
def no_tokenize(monkeypatch):
    # band-jsd rejects a bad -L before the text is tokenized and ranked
    def tokenize(text):
        raise AssertionError("tokenize called")

    monkeypatch.setattr("lettercorr.cli.tokenize", tokenize)
    monkeypatch.setattr("lettercorr.lexicon.tokenize", tokenize)


@pytest.mark.parametrize("length", [0, -5])
def test_band_jsd_non_positive_length_fails_cleanly(
    tmp_path, corpus_file, capsys, no_tokenize, length
):
    out = tmp_path / "bandjsd.tsv"
    assert run(["band-jsd", "--input", corpus_file, "-L", length, "--output", out]) == 1
    assert capsys.readouterr().err == "error: segment length must be positive\n"
    assert not out.exists()


def test_band_jsd_pair_longer_than_the_text_fails_cleanly(
    tmp_path, corpus_file, capsys, no_tokenize
):
    n = len(normalize(corpus_file.read_bytes()))
    length = n // 2 + 1
    out = tmp_path / "bandjsd.tsv"
    assert run(["band-jsd", "--input", corpus_file, "-L", length, "--output", out]) == 1
    assert capsys.readouterr().err == (
        f"error: text of length {n} is shorter than one segment pair of {2 * length}\n"
    )
    assert not out.exists()


def test_bad_byte_in_a_sequence_file_is_reported_at_its_file_offset(tmp_path, corpus_file, capsys):
    seq = tmp_path / "seq.txt"
    assert run(["shuffle", "--input", corpus_file, "--mode", "letter", "--seed", 1,
                "--output", seq]) == 0
    data = seq.read_bytes()
    offset = len(data) - len(_body(seq)) + 3
    seq.write_bytes(data[:offset] + b"X" + data[offset + 1 :])
    out = tmp_path / "walk.tsv"
    assert run(["walk", "--input", seq, "-l", "e", "--output", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"invalid symbol byte 0x58 at offset {offset} " in err
    assert "Traceback" not in err
    assert not out.exists()


def test_walk_reads_sequence_outputs(tmp_path):
    # synth -> walk pipeline: the '#' header must be skipped on read
    seq = tmp_path / "seq.txt"
    assert run(["synth", "--length", 100_000, "--burst-len", 0, "--seed", 5,
                "--output", seq]) == 0
    out = tmp_path / "walk.tsv"
    assert run(["walk", "--input", seq, "--letter", "a", "--fit", "10:1000",
                "--output", out]) == 0
    header = out.read_text()
    assert "# n: 100000\n" in header
    alpha = float(next(l for l in header.splitlines() if l.startswith("# alpha: ")).split(": ")[1])
    assert 0.8 <= alpha <= 1.2


# one run per subcommand; edge cases whose replay line differs from the
# command as typed: comma-separated and named letters, a zero-padded fit
# range, a window the letter shuffle ignores, a centred burst and the
# default step
REPLAY_CASES = {
    "normalize": ["normalize", "--trim"],
    "walk": ["walk", "-l", "a,e,space", "--average", "--fit", "010:1000"],
    "shuffle": ["shuffle", "--mode", "window-sample", "--window", 500, "--seed", 4],
    "shuffle-letter": ["shuffle", "--mode", "letter", "--window", 77, "--seed", 4],
    "synth": ["synth", "--length", 5000, "--burst-len", 100, "--seed", 9],
    "jsd-profile": ["jsd-profile", "-L", 5000],
    "zipf": ["zipf", "--top", 3],
    "bands": ["bands"],
    "band-jsd": ["band-jsd", "-L", 10_000],
    "halves": ["halves", "--top", 5, "--ratio", "whale:sea", "--ratio", "ship:man"],
}


@pytest.mark.parametrize("argv", REPLAY_CASES.values(), ids=REPLAY_CASES.keys())
def test_replay_line_reproduces_the_output(tmp_path, corpus_file, argv):
    inputs = [] if argv[0] == "synth" else ["--input", corpus_file]
    out, replayed = tmp_path / "out", tmp_path / "replayed"
    assert run(argv + inputs + ["--output", out]) == 0
    assert run(_replay_line(out) + ["--output", replayed]) == 0
    assert replayed.read_bytes() == out.read_bytes()


def test_replay_line_lists_resolved_flags_in_parser_order(tmp_path, corpus_file):
    out = tmp_path / "walk.tsv"
    assert run(["walk", "-o", out, "--fit", "010:1000", "-l", "e,space", "-i", corpus_file]) == 0
    assert _replay_line(out) == [
        "walk", "--input", str(corpus_file), "--letter", "e", "--letter", "space",
        "--points-per-decade", "20", "--fit", "10:1000",
    ]


# the fit range lies beyond the text, so the run fails after it has computed
# the curves and started writing
FAILING_WALK = ["walk", "-l", "e,q", "--fit", "100000:200000"]


def test_failed_run_creates_no_file(tmp_path, corpus_file, capsys):
    outdir = tmp_path / "out"
    outdir.mkdir()
    assert run(FAILING_WALK + ["--input", corpus_file, "--output", outdir / "walk.tsv"]) == 1
    assert "letter e: need at least 3 points" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []


def test_failed_run_leaves_existing_output_untouched(tmp_path, corpus_file):
    out = tmp_path / "walk.tsv"
    out.write_bytes(b"earlier result\n")
    assert run(FAILING_WALK + ["--input", corpus_file, "--output", out]) == 1
    assert out.read_bytes() == b"earlier result\n"


def test_empty_output_path_fails_cleanly(tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(["synth", "--length", 100, "--burst-len", 10, "--seed", 1, "--output", ""]) == 1
    assert capsys.readouterr().err == "error: cannot write '': empty path\n"
    assert list(tmp_path.rglob("*")) == [work]


def test_output_mode_matches_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    out = tmp_path / "synth.txt"
    assert run(["synth", "--length", 1000, "--burst-len", 10, "--seed", 1, "--output", out]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_output_through_a_symlink_keeps_the_link(tmp_path):
    (tmp_path / "runs").mkdir()
    real, link = tmp_path / "runs" / "run3.txt", tmp_path / "latest.txt"
    link.symlink_to(real)
    assert run(["synth", "--length", 1000, "--burst-len", 10, "--seed", 1, "--output", link]) == 0
    assert link.is_symlink() and real.read_bytes().startswith(b"# lettercorr synth\n")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["latest.txt", "run3.txt", "runs"]


def test_output_to_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(["synth", "--length", 1000, "--burst-len", 10, "--seed", 1, "--output", fifo]) == 0
    reader.join(timeout=10)
    assert got and got[0].startswith(b"# lettercorr synth\n")
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_text_starting_like_a_header_is_normalized(tmp_path):
    src = tmp_path / "notes.txt"
    src.write_text("# lettercorr notes\nCall me Ishmael. Call ME again.\n")
    out = tmp_path / "zipf.tsv"
    assert run(["zipf", "--input", src, "--output", out]) == 0
    rows = [l.split("\t") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert {r[1]: r[2] for r in rows[1:]} == {"call": "2", "me": "2", "ishmael": "1", "again": "1"}


def test_broken_pipe_exits_quietly(tmp_path, corpus_file):
    argv = ["jsd-profile", "-i", str(corpus_file), "-L", "100"]
    full = tmp_path / "full.tsv"
    assert run(argv + ["-o", full]) == 0
    assert full.stat().st_size > 1 << 16  # more than a pipe buffer holds
    paths = [str(Path(lettercorr.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys; from lettercorr.cli import main; sys.exit(main())"
    with subprocess.Popen(
        [sys.executable, "-c", code, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


# The per-row bodies the one table writer replaced, kept as references. Each
# takes the text a subcommand read and returns the body it printed under
# the header, at the flags of BODY_CASES.


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _walk_body(text) -> bytes:
    names = ["a", "e"]
    grid = default_k_grid(len(text), 20)
    curves = [displacement(indicator(text, symbol_code(n)), grid) for n in names]
    names.append("average")
    curves.append(average_displacement(curves))
    out = io.BytesIO()
    for i, (name, curve) in enumerate(zip(names, curves)):
        if i:
            out.write(b"\n")
        out.write(f"# letter: {name}\n".encode())
        fit = fit_exponent(curve, 10, 1000)
        out.write(f"# alpha: {_fmt(fit.alpha)}\n".encode())
        out.write(f"# fit-range: {fit.k_min}:{fit.k_max}\n".encode())
        out.write(f"# rms-residual: {_fmt(fit.rms_residual)}\n".encode())
        if fit.excluded_zero:
            out.write(f"# excluded-zero: {fit.excluded_zero}\n".encode())
        out.write(b"k\tF\n")
        for k, f in zip(curve.k, curve.f):
            out.write(f"{int(k)}\t{_fmt(float(f))}\n".encode())
    return out.getvalue()


def _profile_body(text) -> bytes:
    profile = jsd_profile(text, 5000)
    out = io.BytesIO()
    out.write(b"position\traw\tfluct\tnormalized\n")
    for i in range(len(profile)):
        out.write(
            (
                f"{int(profile.positions[i])}\t{_fmt(float(profile.raw[i]))}\t"
                f"{_fmt(float(profile.fluct[i]))}\t{_fmt(float(profile.normalized[i]))}\n"
            ).encode()
        )
    return out.getvalue()


def _zipf_body(text) -> bytes:
    # ranked from the words themselves, as the per-word lexicon entries were
    counts = Counter(w.decode() for w in text.to_bytes().split())
    total_letters = sum(c * len(w) for w, c in counts.items())
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    out = io.BytesIO()
    out.write(b"rank\tword\tcount\tlength\tletter_share\n")
    for rank, (w, c) in enumerate(ordered[:3], start=1):
        share = c * len(w) / total_letters
        out.write(f"{rank}\t{w}\t{c}\t{len(w)}\t{_fmt(share)}\n".encode())
    return out.getvalue()


def _bands_body(text) -> bytes:
    partition = partition_bands(build_lexicon(tokenize(text)))
    out = io.BytesIO()
    out.write(b"band\trank_lo\trank_hi\tword_types\tletter_share\n")
    for band in partition.bands:
        out.write(
            (
                f"{band.index}\t{band.rank_lo}\t{band.rank_hi}\t"
                f"{band.word_types}\t{_fmt(band.letter_share)}\n"
            ).encode()
        )
    return out.getvalue()


def _band_jsd_body(text, length: int) -> bytes:
    lex = build_lexicon(tokenize(text))
    report = band_jsd(text, lex, partition_bands(lex), length)
    out = io.BytesIO()
    out.write(b"band\trank_lo\trank_hi\tword_types\tpairs\tmean_normalized\tmean_letters\n")
    for e in report.entries:
        band = e.band
        out.write(
            (
                f"{band.index}\t{band.rank_lo}\t{band.rank_hi}\t{band.word_types}\t"
                f"{e.pair_count}\t{_fmt(e.mean_normalized)}\t{_fmt(e.mean_trials)}\n"
            ).encode()
        )
    return out.getvalue()


def _halves_body(text) -> bytes:
    # split and counted from the words themselves, as the per-word halves were:
    # a midpoint inside a word moves to the word's nearer end, its end on a tie
    data = text.to_bytes()
    split = mid = len(data) // 2
    if data[mid - 1 : mid + 1].isalpha():
        start, end = data.rfind(b" ", 0, mid) + 1, data.find(b" ", mid)
        end = len(data) if end < 0 else end
        split = start if mid - start < end - mid else end
    first = Counter(w.decode() for w in data[:split].split())
    second = Counter(w.decode() for w in data[split:].split())
    totals = first + second
    out = io.BytesIO()
    out.write(b"word\tcount_first\tcount_second\tfreq_first\tfreq_second\trel_change\n")
    for w in sorted(totals, key=lambda w: (-totals[w], w))[:50]:
        f1, f2 = first[w] / first.total(), second[w] / second.total()
        rel = math.inf if f1 == 0 else (f2 - f1) / f1
        out.write(f"{w}\t{first[w]}\t{second[w]}\t{_fmt(f1)}\t{_fmt(f2)}\t{_fmt(rel)}\n".encode())
    return out.getvalue()


# argv, input text (None: the corpus file), reference body, and a cell the
# body must hold; a dominant word leaves empty bands with no pairs (nan),
# and words of the second half only have an infinite relative change
BODY_CASES = {
    "walk": (["walk", "-l", "a,e", "--average", "--fit", "10:1000"], None, _walk_body, None),
    "jsd-profile": (["jsd-profile", "-L", 5000], None, _profile_body, None),
    "zipf": (["zipf", "--top", 3], None, _zipf_body, None),
    "bands": (["bands"], None, _bands_body, None),
    "band-jsd": (["band-jsd", "-L", 10_000], None, lambda t: _band_jsd_body(t, 10_000), None),
    "band-jsd-nan": (
        ["band-jsd", "-L", 8],
        "the the the the the the a b c the the the the the the the d e f\n",
        lambda t: _band_jsd_body(t, 8),
        b"\t0\tnan\tnan\n",
    ),
    "halves": (["halves"], None, _halves_body, None),
    "halves-inf": (["halves"], "a b a b c d c d\n", _halves_body, b"\tinf\n"),
}


@pytest.mark.parametrize("case", BODY_CASES.values(), ids=BODY_CASES.keys())
def test_table_bodies_match_the_per_row_writers(tmp_path, corpus_file, case):
    argv, raw, reference, cell = case
    src = corpus_file
    if raw is not None:
        src = tmp_path / "small.txt"
        src.write_text(raw)
    out = tmp_path / "out.tsv"
    assert run(argv + ["--input", src, "--output", out]) == 0
    expected = reference(normalize(src.read_bytes()))
    data = out.read_bytes()
    assert data.endswith(expected)
    # all that precedes the body is '#' header lines
    assert all(line.startswith(b"#") for line in data[: -len(expected)].splitlines())
    if cell is not None:
        assert cell in expected


def _write_table_per_cell(out, names, *columns) -> None:
    # the writer that formatted cell by cell, kept as the reference
    out.write(("\t".join(names) + "\n").encode())
    for row in zip(*columns):
        cells = [_fmt(v) if isinstance(v, float) else str(v) for v in row]
        out.write(("\t".join(cells) + "\n").encode())


def _table_bytes(writer, names, columns) -> bytes:
    out = io.BytesIO()
    writer(out, names, *columns)
    return out.getvalue()


_SPECIAL_FLOATS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 1e300, 5e-324, 1.0, 1 / 3]


@given(
    st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)), max_size=60),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60),
    st.integers(1, 3),
)
def test_table_writer_matches_the_per_cell_writer(floats, ints, stride):
    rows = min(len(floats), len(ints))
    # strided slices of wider arrays read as non-contiguous columns
    f = np.repeat(np.array(floats[:rows], dtype=np.float64), stride)[::stride]
    i = np.repeat(np.array(ints[:rows], dtype=np.int64), stride)[::stride]
    words = tuple(f"w{j}" for j in range(rows))
    names = ("rank", "f", "i", "word", "generated", "contiguous")

    def columns():  # afresh for each writer, which consumes the generator
        generated = (float(x) for x in floats[:rows])
        return range(1, rows + 1), f, i, words, generated, np.ascontiguousarray(f)

    want = _table_bytes(_write_table_per_cell, names, columns())
    assert _table_bytes(cli._write_table, names, columns()) == want


def test_table_writer_special_values_and_an_empty_table():
    values = np.array(_SPECIAL_FLOATS)
    got = _table_bytes(cli._write_table, ("x", "n"), (values, np.arange(values.size)))
    assert got == _table_bytes(_write_table_per_cell, ("x", "n"), (values, range(values.size)))
    assert got.splitlines()[1:5] == [b"inf\t0", b"-inf\t1", b"nan\t2", b"-0\t3"]
    assert _table_bytes(cli._write_table, ("a", "b"), (np.empty(0), ())) == b"a\tb\n"


def test_every_cli_table_column_holds_one_cell_type(tmp_path, corpus_file, monkeypatch):
    # the table writer formats a whole column as its first cell, so every
    # column of every table the CLI writes must hold cells of one type
    tables = []

    def recording(out, names, *columns):
        columns = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
        tables.append((names, columns))
        real(out, names, *columns)

    real = cli._write_table
    monkeypatch.setattr(cli, "_write_table", recording)
    cases = [case[0] for case in BODY_CASES.values()] + [["zipf"], ["halves", "--top", 0]]
    for argv in cases:
        assert run(argv + ["--input", corpus_file, "--output", tmp_path / "out"]) == 0
    assert {names[0] for names, _ in tables} == {"k", "position", "rank", "band", "word"}
    for names, columns in tables:
        for name, column in zip(names, columns):
            if isinstance(column, np.ndarray):
                # read through a memoryview, as Python ints or floats
                assert column.dtype.kind in "iuf", f"column {name} of {names} is {column.dtype}"
            else:
                kinds = {type(v) for v in column}
                assert len(kinds) == 1, f"column {name} of {names} holds {kinds}"


# several runs in one process, as the benchmark's child makes them: each run
# must print what it prints alone in a fresh interpreter
REUSE_CASES = [
    ["walk", "-l", "a", "-l", "e,space", "--fit", "10:1000"],
    ["shuffle", "--mode", "window-permute", "--window", 30, "--seed", 3],
    ["halves", "--top", 5, "--ratio", "whale:sea", "--ratio", "ship:man"],
    ["walk", "-l", "e"],
    FAILING_WALK,
    ["shuffle", "--mode", "letter"],  # seeded from the environment
    ["halves", "--top", 5, "--ratio", "sea:man"],
    ["shuffle", "--mode", "letter", "--seed", 8],  # the flag beats the environment
    ["walk", "-l", "e"],
]


def test_repeated_main_calls_in_one_process_match_fresh_processes(
    tmp_path, corpus_file, monkeypatch
):
    monkeypatch.setenv(cli.SEED_ENV, "5")
    argvs = [
        [str(a) for a in argv] + ["--input", str(corpus_file), "--output", str(tmp_path / f"{i}")]
        for i, argv in enumerate(REUSE_CASES)
    ]
    codes = [main(argv) for argv in argvs]
    assert codes == [1 if argv == FAILING_WALK else 0 for argv in REUSE_CASES]
    script = (
        "import json, sys; from lettercorr.cli import main; "
        "sys.exit(main(json.loads(sys.argv[1])))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), cli.SEED_ENV: "5"}
    for i, (argv, code) in enumerate(zip(argvs, codes)):
        once = tmp_path / f"{i}.fresh"
        argv[-1] = str(once)
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)], env=env, capture_output=True
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert once.read_bytes() == (tmp_path / f"{i}").read_bytes()
        else:
            assert not once.exists() and not (tmp_path / f"{i}").exists()
    # the repeated append flags were not carried from one run to the next
    assert _replay_line(tmp_path / "6")[-2:] == ["--ratio", "sea:man"]
    assert _replay_line(tmp_path / "3") == [
        "walk", "--input", str(corpus_file), "--letter", "e", "--points-per-decade", "20",
    ]
