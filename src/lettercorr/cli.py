"""Command-line interface: text corpora in, plot-ready TSV out.

Every output starts with '#'-prefixed header lines recording the
resolved parameters, including a ``# replay:`` line that reproduces the
run; identical parameters and seed give byte-identical files. Sequence
outputs (normalize, shuffle, synth) carry the same header followed by
one ASCII byte per symbol; all subcommands skip leading '#' lines when
reading input, so outputs chain into further analyses.

Each ``cmd_*`` function validates its input, computes its result, stores
the values it resolved (seed, defaults, normalized spellings) back on
``args`` and returns its header parameters with a body writer. ``main``
alone derives the replay line from the parser, writes the header and the
body, and replaces a file output only when the whole run succeeded.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shlex
import sys
from contextlib import contextmanager
from itertools import chain
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from .divergence import jsd_profile
from .lexicon import (
    band_jsd,
    build_lexicon,
    check_segment_length,
    compare_halves,
    partition_bands,
    zipf_fit,
)
from .nullmodels import (
    letter_shuffle,
    two_regime_sequence,
    window_permute,
    window_shuffle,
    word_shuffle,
)
from .textnorm import (
    NormalizedText,
    decode_symbols,
    normalize,
    normalize_stream,
    symbol_code,
    symbol_name,
    tokenize,
)
from .walk import average_displacement, default_k_grid, displacement, fit_exponent, indicator

SEED_ENV = "LETTERCORR_SEED"

# the first two header lines; _load_text reads them to recognise our own
# sequence files, whose bodies are verbatim symbols
TITLE = "# lettercorr {}\n"
REPLAY = "# replay: "
SEQUENCE_COMMANDS = ("normalize", "shuffle", "synth")

Body = Callable[[IO[bytes]], object]


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _write_table(out: IO[bytes], names: Sequence[str], *columns: Iterable[object]) -> None:
    """Write a header row of ``names``, then one tab-separated row per
    position of the parallel ``columns``, one row at a time. Floats are
    formatted as by ``_fmt``, everything else as by ``str``; each column
    holds one cell type, so the first row's types set the format of all.
    Numeric arrays are read through a memoryview, whose cells are Python
    ints and floats, with no copy."""
    out.write(("\t".join(names) + "\n").encode())
    rows = zip(*[memoryview(c) if isinstance(c, np.ndarray) else c for c in columns])
    first = next(rows, None)
    if first is None:
        return
    row_format = "\t".join("%.12g" if isinstance(v, float) else "%s" for v in first) + "\n"
    for row in chain((first,), rows):
        out.write((row_format % row).encode())


@contextmanager
def _open_input(path: str):
    if path == "-":
        yield sys.stdin.buffer
        return
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with fh:
        yield fh


def _header_size(data: bytes) -> int:
    # leading '#' comment lines are tool metadata, not text
    end = 0
    while data.startswith(b"#", end):
        nl = data.find(b"\n", end)
        if nl < 0:
            return len(data)
        end = nl + 1
    return end


def _is_sequence_file(data: bytes) -> bool:
    for command in SEQUENCE_COMMANDS:
        title = TITLE.format(command).encode()
        if data.startswith(title):
            return data.startswith(REPLAY.encode(), len(title))
    return False


def _load_text(path: str) -> NormalizedText:
    with _open_input(path) as fh:
        data = fh.read()
    body = _header_size(data)
    if _is_sequence_file(data):
        # re-normalizing would collapse the repeated spaces surrogates may
        # contain; a bad byte is reported at its offset in the file
        return decode_symbols(data, start=body)
    return normalize(data[body:])


@contextmanager
def _open_output(path: str):
    """Yield the stream for the output at ``path`` ('-' is stdout).

    A regular file is written under a temporary name in its directory and
    renamed over ``path`` only when the block completes, so a failed run
    leaves an existing file untouched and creates none. Pipes and devices
    cannot be swapped for a new file and are written in place.
    """
    if not path:
        raise ValueError("cannot write '': empty path")
    if path == "-":
        yield sys.stdout.buffer
        sys.stdout.buffer.flush()
        return
    in_place = os.path.exists(path) and not os.path.isfile(path)
    real = os.path.realpath(path)  # replace a symlink's target, not the link
    target = path if in_place else f"{real}.{os.urandom(4).hex()}.tmp"
    try:
        # either mode creates with 0o666 & ~umask; "x" never clobbers a file
        fh = open(target, "wb" if in_place else "xb")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc
    try:
        with fh:
            yield fh
        if not in_place:
            os.replace(target, real)
    except BaseException:
        if not in_place:
            os.unlink(target)
        raise


def _write_header(out: IO[bytes], replay: list[str], params: dict[str, object]) -> None:
    out.write((TITLE.format(replay[0]) + REPLAY + shlex.join(replay) + "\n").encode())
    for key, val in params.items():
        out.write(f"# {key}: {val}\n".encode())


def _replay(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The command line that reproduces ``args``: the subcommand, then each
    of its flags in definition order with its resolved value."""
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    words = [args.command]
    for action in commands.choices[args.command]._actions:
        if action.dest in ("help", "output"):
            continue
        flag, value = action.option_strings[0], getattr(args, action.dest)
        if isinstance(action, argparse._StoreTrueAction):
            words += [flag] if value else []
        elif isinstance(action, argparse._AppendAction):
            for item in value or []:
                words += [flag, str(item)]
        elif value is not None:
            words += [flag, str(value)]
    return words


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    raise ValueError(f"--seed is required (or set {SEED_ENV})")


def _parse_fit(args: argparse.Namespace) -> tuple[int, int] | None:
    """The ``--fit MIN:MAX`` range, if given; its normalized spelling is
    stored back on ``args``."""
    if not args.fit:
        args.fit = None
        return None
    parts = args.fit.split(":")
    if len(parts) != 2:
        raise ValueError(f"--fit must look like MIN:MAX, got {args.fit!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"--fit must hold two integers, got {args.fit!r}") from None
    args.fit = f"{lo}:{hi}"
    return lo, hi


def _parse_letters(values: list[str]) -> list[int]:
    codes: list[int] = []
    for value in values:
        for item in value.split(","):
            item = item.strip()
            if item:
                codes.append(symbol_code(item))
    if not codes:
        raise ValueError("at least one letter is required")
    return codes


def _top_rows(args: argparse.Namespace, rows: int) -> int:
    """The number of rows ``--top`` asks for; 0 asks for all ``rows``."""
    if args.top < 0:
        raise ValueError(f"--top must not be negative, got {args.top}")
    return args.top or rows


def cmd_normalize(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    def body(out: IO[bytes]) -> None:
        with _open_input(args.input) as src:
            while src.peek(1).startswith(b"#"):  # the same header lines _header_size skips
                src.readline()
            normalize_stream(src, out, trim=args.trim)

    return {"input": args.input}, body


def cmd_walk(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    text = _load_text(args.input)
    if len(text) == 0:
        raise ValueError("empty text")
    letters = _parse_letters(args.letter)
    fit_range = _parse_fit(args)
    args.letter = [symbol_name(code) for code in letters]

    grid = default_k_grid(len(text), args.points_per_decade)
    names = list(args.letter)
    curves = [displacement(indicator(text, code), grid) for code in letters]
    if args.average:
        names.append("average")
        curves.append(average_displacement(curves))

    def body(out: IO[bytes]) -> None:
        for i, (name, curve) in enumerate(zip(names, curves)):
            if i:
                out.write(b"\n")
            out.write(f"# letter: {name}\n".encode())
            if fit_range:
                try:
                    fit = fit_exponent(curve, *fit_range)
                except ValueError as exc:
                    raise ValueError(f"letter {name}: {exc}") from None
                out.write(f"# alpha: {_fmt(fit.alpha)}\n".encode())
                out.write(f"# fit-range: {fit.k_min}:{fit.k_max}\n".encode())
                out.write(f"# rms-residual: {_fmt(fit.rms_residual)}\n".encode())
                if fit.excluded_zero:
                    out.write(f"# excluded-zero: {fit.excluded_zero}\n".encode())
            _write_table(out, ("k", "F"), curve.k, curve.f)

    return {"input": args.input, "n": len(text)}, body


def cmd_shuffle(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    args.seed = _resolve_seed(args)
    text = _load_text(args.input)
    mode = args.mode
    if mode in ("window-sample", "window-permute"):
        if args.window is None:
            raise ValueError(f"--window is required for mode {mode}")
        if mode == "window-sample":
            result = window_shuffle(text, args.window, args.seed)
        else:
            result = window_permute(text, args.window, args.seed)
    else:
        args.window = None  # the letter and word shuffles take no window
        if mode == "letter":
            result = letter_shuffle(text, args.seed)
        else:
            result = word_shuffle(text, args.seed)
    return {"n": len(result)}, lambda out: out.write(result.to_bytes())


def cmd_synth(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    args.seed = _resolve_seed(args)
    if args.burst_start is None:
        args.burst_start = max((args.length - args.burst_len) // 2, 0)
    seq = two_regime_sequence(
        length=args.length,
        base_p=args.base_p,
        burst_p=args.burst_p,
        burst_len=args.burst_len,
        burst_start=args.burst_start,
        seed=args.seed,
    )
    return {"n": len(seq)}, lambda out: out.write(seq.to_bytes())


def cmd_jsd_profile(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    text = _load_text(args.input)
    include_space = args.alphabet == "with-space"
    profile = jsd_profile(text, args.segment_length, args.step, include_space=include_space)
    args.step = profile.step

    params: dict[str, object] = {"input": args.input, "n": len(text)}
    if len(profile):
        peak = int(profile.normalized.argmax())
        params["max-normalized"] = (
            f"{_fmt(float(profile.normalized[peak]))} at position {int(profile.positions[peak])}"
        )

    def body(out: IO[bytes]) -> None:
        _write_table(
            out, ("position", "raw", "fluct", "normalized"),
            profile.positions, profile.raw, profile.fluct, profile.normalized,
        )

    return params, body


def cmd_zipf(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    text = _load_text(args.input)
    lex = build_lexicon(tokenize(text))
    fit_range = _parse_fit(args)

    params: dict[str, object] = {
        "input": args.input,
        "word-types": len(lex),
        "total-letters": lex.total_letters,
    }
    if fit_range:
        params["zipf-exponent"] = _fmt(zipf_fit(lex, *fit_range))
        params["fit-range"] = args.fit
    limit = _top_rows(args, len(lex))

    def body(out: IO[bytes]) -> None:
        _write_table(
            out, ("rank", "word", "count", "length", "letter_share"),
            range(1, limit + 1), lex.words[:limit], lex.counts[:limit], lex.lengths[:limit],
            lex.letter_shares[:limit],
        )

    return params, body


def cmd_bands(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    text = _load_text(args.input)
    lex = build_lexicon(tokenize(text))
    partition = partition_bands(lex, args.band_count, args.target_share)

    def body(out: IO[bytes]) -> None:
        names = ("band", "rank_lo", "rank_hi", "word_types", "letter_share")
        rows = [
            (b.index, b.rank_lo, b.rank_hi, b.word_types, b.letter_share) for b in partition.bands
        ]
        _write_table(out, names, *zip(*rows))

    return {
        "input": args.input,
        "word-types": len(lex),
        "degenerate": str(partition.degenerate).lower(),
    }, body


def cmd_band_jsd(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    text = _load_text(args.input)
    # a segment pair that cannot fit fails before the text is ranked
    check_segment_length(len(text), args.segment_length)
    lex = build_lexicon(tokenize(text))
    partition = partition_bands(lex, args.band_count, args.target_share)
    report = band_jsd(text, lex, partition, args.segment_length)

    def body(out: IO[bytes]) -> None:
        names = (
            "band", "rank_lo", "rank_hi", "word_types", "pairs", "mean_normalized", "mean_letters"
        )
        rows = [
            (e.band.index, e.band.rank_lo, e.band.rank_hi, e.band.word_types,
             e.pair_count, e.mean_normalized, e.mean_trials)
            for e in report.entries
        ]
        _write_table(out, names, *zip(*rows))

    return {"input": args.input, "n": len(text), "segment-length": report.segment_length}, body


def cmd_halves(args: argparse.Namespace) -> tuple[dict[str, object], Body]:
    text = _load_text(args.input)
    comp = compare_halves(text)
    ratios = []
    for spec in args.ratio or []:
        parts = spec.split(":")
        if len(parts) != 2 or not all(parts):
            raise ValueError(f"--ratio must look like WORD:WORD, got {spec!r}")
        # normalized text holds no other word, so any other would count as 0
        if not all(re.fullmatch("[a-z]+", word) for word in parts):
            raise ValueError(f"--ratio words must be lowercase letters a-z, got {spec!r}")
        ratios.append((parts[0], parts[1]))

    params: dict[str, object] = {
        "input": args.input,
        "split-at": comp.split_at,
        "first-tokens": comp.first_tokens,
        "second-tokens": comp.second_tokens,
    }
    for numer, denom in ratios:
        params[f"ratio {numer}/{denom}"] = (
            f"first={_fmt(comp.count_ratio(numer, denom, 1))} "
            f"second={_fmt(comp.count_ratio(numer, denom, 2))}"
        )
    limit = _top_rows(args, len(comp.words))
    freq_first, freq_second = comp.frequencies

    def body(out: IO[bytes]) -> None:
        _write_table(
            out, ("word", "count_first", "count_second", "freq_first", "freq_second", "rel_change"),
            comp.words[:limit], comp.first[:limit], comp.second[:limit], freq_first[:limit],
            freq_second[:limit], comp.relative_change[:limit],
        )

    return params, body


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lettercorr",
        description="Long-range letter correlation analysis for text corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            p.add_argument("--input", "-i", default="-", help="input text file ('-' for stdin)")
        p.add_argument("--output", "-o", default="-", help="output file ('-' for stdout)")

    p = sub.add_parser("normalize", help="convert raw text to the 27-symbol form")
    add_io(p)
    p.add_argument("--trim", action="store_true", help="drop the leading/trailing space")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("walk", help="displacement curve F(k) for letter indicators")
    add_io(p)
    p.add_argument(
        "--letter", "-l", action="append", required=True,
        help="letter 'a'..'z' or 'space'; repeat or comma-separate for several",
    )
    p.add_argument("--points-per-decade", type=int, default=20, help="k-grid density")
    p.add_argument("--fit", help="fit range MIN:MAX for the scaling exponent")
    p.add_argument("--average", action="store_true", help="append the mean over the letters")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("shuffle", help="surrogate sequences preserving chosen statistics")
    add_io(p)
    p.add_argument(
        "--mode", required=True,
        choices=["window-sample", "window-permute", "letter", "word"],
    )
    p.add_argument("--window", type=int, help="window size for the window modes")
    p.add_argument("--seed", type=int, help=f"RNG seed (default: ${SEED_ENV})")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("synth", help="two-regime Bernoulli sequence over {'a', space}")
    add_io(p, with_input=False)
    p.add_argument("--length", type=int, default=1_200_000)
    p.add_argument("--base-p", type=float, default=0.062)
    p.add_argument("--burst-p", type=float, default=0.1054)
    p.add_argument("--burst-len", type=int, default=6250)
    p.add_argument("--burst-start", type=int, help="default: centered")
    p.add_argument("--seed", type=int, help=f"RNG seed (default: ${SEED_ENV})")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("jsd-profile", help="divergence of adjacent segments along the text")
    add_io(p)
    p.add_argument("--segment-length", "-L", type=int, required=True)
    p.add_argument("--step", type=int, help="boundary increment (default: segment length / 10)")
    p.add_argument(
        "--alphabet", choices=["with-space", "letters-only"], default="with-space"
    )
    p.set_defaults(func=cmd_jsd_profile)

    p = sub.add_parser("zipf", help="rank-frequency table and Zipf exponent")
    add_io(p)
    p.add_argument("--top", type=int, default=0, help="rows to emit (0 = all)")
    p.add_argument("--fit", help="rank range MIN:MAX for the exponent fit")
    p.set_defaults(func=cmd_zipf)

    p = sub.add_parser("bands", help="partition the lexicon into letter-share bands")
    add_io(p)
    p.add_argument("--band-count", type=int, default=5)
    p.add_argument("--target-share", type=float, default=0.2)
    p.set_defaults(func=cmd_bands)

    p = sub.add_parser("band-jsd", help="mean normalized divergence per lexicon band")
    add_io(p)
    p.add_argument("--band-count", type=int, default=5)
    p.add_argument("--target-share", type=float, default=0.2)
    p.add_argument("--segment-length", "-L", type=int, default=100_000)
    p.set_defaults(func=cmd_band_jsd)

    p = sub.add_parser("halves", help="word frequencies in the first vs second half")
    add_io(p)
    p.add_argument("--top", type=int, default=50, help="rows to emit (0 = all)")
    p.add_argument(
        "--ratio", action="append",
        help="emit the count ratio of two words per half, e.g. the:a; repeatable",
    )
    p.set_defaults(func=cmd_halves)

    return parser


# parsing never changes the parser, so one serves every call of main
_shared_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    try:
        params, write_body = args.func(args)
        with _open_output(args.output) as out:
            _write_header(out, _replay(parser, args), params)
            write_body(out)
    except BrokenPipeError:
        # the reader went away (`| head`): exit quietly, and point stdout at
        # devnull so the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
