import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_integration import synthetic_novel

from lettercorr import (
    SPACE,
    NormalizedText,
    decode_symbols,
    normalize,
    normalize_stream,
    symbol_code,
    symbol_name,
    textnorm,
    tokenize,
)


def test_basic_sentence():
    assert normalize("Call me Ishmael.").render() == "call me ishmael "


def test_empty_input():
    assert normalize("").render() == ""
    assert len(normalize(b"")) == 0


def test_run_collapsing():
    assert normalize("A--b  C").render() == "a b c"


def test_leading_and_trailing_runs_become_single_spaces():
    assert normalize("...abc!!!").render() == " abc "


def test_trim_flag():
    assert normalize("...abc!!!", trim=True).render() == "abc"
    assert normalize("   ", trim=True).render() == ""


def test_ascii_only_lowercasing():
    # U+212A (kelvin sign) lowercases to 'k' in Unicode, but the alphabet
    # here is ASCII, so it must act as a separator instead
    assert normalize("aKb").render() == "a b"
    assert normalize("café").render() == "caf "


def test_undecodable_bytes_are_separators():
    assert normalize(b"ab\xff\xfecd").render() == "ab cd"


def test_symbol_code_round_trip():
    assert symbol_code("a") == 0
    assert symbol_code("z") == 25
    assert symbol_code("space") == SPACE
    assert symbol_code(" ") == SPACE
    assert symbol_name(symbol_code("q")) == "q"
    assert symbol_name(SPACE) == "space"
    with pytest.raises(ValueError):
        symbol_code("A")
    with pytest.raises(ValueError):
        symbol_code(27)


@given(st.binary(max_size=500))
def test_output_alphabet_and_collapse_rule(data):
    codes = normalize(data).codes
    if codes.size:
        assert int(codes.max()) <= SPACE
        spaces = codes == SPACE
        assert not np.any(spaces[1:] & spaces[:-1])


@given(st.binary(max_size=500))
def test_normalize_is_idempotent(data):
    once = normalize(data)
    assert normalize(once.render()) == once


def _words(tokens) -> list[str]:
    return [tokens.vocab[i] for i in tokens.types]


def _regex_tokens(text: NormalizedText) -> list[tuple[str, int, int]]:
    """The tokenizer the token table replaced: one regex match per word."""
    return [
        (m.group().decode("ascii"), m.start(), m.end() - m.start())
        for m in re.finditer(rb"[a-z]+", text.to_bytes())
    ]


# surrogate-like texts: few letters, so words repeat, and runs of spaces;
# y and z (codes + 1 of 25 and 26) set the high bit of their 5-bit fields
surrogates = st.lists(st.sampled_from("abyz   "), max_size=300).map(
    lambda s: decode_symbols("".join(s).encode())
)


@given(st.text(max_size=300))
def test_tokens_reassemble_the_trimmed_text(s):
    text = normalize(s)
    tokens = tokenize(text)
    assert np.all(tokens.lengths >= 1)
    assert [len(w) for w in _words(tokens)] == tokens.lengths.tolist()
    starts = tokens.starts.tolist()
    assert starts == sorted(starts) and len(set(starts)) == len(starts)
    assert " ".join(_words(tokens)) == text.render().strip(" ")


def _assert_regex_table(tokens, text: NormalizedText) -> None:
    assert len(tokens) == len(_regex_tokens(text))
    assert list(zip(_words(tokens), tokens.starts.tolist(), tokens.lengths.tolist())) == (
        _regex_tokens(text)
    )
    assert list(tokens.vocab) == list(dict.fromkeys(_words(tokens)))
    for column in (tokens.starts, tokens.lengths, tokens.types):
        assert column.dtype == np.int64 and column.flags.c_contiguous


@given(
    surrogates.flatmap(
        lambda t: st.tuples(st.just(t), st.integers(1, len(t) + 1), st.integers(1, 8))
    )
)
@example((decode_symbols(b""), 1, 8))
@example((decode_symbols(b"     "), 1, 8))
@example((decode_symbols(b"  ab  c ab   a  "), 2, 8))
@example((decode_symbols(b"aaaaaaaab aaaaaaaac aaaaaaaab aaaaaaaa aaaaaaaz aaaaaaa"), 2, 8))
@example((decode_symbols(b"zy " + b"yz" * 500 + b" zy"), 1, 8))
@example((decode_symbols(b"abcdefghi zyxwvutsrqp abcdefghi zyxwvutsrq "), 3, 8))
def test_tokenize_matches_the_regex_tokenizer(case):
    # any block of tokens, from one to more than the text holds, and any
    # key length, from one letter to eight, give the table of one pass over
    # all words: with no words, with space runs, with words that share
    # their first eight or seven letters, with a 1,000-letter word and
    # with every word longer than its key
    text, block, letters = case
    with (
        mock.patch.object(textnorm, "_TOKEN_BLOCK", block),
        mock.patch.object(textnorm, "_KEY_LETTERS", letters),
    ):
        tokens = tokenize(text)
    _assert_regex_table(tokens, text)


def test_tokenize_matches_the_regex_tokenizer_on_the_novel():
    # 219,840 tokens: 18 index bits under each word key and 14 blocks,
    # sizes that no drawn text reaches
    text = synthetic_novel()
    _assert_regex_table(tokenize(text), text)


@pytest.mark.parametrize(
    "count, bits, fields",
    [((1 << 24) - 1, 24, 8), (1 << 24, 25, 7), ((1 << 29) - 1, 29, 7)],
)
def test_sort_keys_of_the_largest_texts_fit_64_bits(count, bits, fields):
    tag = 31 << 5 * (fields - 1)
    assert textnorm._key_layout(count) == (bits, fields, tag)
    # every short word key (letters 1..26 in each field) stays below the
    # tag, and the tag over the last id, over the last index, fits 64 bits
    assert int("11010" * fields, 2) < tag
    assert count - 1 < 1 << 5 * (fields - 1)
    assert ((tag | (count - 1)) << bits | (count - 1)) < 1 << 64


def test_sort_keys_refuse_more_tokens_than_they_number():
    with pytest.raises(ValueError, match=f"cannot tokenize {1 << 29} tokens"):
        textnorm._key_layout(1 << 29)


def test_tokenize_memory_is_the_table_and_one_block_of_words():
    # on the novel, one token per 5.25 symbols, the peak is the numbering
    # of the sorted runs: the table's three columns, the sorted keys, one
    # head flag a token and one block's temporaries, 6.7 bytes a symbol
    # (the edge pass before it, 6.1); one bytes object per word took 13.7
    text = synthetic_novel()
    n = len(text)
    tracemalloc.start()
    try:
        tokenize(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n, f"{peak / n:.2f} bytes per symbol"


def test_tokenize_examples():
    tokens = tokenize(normalize("call me ishmael."))
    assert list(zip(_words(tokens), tokens.starts.tolist(), tokens.lengths.tolist())) == [
        ("call", 0, 4),
        ("me", 5, 2),
        ("ishmael", 8, 7),
    ]
    assert len(tokenize(normalize(" "))) == 0
    assert _words(tokenize(normalize(" "))) == []
    a_a_a = tokenize(normalize("a a a"))
    assert _words(a_a_a) == ["a", "a", "a"]
    assert a_a_a.vocab == ("a",) and a_a_a.types.tolist() == [0, 0, 0]


# mostly separators, so chunk boundaries fall inside space runs and some
# chunks hold nothing but spaces
space_heavy = st.lists(st.sampled_from(b"ab  ,Z\xc3"), max_size=300).map(bytes)


@given(st.one_of(st.binary(max_size=2000), space_heavy), st.integers(min_value=1, max_value=64))
def test_stream_matches_in_memory(data, chunk_size):
    out = io.BytesIO()
    count = normalize_stream(io.BytesIO(data), out, chunk_size=chunk_size)
    expected = normalize(data)
    assert out.getvalue() == expected.to_bytes()
    assert count == len(expected)


@given(st.one_of(st.binary(max_size=800), space_heavy), st.integers(min_value=1, max_value=64))
def test_stream_trim_matches_in_memory(data, chunk_size):
    out = io.BytesIO()
    count = normalize_stream(io.BytesIO(data), out, chunk_size=chunk_size, trim=True)
    expected = normalize(data, trim=True)
    assert out.getvalue() == expected.to_bytes()
    assert count == len(expected)


class _FailingReader:
    def __init__(self, first: bytes):
        self._first = first
        self._calls = 0

    def read(self, size: int) -> bytes:
        self._calls += 1
        if self._calls == 1:
            return self._first
        raise OSError("device gone")


def test_stream_read_error_reports_byte_offset():
    with pytest.raises(OSError, match="byte offset 8"):
        normalize_stream(_FailingReader(b"abc def "), io.BytesIO())


def test_decode_symbols_round_trips_repeated_spaces():
    codes = np.array([0, SPACE, SPACE, 1, SPACE], dtype=np.uint8)
    text = NormalizedText(codes)
    assert decode_symbols(text.to_bytes()) == text
    with pytest.raises(ValueError, match="invalid symbol byte 0x41 at offset 2"):
        decode_symbols(b"abA z")
    assert decode_symbols(b"# x\nab z", start=4) == decode_symbols(b"ab z")
    with pytest.raises(ValueError, match="invalid symbol byte 0x41 at offset 6"):
        decode_symbols(b"# x\nabA z", start=4)


# The byte maps the bytes.translate tables replaced, kept as references:
# fancy-index gathers through 256-entry code arrays.
_GATHER_CODE = np.full(256, SPACE, dtype=np.uint8)
_GATHER_CODE[ord("a") : ord("z") + 1] = np.arange(26)
_GATHER_CODE[ord("A") : ord("Z") + 1] = np.arange(26)
_GATHER_BYTE = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz ", dtype=np.uint8)


def _normalize_by_gather(data: bytes) -> np.ndarray:
    codes = _GATHER_CODE[np.frombuffer(data, dtype=np.uint8)]
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = ~((codes[1:] == SPACE) & (codes[:-1] == SPACE))
    return codes[keep]


def _decode_by_gather(data: bytes, start: int) -> np.ndarray | str:
    """The codes, or the error message of the first invalid byte."""
    buf = np.frombuffer(data, dtype=np.uint8)[start:]
    valid = ((buf >= ord("a")) & (buf <= ord("z"))) | (buf == ord(" "))
    if not np.all(valid):
        offset = int(np.argmin(valid))
        return (
            f"invalid symbol byte 0x{buf[offset]:02x} at offset {start + offset} "
            "(expected 'a'..'z' or ' ')"
        )
    return _GATHER_CODE[buf]


@given(st.binary(max_size=600))
def test_normalize_matches_the_byte_gather(data):
    assert np.array_equal(normalize(data).codes, _normalize_by_gather(data))


@given(st.binary(max_size=600), st.data())
def test_decode_symbols_matches_the_byte_gather(data, draw):
    # arbitrary bytes (mostly invalid), and valid symbols with one byte of
    # any value planted at any offset after the start
    symbols = draw.draw(st.lists(st.sampled_from(b"abcdefghijklmnopqrstuvwxyz "), max_size=300))
    planted = bytearray(symbols)
    if planted:
        planted[draw.draw(st.integers(0, len(planted) - 1))] = draw.draw(st.integers(0, 255))
    for buf in (data, bytes(symbols), bytes(planted)):
        start = draw.draw(st.integers(0, len(buf)))
        want = _decode_by_gather(buf, start)
        if isinstance(want, str):
            with pytest.raises(ValueError) as info:
                decode_symbols(buf, start=start)
            assert str(info.value) == want
        else:
            assert np.array_equal(decode_symbols(buf, start=start).codes, want)


_HEADER = b"# lettercorr shuffle\n# replay: shuffle --seed 1\n"


@pytest.mark.parametrize(
    "data, start, bad, offset",
    [
        (b"Xab z", 0, 0x58, 0),  # first
        (b"ab z.", 0, 0x2E, 4),  # last
        (_HEADER + b"\tab", len(_HEADER), 0x09, len(_HEADER)),  # just after a header
        (_HEADER + b"ab zQ", len(_HEADER), 0x51, len(_HEADER) + 4),  # uppercase
        ("ab \u00e9 z".encode(), 0, 0xC3, 3),  # the first byte of a multibyte character
        (b"abc\xff", 0, 0xFF, 3),
        (b"abc\x80", 1, 0x80, 3),
    ],
)
def test_decode_symbols_reports_the_first_bad_byte_at_its_offset(data, start, bad, offset):
    message = f"invalid symbol byte 0x{bad:02x} at offset {offset} (expected 'a'..'z' or ' ')"
    assert _decode_by_gather(data, start) == message
    with pytest.raises(ValueError) as info:
        decode_symbols(data, start=start)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "codes, message",
    [
        ([[0, 1]], "one-dimensional"),
        # checked as given, not after a cast to uint8
        ([256, 1, 26], "must lie in 0..26"),
        ([-230], "must lie in 0..26"),
        ([0.9, 1.7], "must be integers, not float64"),
    ],
)
def test_normalized_text_rejects_codes_outside_the_alphabet(codes, message):
    with pytest.raises(ValueError, match=message):
        NormalizedText(np.array(codes))


@given(st.lists(st.integers(0, SPACE), max_size=500))
def test_to_bytes_matches_the_code_gather(codes):
    text = NormalizedText(np.array(codes, dtype=np.uint8))
    assert text.to_bytes() == _GATHER_BYTE[text.codes].tobytes()


def test_trimmed_strips_spaces_only_at_ends():
    t = normalize(".a b.")
    assert t.render() == " a b "
    assert t.trimmed().render() == "a b"
