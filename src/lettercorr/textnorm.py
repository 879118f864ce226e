"""Canonical 27-symbol text representation and tokenization.

All analyses in this package run over sequences drawn from the alphabet
'a'..'z' plus the space symbol. This module converts raw text into that
form and splits it into words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

SPACE = 26
ALPHABET = "abcdefghijklmnopqrstuvwxyz "
ALPHABET_SIZE = 27

# bytes.translate tables, indexed by byte value. _BYTE_TO_CODE: ASCII
# letters fold case, everything else (including every byte of a multibyte
# character) becomes the space code. _SYMBOL_TO_CODE: 'a'..'z' and ' '
# only, every other byte becomes 255. _CODE_TO_BYTE: codes 0..26 to
# their ASCII bytes.
_BYTE_TO_CODE = bytes(
    ALPHABET.index(chr(c).lower()) if chr(c).isascii() and chr(c).isalpha() else SPACE
    for c in range(256)
)
_SYMBOL_TO_CODE = bytes(ALPHABET.index(chr(c)) if chr(c) in ALPHABET else 255 for c in range(256))
_CODE_TO_BYTE = ALPHABET.encode("ascii").ljust(256, b" ")

# byte-level table for the streaming path: fold A-Z, pass a-z, rest -> space
_STREAM_TABLE = _BYTE_TO_CODE.translate(_CODE_TO_BYTE)
_SPACE_BYTE = ord(" ")


def symbol_code(letter: int | str) -> int:
    """Map a letter ('a'..'z'), ' ', 'space', or a raw code to a symbol code."""
    if isinstance(letter, str):
        if letter in (" ", "space"):
            return SPACE
        if len(letter) == 1 and "a" <= letter <= "z":
            return ord(letter) - ord("a")
        raise ValueError(f"unknown symbol {letter!r} (expected 'a'..'z' or 'space')")
    code = int(letter)
    if not 0 <= code <= SPACE:
        raise ValueError(f"symbol code {code} outside 0..{SPACE}")
    return code


def symbol_name(code: int) -> str:
    """Inverse of symbol_code, rendering the space code as 'space'."""
    if code == SPACE:
        return "space"
    if 0 <= code < 26:
        return ALPHABET[code]
    raise ValueError(f"symbol code {code} outside 0..{SPACE}")


@dataclass(frozen=True, eq=False)
class NormalizedText:
    """Sequence over the 27-symbol alphabet, one uint8 code per symbol.

    Codes 0..25 are 'a'..'z', 26 is the space symbol. Output of
    :func:`normalize` never contains two consecutive spaces; surrogate
    sequences from the null-model generators may.
    """

    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        if codes.ndim != 1:
            raise ValueError("symbol codes must form a one-dimensional sequence")
        if codes.size and int(codes.max()) > SPACE:
            raise ValueError(f"symbol codes must lie in 0..{SPACE}")
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return self.codes.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormalizedText):
            return NotImplemented
        return np.array_equal(self.codes, other.codes)

    def to_bytes(self) -> bytes:
        """One ASCII byte per symbol."""
        return self.codes.tobytes().translate(_CODE_TO_BYTE)

    def render(self) -> str:
        return self.to_bytes().decode("ascii")

    def trimmed(self) -> "NormalizedText":
        """Copy without leading/trailing spaces."""
        keep = np.flatnonzero(self.codes != SPACE)
        if keep.size == 0:
            return NormalizedText(np.empty(0, dtype=np.uint8))
        return NormalizedText(self.codes[keep[0] : keep[-1] + 1])


@dataclass(frozen=True, eq=False)
class Tokens:
    """The words of a normalized text as a table, one row per token.

    Token i spans ``starts[i] : starts[i] + lengths[i]`` of the text and
    spells ``vocab[types[i]]``, the distinct words by first occurrence.
    """

    starts: np.ndarray  # int64
    lengths: np.ndarray  # int64
    types: np.ndarray  # int64 index into vocab
    vocab: tuple[str, ...]

    def __len__(self) -> int:
        return self.starts.size


def _collapse_spaces(symbols: np.ndarray, space: int) -> np.ndarray:
    """Drop every space whose predecessor is also a space."""
    is_space = symbols == space
    keep = np.ones(symbols.size, dtype=bool)
    keep[1:] = ~(is_space[1:] & is_space[:-1])
    return symbols[keep]


def normalize(raw: str | bytes, *, trim: bool = False) -> NormalizedText:
    """Convert raw text to the canonical 27-symbol sequence.

    ASCII letters are lowercased and every maximal run of other characters
    is replaced by exactly one space, so leading and trailing runs also
    leave a single space unless ``trim`` is set. Lowercasing is ASCII-only:
    accented or otherwise non-ASCII letters count as non-alphabetic. Bytes
    that do not decode are treated the same way.
    """
    if isinstance(raw, str):
        data = raw.encode("utf-8", errors="replace")
    else:
        data = bytes(raw)
    codes = np.frombuffer(data.translate(_BYTE_TO_CODE), dtype=np.uint8)
    text = NormalizedText(_collapse_spaces(codes, SPACE))
    return text.trimmed() if trim else text


def normalize_stream(
    src: BinaryIO,
    dst: BinaryIO,
    *,
    chunk_size: int = 1 << 20,
    trim: bool = False,
) -> int:
    """Normalize a byte stream into ``dst`` using bounded memory.

    Writes one ASCII byte per output symbol and returns the symbol count.
    Equivalent to :func:`normalize` on the whole input, but never holds
    more than a few chunks in memory.
    """
    written = 0
    offset = 0
    pending = b""  # a held-back trailing space, written once letters follow
    started = False  # symbols written so far (trim drops the leading space)
    while True:
        try:
            chunk = src.read(chunk_size)
        except OSError as exc:
            raise OSError(f"read failed at byte offset {offset}: {exc}") from exc
        if not chunk:
            break
        offset += len(chunk)
        # the held space leads this chunk, so runs spanning chunks collapse
        symbols = np.frombuffer(pending + chunk.translate(_STREAM_TABLE), dtype=np.uint8)
        out = _collapse_spaces(symbols, _SPACE_BYTE)
        pending = b" " if out[-1] == _SPACE_BYTE else b""
        lo = 1 if trim and not started and out[0] == _SPACE_BYTE else 0
        hi = out.size - len(pending)
        if hi > lo:
            dst.write(out[lo:hi].tobytes())
            written += hi - lo
            started = True
    if pending and not trim:
        dst.write(pending)
        written += 1
    return written


def decode_symbols(data: bytes, *, start: int = 0) -> NormalizedText:
    """Strict inverse of ``NormalizedText.to_bytes``, applied to ``data[start:]``.

    Unlike :func:`normalize` this performs no case folding and no space
    collapsing, so surrogate sequences with repeated spaces survive a
    round trip through a file. Bytes outside 'a'..'z' and ' ' are an
    error, reported at their offset in ``data``.
    """
    codes = np.frombuffer(bytes(data).translate(_SYMBOL_TO_CODE), dtype=np.uint8, offset=start)
    if codes.size and codes.max() > SPACE:
        offset = start + int(np.argmax(codes > SPACE))
        raise ValueError(
            f"invalid symbol byte 0x{data[offset]:02x} at offset {offset} "
            "(expected 'a'..'z' or ' ')"
        )
    return NormalizedText(codes)


def tokenize(text: NormalizedText) -> Tokens:
    """Split normalized text into its words, the maximal runs of letters.

    Joining the words with single spaces reproduces the space-trimmed
    text; offsets refer to positions in ``text``.
    """
    edges = np.flatnonzero(np.diff(text.codes != SPACE, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    ids: dict[bytes, int] = {}
    types = np.fromiter((ids.setdefault(w, len(ids)) for w in text.to_bytes().split()), np.int64)
    return Tokens(starts, ends - starts, types, tuple(w.decode("ascii") for w in ids))
