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

# tokens whose sort keys tokenize builds at a time
_TOKEN_BLOCK = 1 << 14
# longest word whose letters are its own sort key; longer words are
# numbered through a dict (the key holds at most 8 five-bit fields)
_KEY_LETTERS = 8
# the space in the codes + 1 that tokenize gathers its sort keys from
_SPACE_PLUS_ONE = bytes([SPACE + 1])
# _WORD_MASKS[n] keeps the first n bytes of a little-endian 8-byte gather
_WORD_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
# (shift, kept field, moved field) of the steps that pack fields 8 bits
# apart to 5, then pairs 16 apart to 10, then quads 32 apart to 20, so the
# letter in byte j lands at bit 5j
_FOLD_STEPS = tuple(
    (np.uint64(shift), np.uint64(keep), np.uint64(moved))
    for shift, keep, moved in (
        (3, 0x001F001F001F001F, 0x03E003E003E003E0),
        (6, 0x000003FF000003FF, 0x000FFC00000FFC00),
        (12, 0x00000000000FFFFF, 0x000000FFFFF00000),
    )
)


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
        codes = np.asarray(self.codes)
        if codes.ndim != 1:
            raise ValueError("symbol codes must form a one-dimensional sequence")
        # checked before the cast, which would wrap 256 to 0 and truncate 0.9 to 0
        if codes.size and codes.dtype.kind not in "biu":
            raise ValueError(f"symbol codes must be integers, not {codes.dtype}")
        if codes.size and (
            int(codes.max()) > SPACE or (codes.dtype.kind == "i" and int(codes.min()) < 0)
        ):
            raise ValueError(f"symbol codes must lie in 0..{SPACE}")
        object.__setattr__(self, "codes", np.ascontiguousarray(codes, dtype=np.uint8))

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
        lo = 1 if trim and not written and out[0] == _SPACE_BYTE else 0
        hi = out.size - len(pending)
        if hi > lo:
            dst.write(out[lo:hi].tobytes())
            written += hi - lo
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
    text; offsets refer to positions in ``text``. Type ids come from one
    in-place sort of 64-bit keys, each token's word key over its index
    (see :func:`_sorted_keys`): the sort puts each word's tokens together
    in token order, headed by its first occurrence, and numbering these
    runs by that occurrence, ``_TOKEN_BLOCK`` tokens at a time, gives the
    ids. Finding the runs takes one word per token besides the table and
    the keys. A text of more than 2^29 - 1 tokens raises ``ValueError``.
    """
    codes = text.codes
    edges = np.flatnonzero(np.diff(codes != SPACE, prepend=False, append=False))
    starts = edges[0::2].copy()
    lengths = edges[1::2] - starts
    del edges
    count = starts.size
    if not count:
        return Tokens(starts, lengths, np.empty(0, dtype=np.int64), ())
    keys, bits = _sorted_keys(codes, starts, lengths)
    index = np.uint64((1 << bits) - 1)
    head = np.empty(count, dtype=bool)
    head[0] = True
    np.greater(keys[1:] ^ keys[:-1], index, out=head[1:])  # the word bits differ
    firsts = (keys[head] & index).astype(np.int64)
    run_ids = np.empty(firsts.size, dtype=np.int64)
    run_ids[np.argsort(firsts)] = np.arange(firsts.size)
    types = np.empty(count, dtype=np.int64)
    runs = 0
    for a in range(0, count, _TOKEN_BLOCK):
        b = min(a + _TOKEN_BLOCK, count)
        run = np.cumsum(head[a:b])
        run += runs - 1
        types[(keys[a:b] & index).view(np.int64)] = run_ids[run]
        runs = int(run[-1]) + 1
    del keys, head
    firsts.sort()
    joined = _spelled(codes, starts[firsts], lengths[firsts]).translate(_CODE_TO_BYTE)
    return Tokens(starts, lengths, types, tuple(joined.decode("ascii").split(" ")))


def _spelled(symbols: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> bytes:
    """The words at ``starts`` of ``symbols``, in order, each but the last
    followed by the symbol after it, a space. The last word goes without,
    as a word that ends ``symbols`` has no symbol after it."""
    ends = np.cumsum(lengths + 1)
    # positions to read, as a running sum of steps: one, or a jump to the
    # next word's start
    at = np.ones(ends[-1], dtype=np.int64)
    at[0] = starts[0]
    at[ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1]
    np.cumsum(at, out=at)
    np.minimum(at, symbols.size - 1, out=at)
    return symbols[at[:-1]].tobytes()


def _sorted_keys(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, int]:
    """The tokens' sort keys, sorted, and the count of index bits under the word keys.

    A word of up to ``_KEY_LETTERS`` letters is its own key: an 8-byte
    gather at its start from the codes + 1, masked to its length, with the
    bytes folded into 5-bit fields. A longer word is numbered through a
    dict on its bytes, and its key is 31 in the top field over that id;
    letters are at most 26 there. The keys are built one block of
    ``_TOKEN_BLOCK`` tokens at a time, from the codes that block spans.
    """
    count = starts.size
    bits, fields, tag = _key_layout(count)
    letters = min(_KEY_LETTERS, fields)
    keys = np.empty(count, dtype=np.uint64)
    long_ids: dict[bytes, int] = {}
    for a in range(0, count, _TOKEN_BLOCK):
        b = min(a + _TOKEN_BLOCK, count)
        lo = starts[a]
        span = codes[lo : starts[b - 1] + lengths[b - 1]]
        offsets, sizes, key = starts[a:b] - lo, lengths[a:b], keys[a:b]
        # codes + 1 and 7 bytes of zero padding, read as 8 bytes at each offset
        padded = np.zeros(span.size + 7, dtype=np.uint8)
        np.add(span, 1, out=padded[: span.size])
        np.take(np.ndarray(span.size, "<u8", padded, strides=(1,)), offsets, out=key)
        key &= _WORD_MASKS[np.minimum(sizes, 8)]
        moved = np.empty_like(key)
        for step, keep, field in _FOLD_STEPS:
            np.right_shift(key, step, out=moved)
            moved &= field
            key &= keep
            key |= moved
        long = np.flatnonzero(sizes > letters)
        if long.size:
            words = _spelled(padded, offsets[long], sizes[long]).split(_SPACE_PLUS_ONE)
            # a word's id is the index of its first long token: any distinct
            # ids below the token count do, as the sort only groups them
            ids = map(long_ids.setdefault, words, (long + a).tolist())
            key[long] = np.uint64(tag) | np.fromiter(ids, np.uint64, long.size)
        key <<= np.uint64(bits)
        key |= np.arange(a, b, dtype=np.uint64)
    keys.sort()
    return keys, bits


def _key_layout(count: int) -> tuple[int, int, int]:
    """Index bits, word-key fields and long-word tag of the keys of ``count`` tokens.

    A key is a word key over ``count.bit_length()`` index bits in 64 bits,
    so it has room for ``(64 - bits) // 5`` five-bit fields, and a gather
    for at most 8. A numbered (long) word's key is the tag, 31 in the top
    field, over its id, a token index, so the index must stay below
    2^(5 (fields - 1)); that holds up to 2^29 - 1 tokens (29 index bits, 7
    fields), and no further.
    """
    bits = count.bit_length()
    fields = min(8, (64 - bits) // 5)
    if count > 1 << 5 * (fields - 1):
        raise ValueError(
            f"cannot tokenize {count} tokens: type ids fit in 64-bit sort keys "
            f"for at most {(1 << 29) - 1} tokens"
        )
    return bits, fields, 31 << 5 * (fields - 1)
