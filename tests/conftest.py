"""Shared fixtures: optional real novels for the corpus-level checks.

The corpus files are not distributed with the package. Download the
plain-text Project Gutenberg ebooks and place them as::

    corpora/moby_dick.txt           (ebook #2701)
    corpora/david_copperfield.txt   (ebook #766)

or point LETTERCORR_CORPORA at a directory holding those filenames.
Tests that need a missing corpus are skipped, not failed.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from lettercorr import NormalizedText, normalize

# no per-example deadline: the reference loops the properties compare
# against are slow, and on a shared host their speed drifts by a third or
# more from one minute to the next, so any deadline would flake
settings.register_profile("lettercorr", deadline=None)
settings.load_profile("lettercorr")

CORPORA_ENV = "LETTERCORR_CORPORA"

_CORPUS_FILES = {
    "moby": ("moby_dick.txt", "Project Gutenberg ebook #2701"),
    "david": ("david_copperfield.txt", "Project Gutenberg ebook #766"),
}


def _corpora_dirs() -> list[Path]:
    dirs = []
    env = os.environ.get(CORPORA_ENV)
    if env:
        dirs.append(Path(env))
    dirs.append(Path(__file__).resolve().parent.parent / "corpora")
    return dirs


def _strip_gutenberg_boilerplate(data: bytes) -> bytes:
    # keep only the body between the *** START/END *** markers when present
    for marker in (b"*** START OF", b"***START OF"):
        pos = data.find(marker)
        if pos != -1:
            nl = data.find(b"\n", pos)
            if nl != -1:
                data = data[nl + 1 :]
            break
    for marker in (b"*** END OF", b"***END OF"):
        pos = data.find(marker)
        if pos != -1:
            data = data[:pos]
            break
    return data


def load_corpus(key: str) -> NormalizedText:
    name, hint = _CORPUS_FILES[key]
    for directory in _corpora_dirs():
        path = directory / name
        if path.is_file():
            return normalize(_strip_gutenberg_boilerplate(path.read_bytes()))
    pytest.skip(
        f"corpus {name} not available; download {hint} as plain text into "
        f"./corpora/ or ${CORPORA_ENV} (see README)"
    )


@pytest.fixture(scope="session")
def moby_text() -> NormalizedText:
    return load_corpus("moby")


@pytest.fixture(scope="session")
def david_text() -> NormalizedText:
    return load_corpus("david")
