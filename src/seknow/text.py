"""Shared text plumbing: file I/O, normalization, tokenization, the stopword list and
the bit-parallel LCS kernel.

Every text file read or written opens through :func:`open_input`/:func:`open_output`.

A token is a maximal run of ASCII ``a-z0-9`` in the lowercased text, at least two
characters long and not a stopword. :func:`tokenize` finds the runs in byte-level
passes: the lowercased text is encoded as UTF-8, where every other character,
surrogates included, becomes bytes outside ``a-z0-9``, and each such byte becomes a
space.

The stopword list is part of the package's external interface: it ships as a
plain-text data file, one word per line, and its SHA-256 digest is recorded in
index sidecar files so that two indexes are only comparable when they were
built with the same list. The ``SEKNOW_STOPWORDS`` environment variable may
point to an alternative file; the list in effect is read once per path and
serves tokenizing, index building and every recorded digest alike.

The LCS kernel is bit-vector LCS (Allison & Dix 1986; Crochemore, Iliopoulos,
Pinzon & Reid 2001) over a set of keys at once (Hyyrö 2004; Hyyrö, Fredriksson
& Navarro 2005). :func:`pack_keys` lays the keys end to end in one Python int,
with a zero guard bit after each; :func:`packed_lcs` makes one pass over a
query and gives every key's LCS length with it. The knowledge base and the
topic index keep the packs of their match keys, built on first use.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from functools import lru_cache
from importlib import resources
from itertools import filterfalse
from typing import TextIO

from .errors import ConfigError, LoadError, shown_path

STOPWORDS_ENV_VAR = "SEKNOW_STOPWORDS"

# Every byte but ASCII a-z and 0-9 maps to a space.
_SEPARATE = bytes(b if 0x61 <= b <= 0x7A or 0x30 <= b <= 0x39 else 0x20 for b in range(256))
_ONE_CHAR = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")

# (symbol -> its bits over the packed keys, every key bit, (offset, ones of the key's
# length) per key in order)
KeyPack = tuple[dict, int, tuple[tuple[int, int], ...]]


@contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text; failing to open, read or decode it is a LoadError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise LoadError(exc.strerror or str(exc), file=path) from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"not UTF-8 text: {exc.reason}", file=path) from exc


@contextmanager
def open_output(path: str) -> Iterator[TextIO]:
    """Open ``path`` for writing as UTF-8 text; failing to write it is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"{shown_path(path)}: {exc.strerror or exc}") from exc


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return " ".join(text.lower().split())


def is_one_field(text: str) -> bool:
    """Whether ``text`` is nonblank and holds no tab and no line break, where a line
    break is any boundary :meth:`str.splitlines` splits at: it fits one field of a
    tab-separated line."""
    return bool(text.strip()) and "\t" not in text and text.splitlines() == [text]


def stopwords_file() -> str | None:
    """Path of the stopword file named by the environment, if any."""
    return os.environ.get(STOPWORDS_ENV_VAR) or None


@lru_cache(maxsize=4)
def _read_stopwords(path: str | None) -> tuple[frozenset[str], str]:
    """Word set and SHA-256 of the file at ``path``, or of the packaged list."""
    try:
        if path is None:
            raw = resources.files("seknow.data").joinpath("stopwords.txt").read_bytes()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
        words = raw.decode("utf-8").split()
    except OSError as exc:
        raise ConfigError(f"{STOPWORDS_ENV_VAR}: {shown_path(path)}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{STOPWORDS_ENV_VAR}: {shown_path(path)}: {exc}") from exc
    return frozenset(normalize(w) for w in words), hashlib.sha256(raw).hexdigest()


def load_stopwords() -> frozenset[str]:
    """The stopword set in effect: the environment's file, else the packaged list."""
    return _read_stopwords(stopwords_file())[0]


def stopwords_digest() -> str:
    """SHA-256 hex digest of the stopword file in effect."""
    return _read_stopwords(stopwords_file())[1]


def tokenize(text: str, stopwords: frozenset[str]) -> list[str]:
    """Split ``text`` into its tokens, in order, duplicates kept (a token stream, not a
    vocabulary); ``stopwords`` is the list in effect, from :func:`load_stopwords`.

    A lone surrogate, as ``surrogateescape`` decodes an undecodable input byte to,
    separates tokens like any other character outside ``a-z0-9``.
    """
    runs = text.lower().encode("utf-8", "surrogatepass").translate(_SEPARATE).decode("ascii")
    return list(filterfalse(stopwords.__contains__,
                            filterfalse(_ONE_CHAR.__contains__, runs.split())))


def sha256_file(path: str) -> str:
    """SHA-256 hex digest of a file's raw bytes, read undecoded through :func:`open_input`,
    so that failing to open or read it is the same LoadError."""
    digest = hashlib.sha256()
    with open_input(path) as fh:
        for chunk in iter(lambda: fh.buffer.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def pack_keys(keys: Iterable[Sequence]) -> KeyPack:
    """Strings or token sequences laid end to end for :func:`packed_lcs`: key ``k``'s
    symbol ``i`` is bit ``offset_k + i``, and the bit after each key is its guard."""
    masks: dict = {}
    spans = []
    offset = 0
    for key in keys:
        for bit, x in enumerate(key, offset):
            masks[x] = masks.get(x, 0) | 1 << bit
        spans.append((offset, (1 << len(key)) - 1))
        offset += len(key) + 1
    return masks, sum(ones << offset for offset, ones in spans), tuple(spans)


def packed_lcs(pack: KeyPack, query: Sequence) -> list[int]:
    """Longest-common-subsequence length of ``query`` and each packed key, in key order.

    One pass over ``query`` updates the row vector ``v`` of every key at once;
    a key's cleared bits count its LCS. ``v - u`` never borrows, since ``u``
    is a subset of ``v``; the carry out of a key's ``v + u`` stops in its
    guard bit, which ``& full`` clears before the next symbol.
    """
    masks, full, spans = pack
    v = full
    for m in map(masks.get, query):
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    v ^= full
    return [(v >> offset & ones).bit_count() for offset, ones in spans]
