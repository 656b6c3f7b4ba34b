"""Shared text plumbing: file I/O, normalization, tokenization and the stopword list.

Every text file read or written opens through :func:`open_input`/:func:`open_output`.

The stopword list is part of the package's external interface: it ships as a
plain-text data file, one word per line, and its SHA-256 digest is recorded in
index sidecar files so that two indexes are only comparable when they were
built with the same list. The ``SEKNOW_STOPWORDS`` environment variable may
point to an alternative file; the list in effect is read once per path and
serves tokenizing, index building and every recorded digest alike.
"""

from __future__ import annotations

import hashlib
import os
import re
from collections.abc import Iterator
from contextlib import contextmanager
from functools import lru_cache
from importlib import resources
from itertools import filterfalse
from typing import TextIO

from .errors import ConfigError, LoadError

STOPWORDS_ENV_VAR = "SEKNOW_STOPWORDS"

# Maximal alphanumeric runs of two or more characters.
_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")


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
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc


def normalize(text: str) -> str:
    """Lowercase, trim, and collapse internal whitespace runs to one space."""
    return " ".join(text.lower().split())


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
        raise ConfigError(f"{STOPWORDS_ENV_VAR}: {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{STOPWORDS_ENV_VAR}: {path}: {exc}") from exc
    return frozenset(normalize(w) for w in words), hashlib.sha256(raw).hexdigest()


def load_stopwords() -> frozenset[str]:
    """The stopword set in effect: the environment's file, else the packaged list."""
    return _read_stopwords(stopwords_file())[0]


def stopwords_digest() -> str:
    """SHA-256 hex digest of the stopword file in effect."""
    return _read_stopwords(stopwords_file())[1]


def tokenize(text: str, stopwords: frozenset[str]) -> list[str]:
    """Split ``text`` into lowercase alphanumeric tokens.

    Punctuation is dropped, ``stopwords`` (the list in effect, from
    :func:`load_stopwords`) and tokens shorter than two characters are removed,
    and duplicates are kept (the result is a token stream, not a vocabulary).
    """
    return list(filterfalse(stopwords.__contains__, _TOKEN_RE.findall(text.lower())))


def sha256_file(path: str) -> str:
    """SHA-256 hex digest of a file's raw bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
