"""Single-pass keyword-pair emission.

For each document, every unordered keyword pair is emitted once in
canonical (sorted) order, plus the self pair ``(u, u)`` for every
keyword — exactly the scheme of Section 3, where the multiplicity of
``(u, v)`` in the emitted stream equals ``A(u, v)`` and that of
``(u, u)`` equals ``A(u)``.

Keywords may be raw strings or interned integer ids (see
:mod:`repro.vocab`); id records are smaller on disk, which is why
the production pipeline interns before emitting.  The pipeline
counts the pair stream in memory; :func:`write_pair_file` persists
it so benchmarks can measure the pair-file sizes of Table 1.  Pair
files are **versioned**: the first line stamps the format and the
record kind (``str``/``id``), so a reader can never silently
mis-parse records of the other kind.
"""

from __future__ import annotations

import os
from itertools import combinations
from typing import FrozenSet, Hashable, Iterable, Iterator, List, Tuple

Token = Hashable
Pair = Tuple[Token, Token]

# Pair-file header: "<magic>\t<version>\t<kind>".  Bump the version on
# any record-layout change; readers reject what they do not know.
PAIR_FILE_MAGIC = "#repro-pairs"
PAIR_FILE_VERSION = 1
PAIR_KINDS = ("str", "id")

# Lines buffered per writelines() call.  One write syscall per pair
# dominates the emission cost on big intervals; one per chunk doesn't.
_WRITE_CHUNK_LINES = 8192


def emit_pairs(keyword_sets: Iterable[FrozenSet[Token]]
               ) -> Iterator[Pair]:
    """Yield all (self and cross) keyword pairs, document by document."""
    for keywords in keyword_sets:
        ordered = sorted(keywords)
        for keyword in ordered:
            yield (keyword, keyword)
        for u, v in combinations(ordered, 2):
            yield (u, v)


def write_pair_file(keyword_sets: Iterable[FrozenSet[Token]],
                    path: str) -> int:
    """Materialize the emitted pair stream as a tab-separated file.

    This is the on-disk intermediate of the paper's methodology ("at
    the end of the pass over D a file with all keyword pairs is
    generated").  The first line is the format/version header (the
    record kind — interned ids vs strings — is detected from the first
    pair).  Returns the number of pair records written, header
    excluded.
    """
    count = 0
    buffered: List[str] = []
    interned = None
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for u, v in emit_pairs(keyword_sets):
                if interned is None:
                    interned = isinstance(u, int)
                    fh.write(f"{PAIR_FILE_MAGIC}\t{PAIR_FILE_VERSION}"
                             f"\t{'id' if interned else 'str'}\n")
                if isinstance(u, int) is not interned \
                        or isinstance(v, int) is not interned:
                    raise ValueError(
                        f"keyword sets mix interned ids and strings: "
                        f"pair ({u!r}, {v!r}) does not match the "
                        f"file's {'id' if interned else 'str'} "
                        f"records")
                buffered.append(f"{u}\t{v}\n")
                if len(buffered) >= _WRITE_CHUNK_LINES:
                    fh.writelines(buffered)
                    count += len(buffered)
                    buffered.clear()
            if interned is None:  # empty stream: default-kind header
                fh.write(f"{PAIR_FILE_MAGIC}\t{PAIR_FILE_VERSION}"
                         f"\tstr\n")
            fh.writelines(buffered)
            count += len(buffered)
    except BaseException:
        # Never leave a truncated-but-valid-looking file behind: an
        # aborted write must not be silently readable later.
        try:
            os.unlink(path)
        except OSError:
            pass
        raise
    return count


def _parse_header(line: str, path: str) -> str:
    """Validate a pair-file header line; returns the record kind."""
    parts = line.rstrip("\n").split("\t")
    if not parts or parts[0] != PAIR_FILE_MAGIC:
        raise ValueError(
            f"{path!r} is not a versioned pair file (expected a "
            f"{PAIR_FILE_MAGIC!r} header, found {line[:40]!r}); legacy "
            f"headerless files must be regenerated with "
            f"write_pair_file")
    if len(parts) != 3:
        raise ValueError(
            f"{path!r} has a malformed pair-file header: {line!r}")
    magic, version, kind = parts
    if version != str(PAIR_FILE_VERSION):
        raise ValueError(
            f"{path!r} is pair-file version {version}; this reader "
            f"understands version {PAIR_FILE_VERSION} only")
    if kind not in PAIR_KINDS:
        raise ValueError(
            f"{path!r} declares unknown record kind {kind!r}; "
            f"expected one of {PAIR_KINDS}")
    return kind


def read_pair_file(path: str) -> Iterator[Pair]:
    """Yield the pairs of a file written by :func:`write_pair_file`.

    The header determines the record kind: ``id`` records come back as
    int pairs, ``str`` records as string pairs.  Unversioned or
    unknown-version files raise :class:`ValueError` instead of being
    silently mis-parsed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path!r} is empty: not a pair file")
        kind = _parse_header(header, path)
        interned = kind == "id"
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            u, _, v = line.partition("\t")
            yield (int(u), int(v)) if interned else (u, v)
