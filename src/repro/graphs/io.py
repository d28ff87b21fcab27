"""Reading and writing bipartite graphs in KONECT-style edge-list format.

The paper's datasets come from the KONECT collection [5], whose bipartite
graphs are distributed as whitespace-separated edge lists with ``%``-prefixed
comment/metadata lines and 1-based vertex ids:

    % bip unweighted
    % 58595 16726 22015
    1 1
    1 2
    ...

This module reads and writes that dialect (plus plain 0-based TSV), so the
CLI and examples can operate on real KONECT downloads when they are
available, and on files produced by :func:`save_konect` otherwise.

Both loaders share one contract.  A file is UTF-8 text, decompressed when
its name ends in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``.  The comment
marker (``%`` or ``#``) starts a comment anywhere in a line; the text before
it is split on whitespace, and a line with no fields there is skipped.  The
first two fields of every other line are the left and right vertex ids:
each is a token ``[+-]?[0-9]+`` that fits in int64, and further fields are
ignored.  The edges are parsed in one pass by numpy's C reader; only a file
that fails is scanned again line by line, to name the first line at fault.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
import os
import re
import resource
import warnings
import zlib

import numpy as np

from repro._types import INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCOO

__all__ = [
    "GraphTooLargeError",
    "load_konect",
    "save_konect",
    "load_edge_list",
    "save_edge_list",
]

# the suffixes np.loadtxt decompresses, so both readers see the same text
_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}
_TOKEN = re.compile(r"[+-]?[0-9]+")
_SIZE = re.compile(r"[0-9]+")
_UNDECODABLE = re.compile("[\udc80-\udcff]")  # surrogateescape'd bytes
_INT64 = np.iinfo(INDEX_DTYPE)
# the ways a damaged compressed stream fails while it is read
_STREAM_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error, lzma.LZMAError)


class GraphTooLargeError(ValueError):
    """The graph a file implies would not fit in memory.

    Raised before anything graph-sized is allocated, so a stray huge id
    fails fast instead of exhausting memory.
    """


def _open_text(path: str | os.PathLike, mode: str, errors: str = "strict"):
    """Open a UTF-8 text file, decompressing by suffix as np.loadtxt does."""
    opener = _OPENERS.get(os.path.splitext(os.fspath(path))[1], open)
    return opener(path, mode + "t", encoding="utf-8", errors=errors)


def _lines(path: str | os.PathLike):
    """Yield ``(lineno, line)``; undecodable bytes arrive as lone surrogates."""
    with _open_text(path, "r", errors="surrogateescape") as fh:
        yield from enumerate(fh, 1)


def _konect_header(path: str | os.PathLike):
    """``(n_left, n_right, lineno)`` from the ``% nnz m n`` size header.

    Only the leading lines are read, up to the first edge line; the last
    size line among them wins.  ``None`` when there is none.
    """
    header = None
    for lineno, line in _lines(path):
        data, _, note = line.partition("%")
        if data.split():
            break
        body = note.split()
        if len(body) == 3 and all(_SIZE.fullmatch(tok) for tok in body):
            header = (int(body[1]), int(body[2]), lineno)
    return header


def load_konect(path: str | os.PathLike) -> BipartiteGraph:
    """Load a KONECT-style bipartite edge list (1-based ids, % comments).

    A ``% <edges> <n_left> <n_right>`` size header among the lines before
    the first edge is honoured; otherwise sizes are inferred from the
    maximum ids.  Duplicate edges are merged; weights/timestamps in
    trailing columns are ignored (the paper's algorithms operate on the
    unweighted pattern).

    A file that cannot load — a line with fewer than two ids, a token that
    is not an int64 integer, an id below 1, an id beyond the size header,
    or bytes that are not UTF-8 — raises ``ValueError`` naming the path,
    the 1-based line number and the offending token or id.  A graph too
    large for memory raises :class:`GraphTooLargeError` instead.
    """
    try:
        header = _konect_header(path)
    except _STREAM_ERRORS as exc:
        raise _line_error(path, "%", 1, None, exc) from None
    sizes, size_line = (None, 0) if header is None else (header[:2], header[2])
    return _load(path, "%", 1, sizes, size_line)


def load_edge_list(
    path: str | os.PathLike,
    n_left: int | None = None,
    n_right: int | None = None,
) -> BipartiteGraph:
    """Load a plain 0-based whitespace-separated edge list (``#`` comments).

    Sizes are inferred from the maximum ids unless both ``n_left`` and
    ``n_right`` are given.  Errors follow :func:`load_konect`.
    """
    if (n_left is None) != (n_right is None):
        raise ValueError("give both n_left and n_right or neither")
    sizes = None if n_left is None else (int(n_left), int(n_right))
    return _load(path, "#", 0, sizes, 0)


def _load(path, comment: str, base: int, sizes, size_line) -> BipartiteGraph:
    """Parse, check and build a file with ``comment`` lines and ids from ``base``.

    ``sizes`` is ``(n_left, n_right)``, or ``None`` to infer them from the
    largest ids; ``size_line`` is the line that declared them (0 when they
    were passed in).  numpy's reader pulls whole chunks from a path but
    single lines from a handle, about twice as slow; the absolute path
    also keeps numpy from reading the name as a URL.
    """
    try:
        with warnings.catch_warnings():
            # an edge-free file is a valid empty graph
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            edges = np.loadtxt(
                os.path.abspath(path),
                comments=comment,
                usecols=(0, 1),
                dtype=INDEX_DTYPE,
                ndmin=2,
                encoding="utf-8",
            )
    except (ValueError, *_STREAM_ERRORS) as exc:
        raise _line_error(path, comment, base, sizes, exc) from None
    rows, cols = edges[:, 0], edges[:, 1]
    if edges.size and (
        edges.min() < base
        or sizes is not None
        and (
            int(rows.max()) - base >= sizes[0]
            or int(cols.max()) - base >= sizes[1]
        )
    ):
        raise _line_error(path, comment, base, sizes, "vertex id out of range")
    if sizes is None:
        sizes = (
            int(rows.max()) - base + 1 if rows.size else 0,
            int(cols.max()) - base + 1 if cols.size else 0,
        )
        size_line = None  # the memory guard blames the largest id
    _check_memory(path, comment, base, edges, sizes, size_line)
    edges -= base
    return BipartiteGraph(PatternCOO(rows, cols, sizes))


def _memory_budget() -> int:
    """Bytes a loaded graph may take: physical RAM, or ``RLIMIT_AS`` if lower."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit != resource.RLIM_INFINITY:
        budget = min(budget, limit)
    return budget


def _check_memory(path, comment, base, edges, sizes, size_line) -> None:
    """Raise :class:`GraphTooLargeError` when building would not fit.

    The estimate counts the ``indptr`` of both sides plus four edge-length
    arrays (COO rows and cols, CSR and CSC indices), all int64.  The error
    names ``size_line``, or, when it is ``None`` (inferred sizes), the
    first line holding the largest id.
    """
    n_left, n_right = sizes
    need = edges.itemsize * (n_left + 1 + n_right + 1 + 4 * len(edges))
    budget = _memory_budget()
    if need <= budget:
        return
    if size_line is None:
        top = int(edges.max()) - base
        size_line, _ = _first_fault(path, comment, base, (top, top))
    where = f"{path}:{size_line}" if size_line else str(path)
    raise GraphTooLargeError(
        f"{where}: {n_left} left x {n_right} right vertices need about "
        f"{need} bytes to build, over the {budget}-byte memory budget"
    )


def _line_error(path, comment: str, base: int, sizes, cause) -> ValueError:
    """The error naming the first line of ``path`` that cannot load.

    Re-scans the file, so only the error path pays for line numbers; the
    rules are the module's contract, with the declared ``sizes``.  Falls
    back to ``cause``, prefixed with the path, when no line is at fault.
    """
    lineno, fault = _first_fault(path, comment, base, sizes)
    return ValueError(f"{path}:{lineno}: {fault}" if fault else f"{path}: {cause}")


def _first_fault(path, comment: str, base: int, sizes):
    """``(lineno, fault)`` of the first line at fault, or ``(0, None)``."""
    lineno = 0
    try:
        for lineno, line in _lines(path):
            fault = _line_fault(line, comment, base, sizes)
            if fault:
                return lineno, fault
    except _STREAM_ERRORS as exc:
        return lineno + 1, f"compressed stream is damaged ({exc})"
    return 0, None


def _line_fault(line: str, comment: str, base: int, sizes) -> str | None:
    """What is wrong with one line, or ``None``."""
    if _UNDECODABLE.search(line):
        return "bytes that are not valid UTF-8"
    parts = line.partition(comment)[0].split()
    if not parts:
        return None
    if len(parts) < 2:
        return f"malformed edge line {line.strip()!r}: expected two vertex ids"
    for i, side in enumerate(("left", "right")):
        tok = parts[i]
        if not _TOKEN.fullmatch(tok):
            return f"{side} vertex id {tok!r} is not an integer"
        vid = int(tok)
        if not _INT64.min <= vid <= _INT64.max:
            return f"{side} vertex id {tok} does not fit in int64"
        if vid < base:
            note = " (KONECT files are 1-based)" if base else ""
            return f"{side} vertex id {vid} is below {base}{note}"
        if sizes is not None and vid - base >= sizes[i]:
            size = sizes[i]
            return f"{side} vertex id {vid} exceeds the {size} declared {side} vertices"
    return None


def save_konect(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write a graph in the KONECT dialect accepted by :func:`load_konect`."""
    with _open_text(path, "w") as fh:
        fh.write("% bip unweighted\n")
        fh.write(f"% {graph.n_edges} {graph.n_left} {graph.n_right}\n")
        for u, v in graph.edges():
            fh.write(f"{u + 1} {v + 1}\n")


def save_edge_list(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write a plain 0-based edge list with a size comment header."""
    with _open_text(path, "w") as fh:
        fh.write(f"# bipartite {graph.n_left} {graph.n_right} {graph.n_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
