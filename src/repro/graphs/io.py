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
"""

from __future__ import annotations

import gzip
import os

import numpy as np

from repro._types import INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCOO

__all__ = ["load_konect", "save_konect", "load_edge_list", "save_edge_list"]


def _open_text(path: str | os.PathLike, mode: str):
    """Open a text file, transparently handling ``.gz`` paths.

    KONECT distributes its edge lists gzip-compressed; sniffing by
    extension keeps both loaders signature-compatible.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def load_konect(path: str | os.PathLike) -> BipartiteGraph:
    """Load a KONECT-style bipartite edge list (1-based ids, % comments).

    A ``% <edges> <n_left> <n_right>`` size header is honoured when present;
    otherwise sizes are inferred from the maximum ids.  Duplicate edges are
    merged; weights/timestamps in trailing columns are ignored (the paper's
    algorithms operate on the unweighted pattern).

    A file that cannot load — a line with fewer than two ids, a
    non-integer id, an id below 1, or an id beyond the size header —
    raises ``ValueError`` naming the path, the 1-based line number and the
    offending token or id.
    """
    n_left = n_right = None
    lefts: list[int] = []
    rights: list[int] = []
    try:
        with _open_text(path, "r") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("%"):
                    body = line[1:].split()
                    # the KONECT size line is "% nnz m n" — all integers
                    if len(body) == 3 and all(tok.isdigit() for tok in body):
                        n_left, n_right = int(body[1]), int(body[2])
                    continue
                parts = line.split()
                if len(parts) < 2:
                    raise ValueError(f"malformed edge line: {line!r}")
                lefts.append(int(parts[0]))
                rights.append(int(parts[1]))
        if lefts:
            rows = np.asarray(lefts, dtype=INDEX_DTYPE) - 1
            cols = np.asarray(rights, dtype=INDEX_DTYPE) - 1
            if rows.min() < 0 or cols.min() < 0:
                raise ValueError("KONECT files are 1-based")
        else:
            rows = np.empty(0, dtype=INDEX_DTYPE)
            cols = np.empty(0, dtype=INDEX_DTYPE)
        if n_left is None:
            n_left = int(rows.max()) + 1 if rows.size else 0
            n_right = int(cols.max()) + 1 if cols.size else 0
        coo = PatternCOO(rows, cols, (n_left, n_right))
    except ValueError as exc:
        raise _konect_error(path, exc) from None
    return BipartiteGraph(coo.canonicalize())


def _konect_error(path: str | os.PathLike, cause: ValueError) -> ValueError:
    """The error naming the first line of ``path`` that cannot load.

    Re-scans the file, so only the error path pays for line numbers; the
    rules are :func:`load_konect`'s.  Falls back to ``cause``, prefixed
    with the path, when no line is at fault.
    """
    n_left = n_right = None
    with _open_text(path, "r") as fh:
        for line in fh:
            line = line.strip()
            body = line[1:].split()
            if line.startswith("%") and len(body) == 3 and all(
                tok.isdigit() for tok in body
            ):
                n_left, n_right = int(body[1]), int(body[2])
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            where = f"{path}:{lineno}"
            parts = line.split()
            if len(parts) < 2:
                return ValueError(
                    f"{where}: malformed edge line {line!r}: expected two "
                    "vertex ids"
                )
            for side, tok, size in (
                ("left", parts[0], n_left), ("right", parts[1], n_right),
            ):
                try:
                    vid = int(tok)
                except ValueError:
                    return ValueError(
                        f"{where}: {side} vertex id {tok!r} is not an integer"
                    )
                if vid < 1:
                    return ValueError(
                        f"{where}: {side} vertex id {vid} is below 1 "
                        "(KONECT files are 1-based)"
                    )
                if size is not None and vid > size:
                    return ValueError(
                        f"{where}: {side} vertex id {vid} exceeds the size "
                        f"header's {size} {side} vertices"
                    )
    return ValueError(f"{path}: {cause}")


def save_konect(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write a graph in the KONECT dialect accepted by :func:`load_konect`."""
    with _open_text(path, "w") as fh:
        fh.write("% bip unweighted\n")
        fh.write(f"% {graph.n_edges} {graph.n_left} {graph.n_right}\n")
        for u, v in graph.edges():
            fh.write(f"{u + 1} {v + 1}\n")


def load_edge_list(
    path: str | os.PathLike,
    n_left: int | None = None,
    n_right: int | None = None,
) -> BipartiteGraph:
    """Load a plain 0-based whitespace-separated edge list (``#`` comments)."""
    lefts: list[int] = []
    rights: list[int] = []
    with _open_text(path, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            lefts.append(int(parts[0]))
            rights.append(int(parts[1]))
    pairs = np.stack(
        [
            np.asarray(lefts, dtype=INDEX_DTYPE),
            np.asarray(rights, dtype=INDEX_DTYPE),
        ],
        axis=1,
    ) if lefts else np.empty((0, 2), dtype=INDEX_DTYPE)
    return BipartiteGraph(pairs, n_left=n_left, n_right=n_right) if n_left is not None else BipartiteGraph(pairs)


def save_edge_list(graph: BipartiteGraph, path: str | os.PathLike) -> None:
    """Write a plain 0-based edge list with a size comment header."""
    with _open_text(path, "w") as fh:
        fh.write(f"# bipartite {graph.n_left} {graph.n_right} {graph.n_edges}\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")
