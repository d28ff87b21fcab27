"""Hypothesis fuzz suite for the edge-list loaders and CLI ``count``.

Generated files mix valid edges, blank lines, ``%``/``#`` comments, size
headers, trailing columns, short rows, bad tokens, huge ids, undecodable
bytes and compressed encodings.  Every input must either load to exactly
the graph a pure-Python reference parse predicts, or raise a
``ValueError`` whose message starts with ``path:line:`` for the line the
reference names — :class:`GraphTooLargeError` when the implied graph is
far too large for memory.  No other exception type may escape.

Ids are either small or at least 10**15, never in between: a graph with a
side of 10**15 vertices needs petabytes and is over budget on any host,
while a small one is under it, so the reference can predict the memory
guard without knowing the host.
"""

import bz2
import gzip
import io
import lzma
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.graphs import GraphTooLargeError, load_edge_list, load_konect

SETTINGS = dict(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HUGE = [
    "1000000000000000",
    "9223372036854775807",
    "9223372036854775808",
    "99999999999999999999",
    "-99999999999999999999",
]
BAD = ["x", "1_0", "1.5", "0x1", "+", "-", "--1", "1e3", "١", "１"]
SEPARATORS = [" ", "\t", "  ", " \t ", "\x0b"]
COMPRESS = {
    "": lambda data: data,
    ".gz": gzip.compress,
    ".bz2": bz2.compress,
    ".xz": lzma.compress,
}


# ---------------------------------------------------------------- generators
small_id = st.one_of(
    st.integers(-1, 12).map(str),
    st.integers(0, 12).map(lambda v: f"+{v}"),
    st.integers(0, 12).map(lambda v: f"00{v}"),
)
size_token = st.one_of(st.integers(0, 14).map(str), st.sampled_from(HUGE[:2]))
sep = st.sampled_from(SEPARATORS)
marker = st.sampled_from(["%", "#"])
note = st.text(alphabet="ab 0123%#", max_size=8)


@st.composite
def edge_line(draw, ids=small_id):
    parts = [draw(ids), draw(ids)]
    parts += draw(st.lists(st.one_of(small_id, st.sampled_from(BAD)), max_size=2))
    line = draw(sep).join(parts)
    if draw(st.booleans()):
        line = draw(sep) + line + draw(sep)
    if draw(st.booleans()):
        line += draw(marker) + draw(note)
    return line


@st.composite
def bad_line(draw):
    tokens = [draw(small_id), draw(small_id)]
    tokens[draw(st.integers(0, 1))] = draw(st.sampled_from(BAD + HUGE))
    return draw(sep).join(tokens)


line = st.one_of(
    edge_line(),
    edge_line(),
    edge_line(),
    st.sampled_from(["", "  ", "\t"]),
    st.builds(lambda m, n: m + n, marker, note),
    st.builds(
        lambda a, b, c: f"% {a} {b} {c}", size_token, size_token, size_token
    ),
    small_id,
    bad_line(),
    edge_line(ids=st.one_of(small_id, st.sampled_from(HUGE))),
    edge_line(ids=st.one_of(small_id, st.sampled_from(HUGE[:2]))),
)


@st.composite
def edge_file(draw):
    lines = [s.encode("utf-8") for s in draw(st.lists(line, max_size=8))]
    if lines and draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] += b"\xff\xfe"
    data = draw(st.sampled_from([b"\n", b"\r\n"])).join(lines)
    if draw(st.booleans()):
        data += b"\n"
    return data, draw(st.sampled_from(sorted(COMPRESS)))


# --------------------------------------------------------- reference parse
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _int_token(tok):
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if not (digits and digits.isascii() and digits.isdigit()):
        return None
    value = int(tok)
    return value if INT64_MIN <= value <= INT64_MAX else None


def reference(data, comment, base, sizes=None):
    """``("ok", shape, edges)``, ``("error", line)`` or ``("too_large", line)``."""
    text = data.decode("utf-8", "surrogateescape")
    header_line = None
    seen_edge = False
    edges = []  # (left, right, line)
    for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
        if any("\udc80" <= ch <= "\udcff" for ch in raw):
            return ("error", lineno)
        before, has_marker, after = raw.partition(comment)
        fields = before.split()
        if not fields:
            body = after.split()
            if (
                comment == "%" and has_marker and not seen_edge
                and len(body) == 3
                and all(t.isascii() and t.isdigit() for t in body)
            ):
                sizes, header_line = (int(body[1]), int(body[2])), lineno
            continue
        seen_edge = True
        if len(fields) < 2:
            return ("error", lineno)
        ids = [_int_token(tok) for tok in fields[:2]]
        for side, vid in enumerate(ids):
            if vid is None or vid < base:
                return ("error", lineno)
            if sizes is not None and vid - base >= sizes[side]:
                return ("error", lineno)
        edges.append((ids[0] - base, ids[1] - base, lineno))
    if sizes is None:
        sizes = (
            max((u for u, _, _ in edges), default=-1) + 1,
            max((v for _, v, _ in edges), default=-1) + 1,
        )
        top = max((max(u, v) for u, v, _ in edges), default=None)
        header_line = next(
            (no for u, v, no in edges if max(u, v) == top), None
        )
    if max(sizes) > 10**12:
        return ("too_large", header_line)
    return ("ok", sizes, sorted({(u, v) for u, v, _ in edges}))


def _write(directory, data, suffix):
    path = os.path.join(directory, "g.txt" + suffix)
    with open(path, "wb") as fh:
        fh.write(COMPRESS[suffix](data))
    return path


def _check(load, path, expected):
    kind = expected[0]
    try:
        graph = load()
    except ValueError as exc:
        assert kind != "ok", f"unexpected {exc!r}"
        assert isinstance(exc, GraphTooLargeError) == (kind == "too_large"), exc
        assert str(exc).startswith(f"{path}:{expected[1]}: "), str(exc)
        return None
    assert kind == "ok", f"loaded, but the reference says {expected}"
    _, shape, edges = expected
    assert graph.shape == tuple(shape)
    assert graph.edges().tolist() == [list(e) for e in edges]
    indptr = [0]
    for u in range(shape[0]):
        indptr.append(indptr[-1] + sum(1 for a, _ in edges if a == u))
    assert graph.csr.indptr.tolist() == indptr
    assert graph.csr.indices.tolist() == [v for _, v in edges]
    by_col = sorted(edges, key=lambda e: (e[1], e[0]))
    assert graph.csc.indices.tolist() == [u for u, _ in by_col]
    col_ptr = [0]
    for v in range(shape[1]):
        col_ptr.append(col_ptr[-1] + sum(1 for _, b in edges if b == v))
    assert graph.csc.indptr.tolist() == col_ptr
    return graph


# -------------------------------------------------------------------- tests
@settings(**SETTINGS)
@given(edge_file())
def test_load_konect_matches_the_reference(case):
    data, suffix = case
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, data, suffix)
        _check(lambda: load_konect(path), path, reference(data, "%", 1))


@settings(**SETTINGS)
@given(
    edge_file(),
    st.one_of(st.none(), st.tuples(st.integers(0, 14), st.integers(0, 14))),
)
def test_load_edge_list_matches_the_reference(case, sizes):
    data, suffix = case
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, data, suffix)
        kwargs = {} if sizes is None else dict(n_left=sizes[0], n_right=sizes[1])
        _check(
            lambda: load_edge_list(path, **kwargs),
            path,
            reference(data, "#", 0, sizes),
        )


def _butterflies(edges):
    neighbours = {}
    for u, v in edges:
        neighbours.setdefault(u, set()).add(v)
    lefts = sorted(neighbours)
    total = 0
    for i, a in enumerate(lefts):
        for b in lefts[i + 1:]:
            common = len(neighbours[a] & neighbours[b])
            total += common * (common - 1) // 2
    return total


@settings(**dict(SETTINGS, max_examples=60))
@given(edge_file())
def test_cli_count_counts_or_exits_with_one_error_line(case):
    data, suffix = case
    expected = reference(data, "%", 1)
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, data, suffix)
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sys.stdout", out)
            mp.setattr("sys.stderr", err)
            try:
                code = main(["count", path])
            except SystemExit as exc:
                code = exc.code
    if expected[0] == "ok":
        assert code == 0, err.getvalue()
        found = re.search(r"^butterflies: (\d+)$", out.getvalue(), re.M)
        assert found and int(found.group(1)) == _butterflies(expected[2])
        return
    assert code == (3 if expected[0] == "too_large" else 2)
    message = err.getvalue()
    assert message.startswith(f"error: {path}:{expected[1]}: ")
    assert message.count("\n") == 1
