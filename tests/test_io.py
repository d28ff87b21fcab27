"""Tests for KONECT / edge-list I/O."""

import pytest

from repro.graphs import (
    BipartiteGraph,
    gnm_bipartite,
    load_edge_list,
    load_konect,
    save_edge_list,
    save_konect,
)


def test_konect_roundtrip(tmp_path):
    g = gnm_bipartite(12, 17, 60, seed=3)
    path = tmp_path / "g.konect"
    save_konect(g, path)
    assert load_konect(path) == g


def test_konect_roundtrip_empty(tmp_path):
    g = BipartiteGraph.empty(3, 4)
    path = tmp_path / "empty.konect"
    save_konect(g, path)
    loaded = load_konect(path)
    assert loaded == g
    assert loaded.shape == (3, 4)  # header preserves isolated vertices


def test_konect_header_sizes_honoured(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("% bip unweighted\n% 1 5 7\n1 1\n")
    g = load_konect(path)
    assert g.shape == (5, 7)
    assert g.n_edges == 1


def test_konect_sizes_inferred_without_header(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("2 3\n1 1\n")
    g = load_konect(path)
    assert g.shape == (2, 3)


def test_konect_ignores_comments_blanks_and_extra_columns(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("% a comment\n\n1 2 99 1234567\n2 1 5\n")
    g = load_konect(path)
    assert g.n_edges == 2


def test_konect_merges_duplicate_edges(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("1 1\n1 1\n1 1\n")
    assert load_konect(path).n_edges == 1


def test_konect_rejects_zero_based_ids(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0 1\n")
    with pytest.raises(ValueError, match="1-based"):
        load_konect(path)


def test_konect_rejects_malformed_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("42\n")
    with pytest.raises(ValueError, match="malformed"):
        load_konect(path)


def test_konect_negative_id_names_file_line_and_id(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("1 1\n-3 2\n")
    with pytest.raises(ValueError, match=r"g\.tsv:2: .*id -3 .*1-based"):
        load_konect(path)


def test_konect_non_integer_token_names_file_line_and_token(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("% bip unweighted\n1 1\n2 x\n")
    with pytest.raises(ValueError, match=r"g\.tsv:3: .*'x' is not an integer"):
        load_konect(path)


def test_konect_id_beyond_size_header_names_file_line_and_id(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("% 2 1 1\n1 1\n2 2\n")
    with pytest.raises(ValueError, match=r"g\.tsv:3: left vertex id 2 exceeds"):
        load_konect(path)


def test_konect_gzip_roundtrip(tmp_path):
    g = gnm_bipartite(8, 9, 30, seed=5)
    path = tmp_path / "g.konect.gz"
    save_konect(g, path)
    # confirm it's actually gzip on disk
    import gzip

    with gzip.open(path, "rt") as fh:
        assert fh.readline().startswith("%")
    assert load_konect(path) == g


def test_edge_list_gzip_roundtrip(tmp_path):
    g = gnm_bipartite(6, 7, 20, seed=6)
    path = tmp_path / "g.edges.gz"
    save_edge_list(g, path)
    assert load_edge_list(path).edges().tolist() == g.edges().tolist()


def test_edge_list_roundtrip(tmp_path):
    g = gnm_bipartite(9, 11, 30, seed=4)
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    loaded = load_edge_list(path)
    # plain format drops trailing isolated vertices; compare edges
    assert loaded.edges().tolist() == g.edges().tolist()


def test_edge_list_explicit_sizes(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# header\n0 0\n")
    g = load_edge_list(path, n_left=4, n_right=6)
    assert g.shape == (4, 6)


def test_edge_list_skips_hash_comments(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# c1\n0 1\n# c2\n1 0\n")
    assert load_edge_list(path).n_edges == 2


# ------------------------------------------------ one token rule, one parser
def test_konect_id_past_int64_names_file_line_and_token(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("1 1\n99999999999999999999 1\n")
    with pytest.raises(
        ValueError, match=r"g\.tsv:2: left vertex id 99999999999999999999 "
        "does not fit in int64"
    ):
        load_konect(path)


def test_konect_underscore_token_is_not_an_integer(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("1 1\n1_0 2\n")
    with pytest.raises(ValueError, match=r"g\.tsv:2: .*'1_0' is not an integer"):
        load_konect(path)


def test_konect_percent_starts_a_comment_anywhere(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("1 2 % weight 3\n2 1%\n")
    assert load_konect(path).edges().tolist() == [[0, 1], [1, 0]]


def test_konect_size_header_is_read_from_leading_lines_only(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("% bip\n\n% 1 4 5\n1 1\n% 1 9 9\n")
    assert load_konect(path).shape == (4, 5)
    late = tmp_path / "late.tsv"
    late.write_text("1 1\n% 1 9 9\n")
    assert load_konect(late).shape == (1, 1)


def test_konect_undecodable_bytes_name_file_and_line(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_bytes(b"1 1\n% \xff\xfe\n2 2\n")
    with pytest.raises(ValueError, match=r"g\.tsv:2: .*not valid UTF-8"):
        load_konect(path)


def test_konect_edge_free_file_loads_without_warnings(tmp_path):
    import warnings

    path = tmp_path / "g.tsv"
    path.write_text("% bip unweighted\n% 0 2 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_konect(path).shape == (2, 3)


def test_konect_damaged_gzip_names_file_and_line(tmp_path):
    path = tmp_path / "g.konect.gz"
    path.write_bytes(b"not gzip at all")
    with pytest.raises(ValueError, match=r"g\.konect\.gz:1: compressed stream"):
        load_konect(path)


def test_edge_list_one_token_line_names_file_and_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 0\n5\n")
    with pytest.raises(ValueError, match=r"g\.edges:2: malformed edge line '5'"):
        load_edge_list(path)


def test_edge_list_bad_token_names_file_line_and_token(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# c\n0 0\n1 x\n")
    with pytest.raises(ValueError, match=r"g\.edges:3: right .*'x' is not an integer"):
        load_edge_list(path)


def test_edge_list_negative_id_names_file_and_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 0\n0 -1\n")
    with pytest.raises(ValueError, match=r"g\.edges:2: right vertex id -1 is below 0"):
        load_edge_list(path)


def test_edge_list_id_beyond_explicit_sizes_names_file_and_line(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 0\n4 1\n")
    with pytest.raises(ValueError, match=r"g\.edges:2: left vertex id 4 exceeds"):
        load_edge_list(path, n_left=4, n_right=6)
    assert load_edge_list(path, n_left=5, n_right=6).shape == (5, 6)


def test_edge_list_needs_both_sizes_or_neither(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 0\n")
    with pytest.raises(ValueError, match="both n_left and n_right"):
        load_edge_list(path, n_left=3)


# ------------------------------------------------------------ memory guard
def test_guard_names_file_line_sizes_and_bytes(tmp_path, monkeypatch):
    from repro.graphs import GraphTooLargeError
    from repro.graphs import io

    monkeypatch.setattr(io, "_memory_budget", lambda: 400)
    path = tmp_path / "g.tsv"
    path.write_text("% c\n1 1\n40 2\n40 3\n")
    with pytest.raises(GraphTooLargeError) as exc:
        load_konect(path)
    msg = str(exc.value)
    assert msg.startswith(f"{path}:3: 40 left x 3 right vertices need about ")
    assert f"{8 * (41 + 4 + 4 * 3)} bytes" in msg and "400-byte" in msg
    header = tmp_path / "h.tsv"
    header.write_text("% 1 2 999\n1 1\n")
    with pytest.raises(GraphTooLargeError, match=r"h\.tsv:1: 2 left x 999 right"):
        load_konect(header)


_GUARD_SCRIPT = """
import resource, sys
cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from repro.cli import main
sys.exit(main(["count", sys.argv[1]]))
"""


def test_guard_stops_a_huge_id_before_allocating(tmp_path):
    """A two-line file naming vertex 10^9 would need ~8 GB of indptr; under
    a 1 GiB address-space cap the guard exits 3 instead.  Without the guard
    the allocation fails with MemoryError (exit 1), not an OOM kill."""
    import os
    import subprocess
    import sys

    path = tmp_path / "huge.konect"
    path.write_text("1 1\n1000000000 1\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"error: {path}:2: 1000000000 left x 1 right")
    assert "1073741824-byte" in proc.stderr


# ------------------------------------------------------------ CLI errors
def _cli_error(argv, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return exc.value.code, err


def test_cli_missing_file_exits_2_naming_the_path(tmp_path, capsys):
    path = tmp_path / "missing.konect"
    code, err = _cli_error(["count", str(path)], capsys)
    assert code == 2 and f"{path}: No such file" in err


def test_cli_id_past_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "g.konect"
    path.write_text("99999999999999999999 1\n")
    code, err = _cli_error(["count", str(path)], capsys)
    assert code == 2 and f"{path}:1:" in err and "99999999999999999999" in err


def test_cli_underscore_token_exits_2(tmp_path, capsys):
    path = tmp_path / "g.konect"
    path.write_text("1_0 1\n")
    code, err = _cli_error(["count", str(path)], capsys)
    assert code == 2 and f"{path}:1:" in err and "'1_0'" in err


def test_cli_undecodable_bytes_exit_2_naming_the_path(tmp_path, capsys):
    path = tmp_path / "g.konect"
    path.write_bytes(bytes([0, 159, 146, 150]))
    code, err = _cli_error(["count", str(path)], capsys)
    assert code == 2 and f"{path}:1:" in err
