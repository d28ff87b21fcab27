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
