"""Failure-injection and fuzz tests.

Randomly corrupted structures must fail loudly at validation, never
silently produce wrong counts; randomly generated valid inputs must
round-trip every serialisation path.  Complements the targeted error
tests in the per-module suites.
"""

import numpy as np
import pytest

from repro.graphs import (
    BipartiteGraph,
    gnm_bipartite,
    load_edge_list,
    load_konect,
    save_edge_list,
    save_konect,
)
from repro.sparsela import PatternCSR
from repro.sparsela.semiring import PLUS_TIMES, mxm


# ----------------------------------------------------- corrupted structures
def _valid_csr(rng):
    dense = (rng.random((8, 10)) < 0.4).astype(int)
    return PatternCSR.from_dense(dense)


@pytest.mark.parametrize("seed", range(8))
def test_corrupted_indptr_rejected(seed):
    rng = np.random.default_rng(seed)
    m = _valid_csr(rng)
    if m.nnz < 2:
        return
    indptr = m.indptr.copy()
    k = rng.integers(1, len(indptr) - 1)
    indptr[k] = indptr[k] + rng.choice([-1, 1]) * (m.nnz + 1)
    with pytest.raises(ValueError):
        PatternCSR(indptr, m.indices, m.shape)


@pytest.mark.parametrize("seed", range(8))
def test_corrupted_indices_rejected(seed):
    rng = np.random.default_rng(100 + seed)
    m = _valid_csr(rng)
    if m.nnz == 0:
        return
    indices = m.indices.copy()
    k = rng.integers(0, m.nnz)
    indices[k] = m.shape[1] + rng.integers(0, 5)  # out of range
    with pytest.raises(ValueError):
        PatternCSR(m.indptr, indices, m.shape)


@pytest.mark.parametrize("seed", range(8))
def test_shuffled_slice_rejected(seed):
    rng = np.random.default_rng(200 + seed)
    m = _valid_csr(rng)
    # find a row with >= 2 entries and reverse it (unsorted slice)
    for i in range(m.shape[0]):
        sl = slice(m.indptr[i], m.indptr[i + 1])
        if sl.stop - sl.start >= 2:
            indices = m.indices.copy()
            indices[sl] = indices[sl][::-1]
            with pytest.raises(ValueError):
                PatternCSR(m.indptr, indices, m.shape)
            return


def test_graph_rejects_garbage_edge_types():
    with pytest.raises((ValueError, TypeError, OverflowError)):
        BipartiteGraph([("a", "b")])


def test_semiring_rejects_shape_garbage(rng):
    a = PatternCSR.from_dense((rng.random((3, 4)) < 0.5).astype(int))
    b = PatternCSR.from_dense((rng.random((5, 3)) < 0.5).astype(int))
    with pytest.raises(ValueError):
        mxm(a, b, PLUS_TIMES)


# ------------------------------------------------------------- I/O fuzzing
@pytest.mark.parametrize("seed", range(6))
def test_serialisation_roundtrip_fuzz(tmp_path, seed):
    rng = np.random.default_rng(300 + seed)
    m = int(rng.integers(1, 20))
    n = int(rng.integers(1, 20))
    e = int(rng.integers(0, m * n + 1))
    g = gnm_bipartite(m, n, e, seed=seed)

    konect = tmp_path / f"g{seed}.konect"
    save_konect(g, konect)
    assert load_konect(konect) == g

    edges = tmp_path / f"g{seed}.edges"
    save_edge_list(g, edges)
    assert load_edge_list(edges).edges().tolist() == g.edges().tolist()


def test_konect_loader_rejects_binary_garbage(tmp_path):
    path = tmp_path / "garbage.konect"
    path.write_bytes(bytes([0, 159, 146, 150]))
    with pytest.raises((ValueError, UnicodeDecodeError)):
        load_konect(path)


# --------------------------------------------- semantic fuzz: count sanity
@pytest.mark.parametrize("seed", range(10))
def test_count_upper_bound_fuzz(seed):
    """Ξ_G can never exceed C(m,2)·C(n,2), the complete graph's count."""
    from repro.core import count_butterflies

    rng = np.random.default_rng(400 + seed)
    m = int(rng.integers(1, 15))
    n = int(rng.integers(1, 15))
    g = gnm_bipartite(m, n, int(rng.integers(0, m * n + 1)), seed=seed)
    bound = (m * (m - 1) // 2) * (n * (n - 1) // 2)
    assert 0 <= count_butterflies(g) <= bound
