"""A minimal GraphBLAS-flavoured semiring layer.

The paper's formulation is exactly the kind GraphBLAS-style systems execute
directly: counting butterflies is a handful of matrix products, Hadamard
masks, and reductions over the integer (+, ×) semiring.  This module
provides just enough of that vocabulary —

- :class:`Semiring` — (add, multiply, zero) triples, with the three
  instances the butterfly algebra needs: ``PLUS_TIMES`` (wedge counting),
  ``PLUS_PAIR`` (structural overlap: multiply ≡ 1 on stored entries, the
  GraphBLAS ``plus_pair`` idiom that counts common neighbours without
  touching values), and ``ANY_PAIR`` (boolean reachability).
- :func:`mxm` — masked sparse × sparse matrix multiply over a semiring,
  row-by-row with a dense scratch accumulator (Gustavson's algorithm).
- :func:`gram` — the B = A·Aᵀ special case the specification is built on.
- :func:`reduce_scalar` / :func:`ewise_mult` — the reductions and Hadamard
  steps that finish the count.

The linear-algebra peeling (:mod:`repro.core.peeling.linear_algebra`)
and the pattern matrices' ``A @ B`` operator are built on these calls.

Everything here returns plain ``(indptr, indices, values)`` CSR triples;
values are always int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro._types import COUNT_DTYPE, INDEX_DTYPE
from repro.sparsela._compressed import CompressedPattern
from repro.sparsela.csr import PatternCSR

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "PLUS_PAIR",
    "ANY_PAIR",
    "ValuedCSR",
    "mxm",
    "gram",
    "ewise_mult",
    "reduce_scalar",
    "tril",
    "triu",
]


@dataclass(frozen=True)
class Semiring:
    """A (⊕, ⊗, 0) triple over int64 scalars.

    ``multiply`` is only ever evaluated on *stored* entries, so the
    ``pair`` semirings (multiply ≡ 1) implement structural intersection
    counting exactly as in GraphBLAS.
    """

    name: str
    add_identity: int
    #: combine two int64 arrays elementwise (the ⊗ of stored-value pairs)
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    #: True when ⊕ is arithmetic + (enables the fast bincount accumulator)
    add_is_plus: bool = True


PLUS_TIMES = Semiring(
    name="plus_times",
    add_identity=0,
    multiply=lambda x, y: x * y,
)

PLUS_PAIR = Semiring(
    name="plus_pair",
    add_identity=0,
    multiply=lambda x, y: np.ones_like(x),
)

ANY_PAIR = Semiring(
    name="any_pair",
    add_identity=0,
    multiply=lambda x, y: np.ones_like(x),
    add_is_plus=False,
)


@dataclass
class ValuedCSR:
    """A CSR matrix with int64 values — the output type of :func:`mxm`.

    Unlike the pattern matrices of :mod:`repro.sparsela`, explicit zeros
    never appear (Gustavson accumulation drops them), and ``indices`` are
    sorted within each row.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        """Stored entries."""
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        """Dense materialisation (tests / small matrices)."""
        out = np.zeros(self.shape, dtype=COUNT_DTYPE)
        row_ids = np.repeat(
            np.arange(self.shape[0], dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        out[row_ids, self.indices] = self.values
        return out

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(column ids, values) of row ``i``."""
        sl = slice(self.indptr[i], self.indptr[i + 1])
        return self.indices[sl], self.values[sl]

    def diagonal(self) -> np.ndarray:
        """Main-diagonal values as a dense vector."""
        n = min(self.shape)
        out = np.zeros(n, dtype=COUNT_DTYPE)
        for i in range(min(self.shape[0], n)):
            cols, vals = self.row(i)
            pos = np.searchsorted(cols, i)
            if pos < len(cols) and cols[pos] == i:
                out[i] = vals[pos]
        return out


def _as_valued(a) -> ValuedCSR:
    """Coerce a pattern matrix (values ≡ 1) or ValuedCSR to ValuedCSR."""
    if isinstance(a, ValuedCSR):
        return a
    if isinstance(a, CompressedPattern):
        csr = a if a.MAJOR_AXIS == 0 else a.to_csr()
        return ValuedCSR(
            indptr=csr.indptr,
            indices=csr.indices,
            values=np.ones(csr.nnz, dtype=COUNT_DTYPE),
            shape=csr.shape,
        )
    raise TypeError(f"expected a pattern matrix or ValuedCSR, got {type(a)!r}")


def mxm(
    a,
    b,
    semiring: Semiring = PLUS_TIMES,
    mask=None,
    complement_mask: bool = False,
) -> ValuedCSR:
    """C = A ⊕.⊗ B with an optional structural mask (Gustavson's algorithm).

    Parameters
    ----------
    a, b:
        Pattern matrices or :class:`ValuedCSR`; shapes (m, k) and (k, n).
        ``b`` is consumed row-wise, so pass the CSR orientation of the
        conceptual operand (for A·Aᵀ use :func:`gram`, which handles the
        transpose structurally).
    semiring:
        The (⊕, ⊗) pair; ``PLUS_PAIR`` counts structural intersections.
    mask:
        Optional pattern matrix of shape (m, n): only positions stored in
        the mask are computed/kept (GraphBLAS output masking) — or, with
        ``complement_mask=True``, only positions *not* in the mask.

    Returns
    -------
    ValuedCSR
        The product with per-row sorted indices and no explicit zeros
        (``ANY_PAIR`` stores 1 for every structurally reachable entry).
    """
    av = _as_valued(a)
    bv = _as_valued(b)
    m, k = av.shape
    k2, n = bv.shape
    if k != k2:
        raise ValueError(f"inner dimensions disagree: {av.shape} x {bv.shape}")
    mask_csr = None
    if mask is not None:
        if isinstance(mask, CompressedPattern):
            mask_csr = mask if mask.MAJOR_AXIS == 0 else mask.to_csr()
        else:
            raise TypeError("mask must be a pattern matrix")
        if mask_csr.shape != (m, n):
            raise ValueError(
                f"mask shape {mask_csr.shape} != output shape {(m, n)}"
            )
    scratch = np.zeros(n, dtype=COUNT_DTYPE)
    touched_flag = np.zeros(n, dtype=bool)
    out_indptr = np.zeros(m + 1, dtype=INDEX_DTYPE)
    rows_indices: list[np.ndarray] = []
    rows_values: list[np.ndarray] = []
    for i in range(m):
        a_cols, a_vals = av.row(i)
        touched: list[np.ndarray] = []
        for t, a_val in zip(a_cols, a_vals):
            b_cols, b_vals = bv.row(int(t))
            if b_cols.size == 0:
                continue
            contrib = semiring.multiply(
                np.full(b_cols.shape, a_val, dtype=COUNT_DTYPE), b_vals
            )
            if semiring.add_is_plus:
                scratch[b_cols] += contrib
            else:  # any: presence only
                scratch[b_cols] = np.maximum(scratch[b_cols], 1)
            fresh = ~touched_flag[b_cols]
            if fresh.any():
                newly = b_cols[fresh]
                touched_flag[newly] = True
                touched.append(newly)
        if touched:
            cols = np.sort(np.concatenate(touched))
            if mask_csr is not None:
                allowed = mask_csr.row(i)
                keep = np.isin(cols, allowed, assume_unique=True)
                if complement_mask:
                    keep = ~keep
                cols = cols[keep]
            elif complement_mask:
                pass  # complement of no mask = everything
            vals = scratch[cols].copy()
            nz = vals != semiring.add_identity
            cols, vals = cols[nz], vals[nz]
            rows_indices.append(cols)
            rows_values.append(vals)
            out_indptr[i + 1] = out_indptr[i] + len(cols)
            # reset scratch sparsely
            all_touched = np.concatenate(touched)
            scratch[all_touched] = 0
            touched_flag[all_touched] = False
        else:
            out_indptr[i + 1] = out_indptr[i]
    indices = (
        np.concatenate(rows_indices)
        if rows_indices
        else np.empty(0, dtype=INDEX_DTYPE)
    )
    values = (
        np.concatenate(rows_values)
        if rows_values
        else np.empty(0, dtype=COUNT_DTYPE)
    )
    return ValuedCSR(out_indptr, indices.astype(INDEX_DTYPE), values, (m, n))


def gram(a, semiring: Semiring = PLUS_PAIR) -> ValuedCSR:
    """B = A ⊕.⊗ Aᵀ for a pattern matrix — the wedge matrix of Section II.

    Under ``PLUS_PAIR``, B_ij = |N(i) ∩ N(j)|: the number of paths of
    length 2 between left vertices i and j, diagonal = degrees.
    """
    if not isinstance(a, CompressedPattern):
        raise TypeError("gram expects a pattern matrix")
    csr = a if a.MAJOR_AXIS == 0 else a.to_csr()
    # Aᵀ in CSR orientation is CSC(A)'s arrays reinterpreted
    csc = csr.to_csc()
    at = PatternCSR(csc.indptr, csc.indices, (a.shape[1], a.shape[0]), check=False)
    return mxm(csr, at, semiring=semiring)


def ewise_mult(
    c: ValuedCSR, f: Callable[[np.ndarray], np.ndarray]
) -> ValuedCSR:
    """Apply ``f`` elementwise to the stored values (a GraphBLAS apply)."""
    return ValuedCSR(c.indptr, c.indices, f(c.values), c.shape)


def reduce_scalar(c: ValuedCSR) -> int:
    """⊕-reduce all stored values to a scalar (plus monoid)."""
    return int(c.values.sum())  # repro: noqa[RPR002] values dtype owned by the semiring monoid


def _strict_filter(c: ValuedCSR, keep_upper: bool) -> ValuedCSR:
    row_ids = np.repeat(
        np.arange(c.shape[0], dtype=INDEX_DTYPE), np.diff(c.indptr)
    )
    sel = c.indices > row_ids if keep_upper else c.indices < row_ids
    counts = np.bincount(row_ids[sel], minlength=c.shape[0]).astype(INDEX_DTYPE)
    indptr = np.zeros(c.shape[0] + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return ValuedCSR(indptr, c.indices[sel], c.values[sel], c.shape)


def triu(c: ValuedCSR) -> ValuedCSR:
    """Strictly-upper-triangular part (GraphBLAS select)."""
    return _strict_filter(c, keep_upper=True)


def tril(c: ValuedCSR) -> ValuedCSR:
    """Strictly-lower-triangular part."""
    return _strict_filter(c, keep_upper=False)
