"""Fused hashing across all ``L`` tables of an index.

Step S1 of the query pipeline hashes the query once per table.  Done
naively that is ``L`` separate kernel invocations — pure Python/numpy
dispatch overhead that at laptop scale can dominate an easy query's
cost and distort the Figure 2 comparison (the paper's analysis assumes
S1 is "very small").  :class:`BatchedHash` closes over one *stacked*
kernel covering all ``L * k`` atomic functions, so hashing a query is
a single vectorised call, and hashing the whole dataset at build time
is one chunked pass.

Each family's :meth:`~repro.hashing.base.LSHFamily.sample_batch`
builds one fused kernel (stacked projection matrices, concatenated
coordinate lists) from the arrays it draws, and keeps those arrays so
an index saves and reopens its kernel without pickling a closure.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.utils.validation import check_matrix, check_vector

__all__ = ["BatchedHash"]

# Rows hashed per chunk when materialising the (n, L, k) build tensor;
# bounds transient memory at chunk * L * k * 8 bytes.
_CHUNK_ROWS = 16_384

FusedKernel = Callable[[np.ndarray], np.ndarray]


class BatchedHash:
    """All ``L`` composite hash functions of an index, fused.

    Parameters
    ----------
    fused_kernel:
        Vectorised map from an ``(n, d)`` matrix to the ``(n, L * k)``
        matrix of all atomic hash values, laid out table-major (table
        ``t`` owns columns ``t*k .. (t+1)*k``).
    k:
        Concatenation width per table.
    num_tables:
        ``L``.
    dim:
        Expected input dimensionality.
    kind:
        The family's config name (``"pstable"``, ``"simhash"``,
        ``"bit_sampling"``).
    params:
        The sampled arrays behind the kernel, by name; what
        :func:`repro.index.frozen.save_frozen_index` writes as
        ``kernel_<name>.npy``.
    """

    __slots__ = ("_kernel", "k", "num_tables", "dim", "kind", "params")

    def __init__(
        self,
        fused_kernel: FusedKernel,
        k: int,
        num_tables: int,
        dim: int,
        kind: str,
        params: dict[str, np.ndarray],
    ) -> None:
        self._kernel = fused_kernel
        self.k = int(k)
        self.num_tables = int(num_tables)
        self.dim = int(dim)
        self.kind = kind
        self.params = params

    def hash_points(self, points: np.ndarray) -> np.ndarray:
        """Hash the whole dataset; returns the ``(n, L, k)`` build tensor.

        Computed in row chunks so transient memory stays bounded for
        large ``n``.
        """
        return self.hash_rows(check_matrix(points, dim=self.dim, name="points"))

    def hash_rows(self, points: np.ndarray) -> np.ndarray:
        """:meth:`hash_points` of a matrix the caller already validated.

        A matrix of one chunk (every query batch) is the kernel's own
        output, reshaped; only a larger one is copied chunk by chunk
        into a fresh ``(n, L, k)`` buffer.
        """
        n = points.shape[0]
        if n <= _CHUNK_ROWS:
            flat = self._kernel(points).astype(np.int64, copy=False)
            return flat.reshape(n, self.num_tables, self.k)
        out = np.empty((n, self.num_tables, self.k), dtype=np.int64)
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            flat = self._kernel(points[start:stop])
            out[start:stop] = flat.reshape(stop - start, self.num_tables, self.k)
        return out

    def query_rows(self, query: np.ndarray) -> np.ndarray:
        """Hash one query vector; returns the ``(L, k)`` hash rows."""
        query = check_vector(query, dim=self.dim, name="query")
        flat = self._kernel(query[None, :])
        return flat.reshape(self.num_tables, self.k)

    def __repr__(self) -> str:
        return f"BatchedHash(L={self.num_tables}, k={self.k}, dim={self.dim})"
