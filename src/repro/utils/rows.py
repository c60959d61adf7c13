"""Append-only row buffers with geometric spare capacity.

An index that grows by inserts keeps each per-point array (the point
matrix, the metric's prepared row state, the HLL pair table) in a
buffer with spare rows past the published ``n``.  An insert writes its
rows into that spare space and then publishes the longer prefix view
``buffer[:n + m]``; a reader still holding an older view never sees the
write, because rows below its ``n`` are never written again.  A buffer
without room is replaced by a fresh, larger one — older views keep
pointing at the old buffer, which stays valid — so an insert costs the
rows it writes, and a copy of the whole array only once per growth.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GROWTH_DIVISOR", "append_rows"]

#: A grown buffer holds ``need + need // GROWTH_DIVISOR`` rows: the
#: spare capacity is one eighth of the rows it must hold.
GROWTH_DIVISOR = 8


def append_rows(buffer: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """Write ``rows`` behind the first ``n`` rows of ``buffer``.

    Returns the buffer that now holds ``n + len(rows)`` rows: ``buffer``
    itself when it has room past ``n`` in a dtype that holds ``rows``
    as :func:`numpy.concatenate` would, else a fresh one with spare
    capacity (:data:`GROWTH_DIVISOR`), the first ``n`` rows copied over
    and the dtype promoted as :func:`numpy.concatenate` promotes it.
    Rows below ``n`` are never written, so every published view
    ``buffer[:n']`` with ``n' <= n`` keeps its values.

    An array of exactly ``n`` rows (one a caller built from, or one
    memory-mapped from disk) therefore never has its memory written:
    the first append grows it.

    Examples
    --------
    >>> buffer = append_rows(np.zeros((2, 3)), 2, np.ones((1, 3)))
    >>> buffer.shape[0] >= 3 and float(buffer[:3].sum()) == 3.0
    True
    >>> append_rows(buffer, 3, np.ones((0, 3))) is buffer
    True
    """
    need = n + rows.shape[0]
    dtype = np.result_type(buffer, rows)
    if need > buffer.shape[0] or dtype != buffer.dtype:
        grown = np.empty((need + need // GROWTH_DIVISOR, *buffer.shape[1:]), dtype=dtype)
        grown[:n] = buffer[:n]
        buffer = grown
    buffer[n:need] = rows
    return buffer
