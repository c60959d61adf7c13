"""Frozen CSR index layout — the ``L`` hash tables as contiguous arrays.

Bit-identical to the dict layout of :class:`~repro.index.lsh_index.LSHIndex`:
:mod:`~repro.index.frozen.tables` holds the arrays and their bucket
addressing, :mod:`~repro.index.frozen.lookup` Steps S1 and S2 on them,
:mod:`~repro.index.frozen.index` the build, inserts and re-freezes of
:class:`FrozenLSHIndex`, and :mod:`~repro.index.frozen.persist` the
on-disk format with :func:`migrate` for older directories.
"""

from repro.index.frozen.index import (
    DEFAULT_REFREEZE_THRESHOLD,
    MEMORY_REPORT_PARTS,
    FrozenLSHIndex,
)
from repro.index.frozen.lookup import FrozenQueryLookup
from repro.index.frozen.persist import load_frozen_index, migrate, save_frozen_index
from repro.index.frozen.tables import FrozenTables

__all__ = [
    "FrozenLSHIndex",
    "FrozenTables",
    "FrozenQueryLookup",
    "save_frozen_index",
    "load_frozen_index",
    "migrate",
]
