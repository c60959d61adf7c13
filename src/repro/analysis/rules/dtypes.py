"""Dtype-contract rule: the frozen CSR arrays' declared dtypes.

The whole frozen layout (PR 3..5) hangs off a handful of array-dtype
invariants — CSR offsets and bucket sizes are int64, member ids are the
platform index dtype ``intp`` (every consumer is a fancy index; any
other integer dtype is converted per call), HLL registers are uint8 and
the 64-bit bucket addresses ``key64`` are uint64 (one typed
``searchsorted``; a signed or float drift would silently reorder them).
The full hash rows ``keys`` are deliberately *not* contracted: their
dtype is the narrowest integer that holds the stored values, chosen at
assembly.  They are declared once in :data:`DTYPE_CONTRACTS` and
checked at every allocation / cast site under ``index/``: an
``np.empty``/``np.zeros``/``np.full``/``astype``/``np.asarray`` whose
result lands in a contracted name (or re-materialises a contracted
array) must use the contracted dtype.  Platform-equal drifts —
``int64`` for ``intp`` on 64-bit linux — are exactly what the runtime
bit-identity properties can never catch, and what this rule exists for.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Finding, Rule, SourceFile, register
from repro.analysis.rules._ast_util import (
    attr_chain,
    dtype_name,
    numpy_aliases,
    terminal_names,
)

__all__ = ["DTYPE_CONTRACTS", "DtypeContractRule"]

#: The single declaration table: array-name suffix -> required dtype.
#: A name matches when it equals the key or ends with ``_<key>``
#: (``members``, ``o_members``, ``merged_members`` all bind to the
#: ``members`` contract).
DTYPE_CONTRACTS: dict[str, str] = {
    "offsets": "int64",
    "table_slices": "int64",
    "sizes": "int64",
    "sketch_rows": "int64",
    "members": "intp",
    "registers": "uint8",
    "key64": "uint64",
}

#: allocation constructors whose dtype keyword is checked.
_ALLOCATORS = {"empty", "zeros", "ones", "full", "asarray", "ascontiguousarray"}


def _contract_for(name: str) -> tuple[str, str] | None:
    for key, dtype in DTYPE_CONTRACTS.items():
        if name == key or name.endswith("_" + key):
            return key, dtype
    return None


def _call_dtype(node: ast.Call, np_names: set[str]) -> ast.AST | None:
    """The dtype expression of an allocator / ``astype`` call, if any."""
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            return keyword.value
    chain = attr_chain(node.func)
    if chain and chain[-1] == "astype" and node.args:
        return node.args[0]
    return None


def _is_allocator(node: ast.Call, np_names: set[str]) -> bool:
    chain = attr_chain(node.func)
    return (
        chain is not None
        and len(chain) == 2
        and chain[0] in np_names
        and chain[1] in _ALLOCATORS
    )


def _is_astype(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr == "astype"


@register
class DtypeContractRule(Rule):
    """Frozen CSR arrays keep their declared dtypes at every site."""

    id = "dtype-contract"
    description = (
        "CSR arrays have one declared dtype each (offsets/sizes int64, "
        "members intp, registers uint8, key64 uint64); allocations and casts "
        "must match the table in repro.analysis.rules.dtypes"
    )
    path_suffixes = ("index/",)

    def applies_to(self, sf: SourceFile) -> bool:
        return "/index/" in sf.posix_path or sf.posix_path.startswith("index/")

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        np_names = numpy_aliases(sf.tree)
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Assign):
                yield from self._check_assign(sf, node, np_names)
            elif isinstance(node, ast.Call):
                yield from self._check_rematerialise(sf, node, np_names)

    def _check_assign(
        self, sf: SourceFile, node: ast.Assign, np_names: set[str]
    ) -> Iterator[Finding]:
        """``<contracted name> = np.zeros(..., dtype=...)`` sites."""
        value = node.value
        if not isinstance(value, ast.Call):
            return
        if not (_is_allocator(value, np_names) or _is_astype(value)):
            return
        dtype_expr = _call_dtype(value, np_names)
        if dtype_expr is None:
            return
        actual = dtype_name(dtype_expr, np_names)
        if actual is None:  # dynamic dtype (e.g. members.dtype) — trust it
            return
        for target in node.targets:
            name = self._target_name(target)
            if name is None:
                continue
            contract = _contract_for(name)
            if contract is not None and actual != contract[1]:
                key, expected = contract
                yield self.finding(
                    sf,
                    value,
                    f"{name} is a {key!r} array (contract dtype "
                    f"{expected}) but is allocated/cast as {actual}",
                )

    def _check_rematerialise(
        self, sf: SourceFile, node: ast.Call, np_names: set[str]
    ) -> Iterator[Finding]:
        """``np.asarray(<reads a contracted array>, dtype=...)`` sites.

        Re-materialising a stored CSR array under another dtype is the
        silent-drift path the assignment check cannot see (the result
        is often passed straight into a constructor).  ``astype`` is
        deliberately *not* source-checked: an explicit value conversion
        (``registers.astype(float64)`` for estimation math) is fine.
        """
        chain = attr_chain(node.func)
        if not (
            chain is not None
            and len(chain) == 2
            and chain[0] in np_names
            and chain[1] in ("asarray", "ascontiguousarray")
            and node.args
        ):
            return
        dtype_expr = _call_dtype(node, np_names)
        if dtype_expr is None:
            return
        actual = dtype_name(dtype_expr, np_names)
        if actual is None:
            return
        for name in terminal_names(node.args[0]):
            contract = _contract_for(name)
            if contract is not None and actual != contract[1]:
                key, expected = contract
                yield self.finding(
                    sf,
                    node,
                    f"re-materialising {key!r} data (contract dtype "
                    f"{expected}) as {actual}; keep the stored dtype",
                )
                return

    @staticmethod
    def _target_name(target: ast.AST) -> str | None:
        if isinstance(target, ast.Name):
            return target.id
        if isinstance(target, ast.Attribute):
            return target.attr
        return None
