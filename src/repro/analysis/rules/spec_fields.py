"""Spec-field plumb-through rule: no dead spec configuration.

Every field declared on :class:`repro.api.spec.IndexSpec` and
:class:`repro.api.spec.QuerySpec` must be consumed somewhere in the
layers that act on a spec — for ``IndexSpec`` the facade build path
or the persistence layer; for ``QuerySpec``
the facade query path or the JSON-lines stream front-end.  A field no
consumer reads is configuration that silently does nothing: the spec
validates it, round-trips it through JSON, and then it falls on the
floor (the exact failure mode this rule exists to catch when a new
knob is added to a spec but not wired through).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from repro.analysis.core import Finding, ProjectRule, SourceFile, register

#: where the specs are declared.
SPEC_FILE = "api/spec.py"

#: spec class -> the files at least one of which must read each field.
SPEC_CONSUMERS: dict[str, tuple[str, ...]] = {
    "IndexSpec": ("api/facade.py", "api/persist.py"),
    "QuerySpec": ("api/facade.py", "service/stream.py"),
}


def _spec_fields(
    sf: SourceFile, spec_class: str
) -> list[tuple[str, ast.AnnAssign]]:
    """The declared dataclass fields of ``spec_class``, in order."""
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef) and node.name == spec_class:
            return [
                (stmt.target.id, stmt)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not stmt.target.id.startswith("_")
            ]
    return []


def _consumed_names(files: Sequence[SourceFile]) -> set[str]:
    """Attribute names and string keys the consumer files read."""
    names: set[str] = set()
    for sf in files:
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            elif isinstance(node, ast.keyword) and node.arg is not None:
                names.add(node.arg)
    return names


@register
class SpecPlumbThroughRule(ProjectRule):
    """Every ``IndexSpec``/``QuerySpec`` field reaches a consumer layer."""

    id = "spec-plumb"
    description = (
        "every IndexSpec field must be read by the facade or persistence "
        "layer and every QuerySpec field by the facade "
        "or the stream front-end; a field no consumer reads is dead "
        "configuration"
    )
    path_suffixes = (SPEC_FILE,) + tuple(
        sorted({f for consumers in SPEC_CONSUMERS.values() for f in consumers})
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        spec_files = [sf for sf in files if sf.matches((SPEC_FILE,))]
        if not spec_files:
            return
        for spec_class, consumer_paths in SPEC_CONSUMERS.items():
            consumers = [sf for sf in files if sf.matches(consumer_paths)]
            if not consumers:
                # Partial invocations (e.g. a single-file check) cannot
                # evaluate plumb-through; stay silent rather than guess.
                continue
            consumed = _consumed_names(consumers)
            for sf in spec_files:
                for name, node in _spec_fields(sf, spec_class):
                    if name not in consumed:
                        yield self.finding(
                            sf,
                            node,
                            f"{spec_class}.{name} is validated and "
                            f"persisted but never consumed by "
                            f"{', '.join(consumer_paths)}; wire it "
                            f"through or remove it",
                        )
