"""Wire rule: nothing pickles on the shard wire.

The shard carriers speak one versioned frame
(:mod:`repro.service.transport`): a JSON header and raw array buffers
that a receiver parses, never executes.  ``pickle.loads`` on bytes from
a network peer is remote code execution by design, and a
``multiprocessing`` connection pickles implicitly — its ``send(obj)``
and ``recv()`` are ``pickle.dumps`` / ``pickle.loads`` behind a length
prefix.  Inside ``service/`` and ``faults/`` this rule flags:

* importing a pickling module (``pickle``, ``_pickle``, ``cloudpickle``,
  ``dill``, ``multiprocessing.reduction``), and every use of one;
* creating a ``multiprocessing`` connection — a ``Pipe()`` or
  ``Client()`` call, whatever it is reached through — and every
  ``send`` / ``recv`` on a name or attribute bound to one in the same
  module.

``multiprocessing.connection.wait`` stays allowed: it only waits on
descriptors, and the pool's exchange loop waits on its sockets with it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Finding, Rule, SourceFile, register
from repro.analysis.rules._ast_util import attr_chain

__all__ = ["WirePickleRule"]

#: modules whose whole purpose is (un)pickling.
_PICKLERS = (
    "pickle", "_pickle", "cPickle", "cloudpickle", "dill", "multiprocessing.reduction",
)

#: callables that return a pickling ``multiprocessing`` connection.
_CONNECTION_FACTORIES = ("Pipe", "Client")

#: the connection methods that pickle implicitly.
_PICKLING_METHODS = ("send", "recv")


def _targets(node: ast.AST) -> Iterator[str]:
    """Every name or dotted attribute an assignment target binds."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _targets(element)
    elif isinstance(node, (ast.Name, ast.Attribute)):
        yield ast.unparse(node)


@register
class WirePickleRule(Rule):
    """No pickle, and no implicitly pickling connection, in service/ or faults/."""

    id = "wire-pickle"
    description = (
        "the shard wire speaks frames, never pickle: no pickling module, "
        "and no multiprocessing Pipe()/Client() connection (whose "
        "send()/recv() pickle implicitly) under service/ and faults/"
    )

    def applies_to(self, sf: SourceFile) -> bool:
        path = sf.posix_path
        return any(f"/{d}/" in path or path.startswith(f"{d}/") for d in ("service", "faults"))

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        aliases: set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _PICKLERS:
                        aliases.add(alias.asname or alias.name)
                        yield self.finding(
                            sf, node, f"imports {alias.name}; frame the message instead"
                        )
            elif isinstance(node, ast.ImportFrom) and node.module in _PICKLERS:
                yield self.finding(
                    sf, node, f"imports from {node.module}; frame the message instead"
                )

        connections: set[str] = set()
        for node in ast.walk(sf.tree):
            if isinstance(node, ast.Attribute):
                chain = attr_chain(node)
                if chain and chain[0] in aliases:
                    yield self.finding(
                        sf, node, f"{'.'.join(chain)} pickles; frame the message instead"
                    )
            elif isinstance(node, ast.Assign) and self._is_connection_factory(node.value):
                for target in node.targets:
                    connections.update(_targets(target))
            if isinstance(node, ast.Call) and self._is_connection_factory(node):
                name = ast.unparse(node.func)
                yield self.finding(
                    sf, node,
                    f"{name}() makes a multiprocessing connection, whose send()/recv() "
                    "pickle; use a socket that speaks frames",
                )

        for node in ast.walk(sf.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PICKLING_METHODS
                and ast.unparse(node.func.value) in connections
            ):
                receiver = ast.unparse(node.func.value)
                yield self.finding(
                    sf, node,
                    f"{receiver}.{node.func.attr}() pickles through a multiprocessing "
                    "connection; send frames over a socket instead",
                )

    @staticmethod
    def _is_connection_factory(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = attr_chain(node.func)
        return bool(chain) and chain[-1] in _CONNECTION_FACTORIES
