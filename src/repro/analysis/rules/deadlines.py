"""Deadline rule: no unbounded pipe or socket waits in the serving layer.

The fault-tolerance contract (PR 8) is that every blocking wait on a
worker connection is bounded — a hung or killed worker must surface as
a :class:`~repro.exceptions.DeadlineExceededError` within the policy
deadline, never as a serving thread parked forever inside ``recv()``.
The runtime chaos tests exercise that for the schedules they script;
this rule makes the *pattern* load-bearing: inside ``service/``,

* every ``<receiver>.recv()`` (or ``recv_bytes()`` / ``recv_into()``)
  call must be preceded (in the same
  function) by a bounded ``<receiver>.poll(<timeout>)`` guard on the
  textually identical receiver — the ``recv_within`` shape the
  transports use — or, for sockets, by a bounded
  ``<receiver>.settimeout(<seconds>)``;
* ``.poll(None)`` / ``.poll(timeout=None)`` is flagged outright, since
  an explicit ``None`` timeout is just ``recv()`` with extra steps, and
  ``.settimeout(None)`` is flagged for the same reason (it switches the
  socket back to blocking mode);
* the socket rendezvous calls ``.accept()`` and ``.connect()`` need the
  same bounded ``settimeout`` guard — an unbounded accept parks the
  listener thread, an unbounded connect parks a reconnect attempt on a
  black-holed peer.  (``socket.create_connection`` takes an explicit
  ``timeout=`` and is the preferred connect spelling.)

A no-argument ``poll()`` is non-blocking and therefore counts as a
guard.  Guards are matched per function scope (nested functions are
separate scopes), so a guard in one code path cannot launder a wait in
an unrelated one elsewhere in the file.  Queue waits
(``queue.Queue.get``) are out of scope — they take ``timeout=``
kwargs the runtime code already uses — as is everything outside
``service/``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Finding, Rule, SourceFile, register

__all__ = ["DeadlineRequiredRule"]

#: attribute names treated as blocking reads (pipe or socket).
_RECV_NAMES = ("recv", "recv_bytes", "recv_into")

#: socket rendezvous calls that block until the peer shows up.
_RENDEZVOUS_NAMES = ("accept", "connect")


def _scope_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _poll_timeout(node: ast.Call) -> ast.AST | None:
    """The timeout expression of a ``poll`` call, or None for no-arg."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "timeout":
            return keyword.value
    return None


def _is_none_literal(node: ast.AST | None) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register
class DeadlineRequiredRule(Rule):
    """Every pipe/socket wait in service/ sits behind a bounded guard."""

    id = "deadline-required"
    description = (
        "serving-layer pipe and socket waits must be deadline-bounded: "
        "recv() only behind a bounded poll(timeout) or settimeout(s) on "
        "the same receiver, accept()/connect() only behind a bounded "
        "settimeout(s), and poll(None)/settimeout(None) are forbidden"
    )
    path_suffixes = ("service/",)

    def applies_to(self, sf: SourceFile) -> bool:
        return "/service/" in sf.posix_path or sf.posix_path.startswith("service/")

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(sf.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(sf, node)

    def _check_function(self, sf: SourceFile, fn: ast.AST) -> Iterator[Finding]:
        # Receivers with a bounded poll() guard (pipes) and with a
        # bounded settimeout() guard (sockets); recv accepts either,
        # the rendezvous calls require the socket one.
        polled: set[str] = set()
        timed: set[str] = set()
        recv_sites: list[tuple[ast.Call, str]] = []
        rendezvous_sites: list[tuple[ast.Call, str]] = []
        for node in _scope_nodes(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = ast.unparse(node.func.value)
            if node.func.attr == "poll":
                timeout = _poll_timeout(node)
                if _is_none_literal(timeout):
                    yield self.finding(
                        sf,
                        node,
                        f"{receiver}.poll(None) blocks without a deadline; "
                        "pass a bounded timeout",
                    )
                    continue
                polled.add(receiver)
            elif node.func.attr == "settimeout":
                timeout = node.args[0] if node.args else None
                if timeout is None or _is_none_literal(timeout):
                    yield self.finding(
                        sf,
                        node,
                        f"{receiver}.settimeout(None) puts the socket back "
                        "in unbounded blocking mode; pass a bounded timeout",
                    )
                    continue
                timed.add(receiver)
            elif node.func.attr in _RECV_NAMES:
                recv_sites.append((node, receiver))
            elif node.func.attr in _RENDEZVOUS_NAMES:
                rendezvous_sites.append((node, receiver))
        for node, receiver in recv_sites:
            if receiver not in polled and receiver not in timed:
                yield self.finding(
                    sf,
                    node,
                    f"{receiver}.{node.func.attr}() has no bounded "
                    f"{receiver}.poll(timeout) or {receiver}.settimeout(s) "
                    "guard in this function; a dead or hung peer would "
                    "block the serving thread forever",
                )
        for node, receiver in rendezvous_sites:
            if receiver not in timed:
                yield self.finding(
                    sf,
                    node,
                    f"{receiver}.{node.func.attr}() has no bounded "
                    f"{receiver}.settimeout(s) guard in this function; an "
                    "absent peer would block the serving thread forever",
                )
