"""CONC rules: thread lifecycle, resource release, lock discipline.

The fleet layer (``repro.obs``) is the only part of the tree that
spawns threads, binds sockets and holds locks, and its bugs are the
classic ones: a serving thread that outlives its server, a server
socket left bound after ``shutdown()`` raised, a blocking call made
while a collector lock is held.  These rules encode the repo's
concurrency contract on top of the :mod:`~repro.analysislint.flow` CFG:

* **CONC001** — a ``threading.Thread`` created in a fleet package must
  be daemonized, handed off (escaping the function), or ``join``-ed on
  every path to function exit.
* **CONC002** — a file/socket/server acquired in a sim or fleet package
  must be released via a context manager or on every exit path
  (``try/finally`` routes through the CFG, so a ``finally`` release
  counts).
* **CONC003** — no blocking call (``sleep``, ``join``, HTTP request,
  ``serve_forever``, ``wait``, …) inside a ``with <lock>:`` body, with
  the PAR-style one-level ``self.X()`` helper expansion.

All three rules are *obligation* checks: escapes and waivers discharge
the obligation, so over-approximation silences, never invents,
findings.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysislint import flow
from repro.analysislint.core import (
    Finding,
    SourceFile,
    SourceTree,
    call_name,
    dotted_name,
)
from repro.analysislint.rules import Rule

#: call-name last segments that block the calling thread
BLOCKING_CALLS = frozenset(
    {
        "accept",
        "getresponse",
        "http_json",
        "join",
        "recv",
        "serve_forever",
        "sleep",
        "urlopen",
        "wait",
    }
)

#: call-name last segments that acquire a releasable resource, mapped
#: to the method names that release it
ACQUIRE_CALLS: Dict[str, Set[str]] = {
    "open": {"close"},
    "open_text": {"close"},
    "socket": {"close"},
    "socketpair": {"close"},
    "HTTPServer": {"server_close"},
    "ThreadingHTTPServer": {"server_close"},
    "urlopen": {"close"},
    "HTTPConnection": {"close"},
}


def walk_own(root: ast.AST) -> Iterable[ast.AST]:
    """``ast.walk`` minus nested function/class bodies (they get their
    own CFG and their own findings)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _stmt_nodes(cfg: flow.CFG) -> Dict[int, int]:
    """id(stmt) -> CFG node id."""
    return {
        id(node.stmt): node.id for node in cfg.nodes if node.stmt is not None
    }


def _enclosing_cfg_node(
    sf: SourceFile, cfg: flow.CFG, node: ast.AST
) -> Optional[int]:
    stmt_map = _stmt_nodes(cfg)
    current: Optional[ast.AST] = node
    while current is not None:
        nid = stmt_map.get(id(current))
        if nid is not None:
            return nid
        current = sf.parent(current)
    return None


def _assign_target(sf: SourceFile, call: ast.Call) -> Optional[str]:
    """The simple name ``v`` when the call is exactly ``v = <call>``."""
    parent = sf.parent(call)
    if (
        isinstance(parent, ast.Assign)
        and parent.value is call
        and len(parent.targets) == 1
        and isinstance(parent.targets[0], ast.Name)
    ):
        return parent.targets[0].id
    if (
        isinstance(parent, ast.AnnAssign)
        and parent.value is call
        and isinstance(parent.target, ast.Name)
    ):
        return parent.target.id
    return None


def _is_with_context(sf: SourceFile, call: ast.Call) -> bool:
    """Is the call (possibly wrapped in ``closing(...)``) a ``with``
    item's context expression?"""
    node: ast.AST = call
    parent = sf.parent(node)
    if (
        isinstance(parent, ast.Call)
        and call_name(parent).rsplit(".", 1)[-1] == "closing"
    ):
        node, parent = parent, sf.parent(parent)
    if not isinstance(parent, ast.withitem):
        return False
    return parent.context_expr is node


def _calls_method_on(stmt: ast.AST, name: str, methods: Set[str]) -> bool:
    """Does this statement's *own header* call ``name.<m>()`` for any
    ``m`` in ``methods``?  (Nested statements are separate CFG nodes.)"""
    for node in flow.walk_stmt_header(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in methods
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return True
    return False


class _FlowRule(Rule):
    """Shared scoping/iteration for the per-function CFG rules."""

    def _scope(self, tree: SourceTree) -> List[SourceFile]:
        raise NotImplementedError

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in self._scope(tree):
            for func in sf.functions():
                findings.extend(self._check_function(sf, func))
        return findings

    def _check_function(
        self, sf: SourceFile, func: ast.FunctionDef
    ) -> List[Finding]:
        raise NotImplementedError


class ThreadLifecycleRule(_FlowRule):
    """CONC001: every ``threading.Thread`` created in fleet code must
    be daemonized at construction, handed off (escaped), or ``join``-ed
    on every CFG path to function exit."""

    id = "CONC001"
    title = "fleet threads must be daemonized, handed off, or joined on every exit path"
    shorthand = "thread-ok"

    def _scope(self, tree: SourceTree) -> List[SourceFile]:
        return tree.in_packages(set(self.config.fleet_packages))

    def _check_function(
        self, sf: SourceFile, func: ast.FunctionDef
    ) -> List[Finding]:
        creations = [
            node
            for node in walk_own(func)
            if isinstance(node, ast.Call)
            and call_name(node).rsplit(".", 1)[-1] == "Thread"
        ]
        if not creations:
            return []
        findings: List[Finding] = []
        cfg = None
        escapes = None
        for call in creations:
            if sf.waived(call, self.id, self.shorthand):
                continue
            if any(
                kw.arg == "daemon"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            ):
                continue
            name = _assign_target(sf, call)
            if name is None:
                findings.append(
                    self.finding(
                        sf.relpath,
                        call.lineno,
                        "Thread created without daemon=True and never "
                        "bound to a name, so it can never be joined",
                        sf.qualname(call) or func.name,
                    )
                )
                continue
            if escapes is None:
                escapes = flow.escaping_names(func)
            if name in escapes:
                continue  # ownership transferred to the caller
            if self._daemonized_later(func, name):
                continue
            if cfg is None:
                cfg = flow.build_cfg(func)
            start = _enclosing_cfg_node(sf, cfg, call)
            if start is None:  # pragma: no cover - defensive
                continue
            joined_everywhere = not flow.can_reach_exit(
                cfg,
                start,
                lambda node, _n=name: node.stmt is not None
                and _calls_method_on(node.stmt, _n, {"join"}),
            )
            if not joined_everywhere:
                findings.append(
                    self.finding(
                        sf.relpath,
                        call.lineno,
                        f"thread '{name}' is neither daemonized nor "
                        "joined on every path to function exit",
                        sf.qualname(call) or func.name,
                    )
                )
        return findings

    @staticmethod
    def _daemonized_later(func: ast.FunctionDef, name: str) -> bool:
        for node in walk_own(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and node.targets[0].attr == "daemon"
                and isinstance(node.targets[0].value, ast.Name)
                and node.targets[0].value.id == name
                and isinstance(node.value, ast.Constant)
                and node.value.value is True
            ):
                return True
        return False


class ResourceReleaseRule(_FlowRule):
    """CONC002: files/sockets/servers acquired in fleet or sim code
    must be released via a context manager, ``try/finally``, or a
    release call on every CFG path; escaping (returned, stored on an
    object, passed onward) transfers the obligation."""

    id = "CONC002"
    title = "files/sockets/servers must be released via with, finally, or on every exit path"
    shorthand = "resource-ok"

    def _scope(self, tree: SourceTree) -> List[SourceFile]:
        packages = set(self.config.fleet_packages) | set(self.config.sim_packages)
        return tree.in_packages(packages)

    def _check_function(
        self, sf: SourceFile, func: ast.FunctionDef
    ) -> List[Finding]:
        findings: List[Finding] = []
        cfg = None
        escapes = None
        for call in walk_own(func):
            if not isinstance(call, ast.Call):
                continue
            last = call_name(call).rsplit(".", 1)[-1]
            release_methods = ACQUIRE_CALLS.get(last)
            if release_methods is None:
                continue
            if sf.waived(call, self.id, self.shorthand):
                continue
            if _is_with_context(sf, call):
                continue
            name = _assign_target(sf, call)
            if name is None:
                # acquired anonymously: as a call argument, return value
                # or attribute/subscript store it escapes (conservatively
                # fine); anything else leaks
                parent = sf.parent(call)
                if isinstance(parent, (ast.Call, ast.Return, ast.Yield)):
                    continue
                if isinstance(parent, ast.keyword):
                    continue
                if isinstance(parent, ast.Assign) and any(
                    isinstance(t, (ast.Attribute, ast.Subscript))
                    for t in parent.targets
                ):
                    continue
                if isinstance(parent, ast.AnnAssign) and isinstance(
                    parent.target, (ast.Attribute, ast.Subscript)
                ):
                    continue
                findings.append(
                    self.finding(
                        sf.relpath,
                        call.lineno,
                        f"'{last}(...)' acquired without binding, context "
                        "manager, or handoff — it can never be released",
                        sf.qualname(call) or func.name,
                    )
                )
                continue
            if escapes is None:
                escapes = flow.escaping_names(func)
            if name in escapes:
                continue  # caller owns the release now
            if cfg is None:
                cfg = flow.build_cfg(func)
            start = _enclosing_cfg_node(sf, cfg, call)
            if start is None:  # pragma: no cover - defensive
                continue
            released = not flow.can_reach_exit(
                cfg,
                start,
                lambda node, _n=name, _m=release_methods: node.stmt is not None
                and _calls_method_on(node.stmt, _n, _m),
            )
            if not released:
                verbs = "/".join(sorted(release_methods))
                findings.append(
                    self.finding(
                        sf.relpath,
                        call.lineno,
                        f"'{name}' from '{last}(...)' is not released "
                        f"({verbs}) on every path to function exit — use "
                        "a context manager or try/finally",
                        sf.qualname(call) or func.name,
                    )
                )
        return findings


class LockBlockingRule(Rule):
    """CONC003: no blocking call (sleep/join/HTTP/serve/wait) may run
    inside a ``with <lock>:`` body, looking one ``self._helper()``
    level deep — a blocked holder starves every other lock user."""

    id = "CONC003"
    title = "no blocking call (sleep/join/HTTP/serve/wait) while a lock is held"
    shorthand = "blocking-ok"

    def check(self, tree: SourceTree) -> List[Finding]:
        findings: List[Finding] = []
        for sf in tree.in_packages(set(self.config.fleet_packages)):
            for stmt in ast.walk(sf.tree):
                if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                    continue
                lock_expr = self._lock_expr(stmt)
                if lock_expr is None:
                    continue
                if sf.waived(stmt.lineno, self.id, self.shorthand):
                    continue
                findings.extend(self._scan_body(sf, stmt, lock_expr))
        return findings

    @staticmethod
    def _lock_expr(stmt: ast.With) -> Optional[str]:
        for item in stmt.items:
            name = dotted_name(item.context_expr)
            last = name.rsplit(".", 1)[-1].lower()
            if "lock" in last:
                return name
        return None

    def _scan_body(
        self, sf: SourceFile, with_stmt: ast.With, lock_expr: str
    ) -> List[Finding]:
        findings: List[Finding] = []
        helper_bodies = self._helper_bodies(sf, with_stmt)
        seen_msgs: Set[str] = set()
        for body_stmt in with_stmt.body:
            for node in ast.walk(body_stmt):
                if not isinstance(node, ast.Call):
                    continue
                full = call_name(node)
                last = full.rsplit(".", 1)[-1]
                where: Optional[ast.AST] = None
                blocking = ""
                if last in BLOCKING_CALLS:
                    where, blocking = node, full
                elif (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in helper_bodies
                ):
                    # one-level self-helper expansion (PAR idiom)
                    inner = self._first_blocking(helper_bodies[node.func.attr])
                    if inner is not None:
                        where, blocking = node, f"self.{node.func.attr}() -> {inner}"
                if where is None:
                    continue
                if sf.waived(where, self.id, self.shorthand):
                    continue
                message = (
                    f"blocking call '{blocking}' while holding "
                    f"'{lock_expr}'"
                )
                if message in seen_msgs:
                    continue
                seen_msgs.add(message)
                findings.append(
                    self.finding(
                        sf.relpath,
                        where.lineno,
                        message,
                        sf.qualname(where),
                    )
                )
        return findings

    @staticmethod
    def _helper_bodies(
        sf: SourceFile, with_stmt: ast.With
    ) -> Dict[str, ast.FunctionDef]:
        """Same-class methods callable as ``self.X()`` from this
        ``with`` body."""
        current = sf.parent(with_stmt)
        while current is not None and not isinstance(current, ast.ClassDef):
            current = sf.parent(current)
        if current is None:
            return {}
        return {
            item.name: item
            for item in current.body
            if isinstance(item, ast.FunctionDef)
        }

    @staticmethod
    def _first_blocking(func: ast.FunctionDef) -> Optional[str]:
        for node in walk_own(func):
            if isinstance(node, ast.Call):
                full = call_name(node)
                if full.rsplit(".", 1)[-1] in BLOCKING_CALLS:
                    return full
        return None
