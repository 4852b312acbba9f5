"""The project rule catalog for ``repro-lint``.

Each rule mechanizes one convention the stack's correctness depends on
(see ``docs/analysis.md`` for the catalog with examples):

* ``async-blocking`` — the gateway's event loop must never block;
* ``lock-discipline`` — multi-lock acquisition goes through
  ``LockManager.acquire``; plain mutexes are leaves of the hierarchy;
* ``deadline-threading`` — shard RPCs must carry an explicit timeout;
* ``seeded-determinism`` — chaos/fault/experiment code draws only from
  injected ``random.Random(seed)`` instances;
* ``snapshot-iteration`` — dict attributes shared across threads are
  snapshotted (``list(...)``) before iteration;
* ``batch-hot-path`` — the engine's hot modules stay batch-native (no
  per-record kernels over relation/delta iterators);
* ``page-edit`` — page content is edited through ``Page``'s methods,
  the one edit path, which hold the capacity guards.

Rules are deliberately syntactic: they run on one file at a time with
no import resolution, so every check is a conservative pattern over
the AST.  When a rule and reality disagree, either the code is wrong
(fix it) or the rule is too coarse (refine it here) — per-line pragmas
exist for the genuinely unfixable remainder and are forbidden in the
concurrency and cluster packages.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from .framework import Finding, LintContext, Rule, _prefix_match

__all__ = [
    "AsyncBlockingRule",
    "LockDisciplineRule",
    "DeadlineThreadingRule",
    "SeededDeterminismRule",
    "SnapshotIterationRule",
    "BatchHotPathRule",
    "PageEditRule",
    "ALL_RULES",
    "default_rules",
]


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parse output
        return "<expr>"


def _terminal_name(node: ast.expr) -> str:
    """Last identifier of a Name/Attribute chain (else '')."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


_LOCKY_NAME = re.compile(r"lock|mutex|cond", re.IGNORECASE)


def _classify_with_item(expr: ast.expr) -> tuple[str, str] | None:
    """Classify one ``with`` context expression as a lock hold.

    Returns ``(kind, receiver)`` with kind ``"rw"`` (``X.read()`` /
    ``X.write()``), ``"mgr"`` (``X.acquire(...)``, the LockManager
    API), or ``"plain"`` (a bare lock-named object), else ``None``.
    """
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr in ("read", "write"):
            return ("rw", _unparse(expr.func.value))
        if expr.func.attr == "acquire":
            return ("mgr", _unparse(expr.func.value))
        return None
    if isinstance(expr, (ast.Name, ast.Attribute)):
        if _LOCKY_NAME.search(_terminal_name(expr)):
            return ("plain", _unparse(expr))
    return None


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# async-blocking
# ----------------------------------------------------------------------
class AsyncBlockingRule(Rule):
    """No blocking work on the gateway's event loop.

    Inside ``async def`` bodies in ``repro.gateway``, and inside the
    methods of a class deriving from ``asyncio.Protocol`` /
    ``asyncio.BufferedProtocol`` (its callbacks run on the loop just
    the same): no ``time.sleep``, no ``open``, no synchronous lock
    acquisition (an un-awaited ``.acquire()`` / ``.acquire_read()`` /
    ``.acquire_write()`` or a plain ``with X.read():``), and no direct
    backend/engine calls (anything on a ``backend`` receiver) —
    blocking work must be routed through ``run_in_executor``.  Code
    inside a nested synchronous ``def`` is exempt: that is exactly the
    executor-thunk pattern.
    """

    name = "async-blocking"
    description = (
        "blocking call (sleep/file IO/lock acquire/backend work) inside an "
        "async def or a protocol callback; route it through run_in_executor"
    )
    scopes = ("repro.gateway",)

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                self._check_loop_body(ctx, node, f"async def {node.name}", findings)
            elif isinstance(node, ast.ClassDef) and any(
                _terminal_name(base) in ("Protocol", "BufferedProtocol")
                and isinstance(base, ast.Attribute)
                and _terminal_name(base.value) == "asyncio"
                for base in node.bases
            ):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        self._check_loop_body(
                            ctx, method,
                            f"protocol callback {node.name}.{method.name}",
                            findings,
                        )
        return findings

    def _check_loop_body(
        self,
        ctx: LintContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        where: str,
        findings: list[Finding],
    ) -> None:
        awaited: set[int] = set()
        executor_args: set[int] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Await):
                awaited.add(id(node.value))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run_in_executor"
            ):
                for arg in node.args:
                    for sub in ast.walk(arg):
                        executor_args.add(id(sub))

        for node in self._loop_nodes(func):
            if id(node) in executor_args:
                continue
            if isinstance(node, ast.Call):
                self._check_call(ctx, node, awaited, where, findings)
            elif isinstance(node, ast.With):
                for item in node.items:
                    kind = _classify_with_item(item.context_expr)
                    if kind is not None and kind[0] in ("rw", "mgr"):
                        findings.append(self.finding(
                            ctx, item.context_expr,
                            f"synchronous lock hold "
                            f"`with {_unparse(item.context_expr)}` inside "
                            f"{where}; it blocks the event loop",
                        ))

    def _loop_nodes(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[ast.AST]:
        """Walk the body, skipping nested synchronous functions."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, ast.FunctionDef):
                continue  # executor thunks run off-loop by construction
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(
        self,
        ctx: LintContext,
        node: ast.Call,
        awaited: set[int],
        where: str,
        findings: list[Finding],
    ) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            findings.append(self.finding(
                ctx, node, "time.sleep() on the event loop; use asyncio.sleep"
            ))
            return
        if isinstance(func, ast.Name) and func.id == "open":
            findings.append(self.finding(
                ctx, node, "blocking file open() on the event loop"
            ))
            return
        if isinstance(func, ast.Attribute) and func.attr in (
            "acquire", "acquire_read", "acquire_write",
        ):
            if id(node) not in awaited:
                findings.append(self.finding(
                    ctx, node,
                    f"synchronous `{_unparse(func)}()` on the event loop",
                ))
            return
        if isinstance(func, ast.Attribute):
            receiver_names = {
                _terminal_name(part)
                for part in ast.walk(func.value)
                if isinstance(part, (ast.Name, ast.Attribute))
            }
            if "backend" in receiver_names:
                findings.append(self.finding(
                    ctx, node,
                    f"direct backend call `{_unparse(node.func)}` inside "
                    f"{where}; engine work belongs on a worker thread or "
                    f"run_in_executor",
                ))


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
class LockDisciplineRule(Rule):
    """The lock hierarchy is world RW → LockManager.acquire → mutexes.

    Two patterns violate it (per function, syntactically):

    * acquiring *any* reader-writer lock (``with X.read()``, ``with
      X.write()``, ``LockManager.acquire``, or a direct
      ``acquire_read``/``acquire_write`` call) while a plain mutex is
      held — mutexes are leaves; a thread that sleeps on an RWLock
      while pinning a mutex invites deadlock;
    * nesting ``with A.read()/write()`` inside ``with B.read()/write()``
      for distinct ``A``/``B`` — multi-lock acquisition must go through
      ``LockManager.acquire``'s canonical sorted order.

    Re-entrant holds of the *same* receiver are allowed (RWLock write
    is re-entrant and read-under-write is a documented no-op).
    """

    name = "lock-discipline"
    description = (
        "nested RWLock acquisition outside LockManager.acquire, or an "
        "RWLock taken while holding a plain mutex"
    )
    scopes = ("repro",)
    excludes = ("repro.concurrency.locks", "repro.analysis")

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for func in _functions(ctx.tree):
            self._walk(ctx, func.body, [], findings)
        return findings

    def _walk(
        self,
        ctx: LintContext,
        body: Sequence[ast.stmt],
        held: list[tuple[str, str]],
        findings: list[Finding],
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(ctx, stmt.body, [], findings)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                entered: list[tuple[str, str]] = []
                for item in stmt.items:
                    kind = _classify_with_item(item.context_expr)
                    if kind is None:
                        continue
                    self._check_entry(ctx, item.context_expr, kind, held + entered,
                                      findings)
                    entered.append(kind)
                self._walk(ctx, stmt.body, held + entered, findings)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("acquire_read", "acquire_write")
                ):
                    self._check_entry(
                        ctx, node, ("rw", _unparse(node.func.value)), held,
                        findings,
                    )
            for child_body in _nested_bodies(stmt):
                self._walk(ctx, child_body, held, findings)

    def _check_entry(
        self,
        ctx: LintContext,
        node: ast.AST,
        entry: tuple[str, str],
        held: list[tuple[str, str]],
        findings: list[Finding],
    ) -> None:
        kind, receiver = entry
        if kind not in ("rw", "mgr"):
            return
        plain = next((h for h in held if h[0] == "plain"), None)
        if plain is not None:
            findings.append(self.finding(
                ctx, node,
                f"RWLock acquisition on `{receiver}` while holding plain "
                f"lock `{plain[1]}`; mutexes are leaves of the lock "
                f"hierarchy",
            ))
            return
        if kind == "rw":
            other = next(
                (h for h in held if h[0] == "rw" and h[1] != receiver), None
            )
            if other is not None:
                findings.append(self.finding(
                    ctx, node,
                    f"nested RWLock acquisition (`{other[1]}` then "
                    f"`{receiver}`) outside LockManager.acquire; multi-lock "
                    f"sets must use the canonical sorted order",
                ))


def _nested_bodies(stmt: ast.stmt) -> Iterator[Sequence[ast.stmt]]:
    """Statement bodies nested under control flow (not with/def)."""
    for field in ("body", "orelse", "finalbody"):
        body = getattr(stmt, field, None)
        if body and not isinstance(stmt, (ast.With, ast.AsyncWith,
                                          ast.FunctionDef, ast.AsyncFunctionDef)):
            yield body
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body


# ----------------------------------------------------------------------
# deadline-threading
# ----------------------------------------------------------------------
class DeadlineThreadingRule(Rule):
    """Shard RPCs carry an explicit deadline.

    In ``repro.cluster`` and ``repro.gateway``, any ``X.call("op", ...)``,
    ``X.call_primary("op", ...)`` or their leg forms ``X.exchange("op",
    ...)`` / ``X.primary_leg("op", ...)`` — recognized by the
    string-literal op name — and any replica-set leg started with
    ``X.query_leg(...)``, ``X.update_leg(...)`` or ``X.refresh_leg(...)``
    must pass ``timeout=<expr>`` where the expression is not the
    literal ``None``.  Omitting it silently falls back to the client's
    construction-time default, which is how a gateway deadline stops
    propagating at the first hop that forgot to thread it.
    """

    name = "deadline-threading"
    description = (
        "shard RPC without an explicit timeout=<deadline expression>"
    )
    scopes = ("repro.cluster", "repro.gateway")
    excludes = ("repro.cluster.rpc",)

    _METHODS = ("call", "call_primary", "exchange", "primary_leg")
    _LEGS = ("query_leg", "update_leg", "refresh_leg")

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr in self._LEGS:
                what = f"{_unparse(node.func)}(...)"
            elif (
                node.func.attr in self._METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                what = f"{_unparse(node.func)}({node.args[0].value!r}, ...)"
            else:
                continue  # not the shard RPC signature
            timeout = next(
                (kw for kw in node.keywords if kw.arg == "timeout"), None
            )
            if timeout is None:
                findings.append(self.finding(
                    ctx, node,
                    f"RPC `{what}` omits timeout=; thread the caller's "
                    f"deadline through",
                ))
            elif (
                isinstance(timeout.value, ast.Constant)
                and timeout.value.value is None
            ):
                findings.append(self.finding(
                    ctx, node,
                    f"RPC `{what}` hardcodes timeout=None; pass a "
                    f"deadline expression",
                ))
        return findings


# ----------------------------------------------------------------------
# seeded-determinism
# ----------------------------------------------------------------------
class SeededDeterminismRule(Rule):
    """Chaos, fault, demo and experiment code must be replayable from a seed.

    In the scoped packages: no module-level ``random.*`` calls (the
    shared global RNG makes schedules irreproducible), no unseeded
    ``random.Random()``, no ``from random import choice``-style imports
    of RNG functions, and no ``time.time()``-derived seeds.  RNGs are
    injected as ``random.Random(seed)``.
    """

    name = "seeded-determinism"
    description = (
        "module-level random.* / unseeded Random() / wall-clock seed in "
        "chaos, fault or experiment code"
    )
    scopes = (
        "repro.cluster.chaos",
        # The demo data and every request-stream generator the
        # experiments and the paced benchmark series are seeded from.
        "repro.service.spec",
        "repro.service.traffic",
        "repro.cluster.harness",
        "repro.workload.clients",
        "repro.durability.faults",
        "repro.resilience",
        "repro.experiments",
    )

    _ALLOWED_ATTRS = ("Random", "SystemRandom")

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                bad = [
                    alias.name for alias in node.names
                    if alias.name not in self._ALLOWED_ATTRS
                ]
                if bad:
                    findings.append(self.finding(
                        ctx, node,
                        f"importing module-level RNG function(s) "
                        f"{', '.join(bad)} from random; inject a "
                        f"random.Random(seed) instead",
                    ))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr not in self._ALLOWED_ATTRS:
                    findings.append(self.finding(
                        ctx, node,
                        f"module-level random.{func.attr}() draws from the "
                        f"shared global RNG; inject a random.Random(seed)",
                    ))
                    continue
                if func.attr == "Random":
                    self._check_seed(ctx, node, findings)
            elif isinstance(func, ast.Name) and func.id == "Random":
                self._check_seed(ctx, node, findings)
            elif isinstance(func, ast.Attribute) and func.attr == "seed":
                if self._wall_clock_arg(node) or not (node.args or node.keywords):
                    findings.append(self.finding(
                        ctx, node,
                        "re-seeding from the wall clock (or entropy) breaks "
                        "replay; seeds must be explicit",
                    ))
        return findings

    def _check_seed(
        self, ctx: LintContext, node: ast.Call, findings: list[Finding]
    ) -> None:
        if not node.args and not node.keywords:
            findings.append(self.finding(
                ctx, node,
                "unseeded Random() is entropy-seeded and irreproducible; "
                "pass an explicit seed",
            ))
        elif self._wall_clock_arg(node):
            findings.append(self.finding(
                ctx, node,
                "wall-clock-seeded Random(time.time()) is irreproducible; "
                "pass an explicit seed",
            ))

    @staticmethod
    def _wall_clock_arg(node: ast.Call) -> bool:
        seeds = list(node.args) + [kw.value for kw in node.keywords]
        for arg in seeds:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("time", "time_ns", "monotonic")
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == "time"
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# snapshot-iteration
# ----------------------------------------------------------------------
_MUTATORS = frozenset({
    "pop", "popitem", "clear", "update", "setdefault",
    "append", "extend", "insert", "remove", "add", "discard",
})


class SnapshotIterationRule(Rule):
    """Iterate shared dict attributes over a snapshot, not live.

    The SimulatedDisk race class: method A iterates ``self._x`` (or
    ``self._x.items()``) while method B — on another thread — mutates
    it, and the iteration dies with "dictionary changed size during
    iteration" (or silently skips entries).  The rule fires, in files
    that import ``threading``, on any bare ``for … in self._x`` /
    comprehension over ``self._x`` (``.items()/.keys()/.values()``
    included) where a *different* method of the same class mutates
    ``self._x`` in place, unless the iteration already sits under a
    lock hold.  Rebinding (``self._x = …``) is not in-place mutation —
    an iterator over the old object is unaffected — and wrapping the
    iterable in ``list()``/``tuple()``/``sorted()`` snapshots it.
    """

    name = "snapshot-iteration"
    description = (
        "bare iteration over a self attribute mutated by another method "
        "of a threaded class; snapshot with list(...) first"
    )
    scopes = ("repro",)
    excludes = ("repro.analysis",)

    def check(self, ctx: LintContext) -> list[Finding]:
        if not self._imports_threading(ctx.tree):
            return []
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                self._check_class(ctx, node, findings)
        return findings

    @staticmethod
    def _imports_threading(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(alias.name == "threading" for alias in node.names):
                    return True
            elif isinstance(node, ast.ImportFrom):
                if node.module == "threading":
                    return True
        return False

    def _check_class(
        self, ctx: LintContext, cls: ast.ClassDef, findings: list[Finding]
    ) -> None:
        methods = [
            stmt for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        mutated: dict[str, set[str]] = {}
        for method in methods:
            for attr in self._mutated_attrs(method):
                mutated.setdefault(attr, set()).add(method.name)
        if not mutated:
            return
        for method in methods:
            for attr, node, protected in self._iterations(method):
                if protected:
                    continue
                others = mutated.get(attr, set()) - {method.name}
                if others:
                    verb = "mutates" if len(others) == 1 else "mutate"
                    findings.append(self.finding(
                        ctx, node,
                        f"`{cls.name}.{method.name}` iterates `self.{attr}` "
                        f"live while {self._describe(others)} {verb} it "
                        f"in place; snapshot with list(...) first",
                    ))

    @staticmethod
    def _describe(methods: set[str]) -> str:
        names = sorted(methods)
        if len(names) == 1:
            return f"`{names[0]}`"
        return "`" + "`, `".join(names[:-1]) + f"` and `{names[-1]}`"

    @staticmethod
    def _self_attr(node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _mutated_attrs(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[str]:
        attrs: set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = self._self_attr(target.value)
                        if attr is not None:
                            attrs.add(attr)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = self._self_attr(target.value)
                        if attr is not None:
                            attrs.add(attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                attr = self._self_attr(node.func.value)
                if attr is not None:
                    attrs.add(attr)
        return attrs

    def _iterations(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[tuple[str, ast.AST, bool]]:
        """Yield (attr, node, lock_protected) for each bare iteration."""
        protected_ids = self._lock_protected_nodes(method)
        for node in ast.walk(method):
            iters: list[tuple[ast.expr, ast.AST]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append((node.iter, node))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    iters.append((gen.iter, node))
            for expr, at in iters:
                attr = self._iterated_attr(expr)
                if attr is not None:
                    yield attr, at, id(at) in protected_ids

    def _iterated_attr(self, expr: ast.expr) -> str | None:
        attr = self._self_attr(expr)
        if attr is not None:
            return attr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("items", "keys", "values")
            and not expr.args
        ):
            return self._self_attr(expr.func.value)
        return None

    def _lock_protected_nodes(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> set[int]:
        """ids of nodes syntactically under a lock-holding ``with``."""
        protected: set[int] = set()

        def visit(node: ast.AST, under_lock: bool) -> None:
            if under_lock:
                protected.add(id(node))
            lock_here = under_lock
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    _classify_with_item(item.context_expr) is not None
                    for item in node.items
                ):
                    lock_here = True
            for child in ast.iter_child_nodes(node):
                visit(child, lock_here)

        visit(method, False)
        return protected


class BatchHotPathRule(Rule):
    """Keep the engine hot path batch-native.

    The vectorization work (columnar batches, selection vectors) moved
    the per-tuple kernels — predicate screening, net-change toggling,
    delta projection — into batch methods.  This rule guards against
    regressions: in the hot modules it flags any ``for`` loop or
    comprehension that iterates a relation/delta source (``scan*``,
    ``range_scan``, ``.inserted``/``.deleted``) *and* does per-record
    kernel work in its body (``matches``/``project``/``combine``/
    ``screen``/``_unwrap`` calls, or ``Record``/``ViewTuple``
    construction).  Bookkeeping loops (folding deltas into base files,
    merging sets) iterate the same sources without per-record kernel
    calls and stay clean; the tuple-at-a-time reference formulations
    live in ``repro.maintenance.reference``, outside this rule's scope.

    A second pattern keeps the maintenance internals behind their
    interface everywhere *outside* ``repro.maintenance``: a
    ``getattr``/``hasattr`` probe for ``matview``, ``store``,
    ``_markers`` or ``_track_outer`` guesses a view implementation's
    model from its attributes.  Strategies and models answer those
    questions themselves (``model.read``,
    ``model.free``, ``state_doc``/``restore_state``,
    ``model.stored_files``).  Likewise relations, everywhere outside
    ``repro.hr``: they state ``organisation``, ``organised_on``,
    ``base``, ``differential`` and ``pending``, so an ``isinstance``
    against a relation class or a probe for ``base`` re-derives a fact
    for one subclass and silently misses its siblings.
    """

    name = "batch-hot-path"
    description = (
        "per-record loop over a relation/delta iterator doing per-tuple "
        "kernel work in a hot module (use the batch kernels: "
        "matches_batch / screen_batch / _net_from_entries), or a "
        "getattr/hasattr probe of view-implementation internals outside "
        "repro.maintenance, or a class probe of a relation (isinstance, or "
        "getattr/hasattr for `base`) outside repro.hr"
    )
    scopes = ("repro",)

    _HOT_MODULES = ("repro.views.delta", "repro.maintenance.screening", "repro.hr")
    _VIEW_INTERNALS = frozenset({"matview", "store", "_markers", "_track_outer"})
    _RELATION_CLASSES = frozenset({
        "ClusteredRelation", "HashedRelation", "DifferentialRelation",
        "HypotheticalRelation", "SeparateFilesHR", "HashedHypotheticalRelation",
    })

    _SCAN_CALLS = frozenset(
        {"scan", "scan_all", "scan_logical", "range_scan", "scan_range"}
    )
    _DELTA_ATTRS = frozenset({"inserted", "deleted"})
    _WORK_CALLS = frozenset({"matches", "project", "combine", "screen", "_unwrap"})
    _WORK_CTORS = frozenset({"Record", "ViewTuple"})

    def check(self, ctx: LintContext) -> list[Finding]:
        hot = any(_prefix_match(ctx.module, prefix) for prefix in self._HOT_MODULES)
        outside = not _prefix_match(ctx.module, "repro.maintenance")
        outside_hr = not _prefix_match(ctx.module, "repro.hr")
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if outside and (probed := self._probed(node, self._VIEW_INTERNALS)):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"probe of view-implementation internal {probed!r}; ask "
                        "the strategy or its model instead of guessing from "
                        "attributes",
                    )
                )
            if outside_hr and (asked := self._relation_probe(node)):
                findings.append(self.finding(
                    ctx, node,
                    f"probe of a relation's class ({asked}); read the facts "
                    "every relation states instead",
                ))
            if not hot:
                continue
            for iter_expr, body, anchor in self._loops(node):
                source = self._record_source(iter_expr)
                if source is None:
                    continue
                work = self._per_record_work(body)
                if work is None:
                    continue
                findings.append(
                    self.finding(
                        ctx,
                        anchor,
                        f"per-record loop over {source} calls {work} per tuple; "
                        "route this through the batch kernel",
                    )
                )
        return findings

    @staticmethod
    def _probed(node: ast.AST, names: frozenset[str] | set[str]) -> str | None:
        """Which of ``names`` a ``getattr``/``hasattr`` call probes for."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in names
        ):
            return node.args[1].value
        return None

    def _relation_probe(self, node: ast.AST) -> str | None:
        """The relation class(es) an ``isinstance`` names, or ``base``."""
        if (
            isinstance(node, ast.Call)
            and _terminal_name(node.func) == "isinstance"
            and len(node.args) == 2
        ):
            named = {_terminal_name(sub) for sub in ast.walk(node.args[1])}
            return ", ".join(sorted(named & self._RELATION_CLASSES)) or None
        return self._probed(node, {"base"})

    @staticmethod
    def _loops(
        node: ast.AST,
    ) -> Iterator[tuple[ast.expr, list[ast.AST], ast.AST]]:
        """Yield (iterable, body nodes, anchor) for loop-shaped nodes."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, [*node.body, *node.orelse], node
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            body: list[ast.AST] = [node.elt]
            for gen in node.generators:
                body.extend(gen.ifs)
            for gen in node.generators:
                yield gen.iter, body, node
        elif isinstance(node, ast.DictComp):
            body = [node.key, node.value]
            for gen in node.generators:
                body.extend(gen.ifs)
            for gen in node.generators:
                yield gen.iter, body, node

    def _record_source(self, iter_expr: ast.expr) -> str | None:
        """Name of the relation/delta source iterated, if any."""
        for sub in ast.walk(iter_expr):
            if isinstance(sub, ast.Call):
                name = _terminal_name(sub.func)
                if name in self._SCAN_CALLS:
                    return f"{name}()"
            elif isinstance(sub, ast.Attribute) and sub.attr in self._DELTA_ATTRS:
                return f".{sub.attr}"
        return None

    def _per_record_work(self, body: Sequence[ast.AST]) -> str | None:
        """Name of the per-tuple kernel call in the loop body, if any."""
        for stmt in body:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                if (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in self._WORK_CALLS
                ):
                    return f"{sub.func.attr}()"
                if isinstance(sub.func, ast.Name) and sub.func.id in self._WORK_CTORS:
                    return f"{sub.func.id}()"
        return None


# ----------------------------------------------------------------------
# page-edit
# ----------------------------------------------------------------------
class PageEditRule(Rule):
    """Page content is edited only by ``Page``'s own methods.

    They are the one edit path and hold the capacity guards (a full
    page refuses an add, a leaf takes one extra entry before its split
    and no more), so an edit of ``records`` that goes around
    :class:`repro.storage.pager.Page` can overfill a page silently or
    change a list the persisted image shares.  In the storage,
    hypothetical-relation, view, maintenance and
    resilience packages — everything that holds a page — the rule fires
    on any assignment to a ``.records`` attribute or to an index or
    slice of one, any ``del`` of the same, and any list-mutating method
    called on one.  ``repro.storage.pager`` itself is excluded.
    """

    name = "page-edit"
    description = (
        "direct edit of a page's .records (assignment, del, or a mutating "
        "list method) outside repro.storage.pager; use the Page edit "
        "methods, the one edit path, which hold the capacity guards"
    )
    scopes = (
        "repro.storage", "repro.hr", "repro.views", "repro.maintenance",
        "repro.resilience",
    )
    excludes = ("repro.storage.pager",)

    _LIST_MUTATORS = frozenset(
        {"append", "insert", "extend", "pop", "remove", "reverse", "sort", "clear"}
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                edited, verb = node.targets, "assignment to"
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                edited, verb = [node.target], "assignment to"
            elif isinstance(node, ast.Delete):
                edited, verb = node.targets, "del of"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._LIST_MUTATORS
            ):
                edited, verb = [node.func.value], f".{node.func.attr}() on"
            else:
                continue
            for target in edited:
                for records in self._records_edited(target):
                    findings.append(self.finding(
                        ctx, node,
                        f"{verb} `{_unparse(records)}` edits a page around "
                        f"its capacity guards; use the Page edit methods",
                    ))
        return findings

    def _records_edited(self, target: ast.expr) -> Iterator[ast.Attribute]:
        """The ``X.records`` expressions a target (or receiver) edits."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._records_edited(element)
        elif isinstance(target, ast.Starred):
            yield from self._records_edited(target.value)
        elif isinstance(target, ast.Subscript):
            yield from self._records_edited(target.value)
        elif isinstance(target, ast.Attribute) and target.attr == "records":
            yield target


ALL_RULES: tuple[type[Rule], ...] = (
    AsyncBlockingRule,
    LockDisciplineRule,
    DeadlineThreadingRule,
    SeededDeterminismRule,
    SnapshotIterationRule,
    BatchHotPathRule,
    PageEditRule,
)


def default_rules(names: Sequence[str] | None = None) -> list[Rule]:
    """Instantiate the catalog, optionally filtered to ``names``."""
    rules = [cls() for cls in ALL_RULES]
    if names is None:
        return rules
    by_name = {rule.name: rule for rule in rules}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ValueError(
            f"unknown rule(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(by_name))}"
        )
    return [by_name[name] for name in names]
