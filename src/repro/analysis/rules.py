"""The repo-specific lint rules of ``scalla-lint``.

Each rule is a class with an ``id``, a one-line ``title``, a ``rationale``
(rendered by ``--list-rules`` and quoted in ``docs/static_analysis.md``),
a path ``scope``, and a ``check(tree, ctx)`` method that walks the AST and
reports violations through the context.  Rules register themselves in
:data:`REGISTRY` via the :func:`register` decorator; the engine in
:mod:`repro.analysis.lint` discovers them there.

The rules encode the determinism and faithfulness contract of the
reproduction:

* the simulation must never read the wall clock (SIM001) or an unseeded
  global RNG (SIM002) — both would make two runs with the same seed
  diverge;
* protocol and kernel code must never iterate a ``set``/``frozenset``
  directly (SIM003) — with string keys, iteration order depends on
  ``PYTHONHASHSEED`` and varies across interpreter runs;
* simulation processes (generators driven by the event kernel) must never
  block on real sleep or I/O (SIM004) — virtual time is the only time;
* 64-bit server-vector bit construction goes through
  :mod:`repro.core.bitvec` (SCA001) so range checking and masking stay in
  one audited place;
* hash-table sizes come from the :mod:`repro.core.fibonacci` ladder
  (SCA002) — a hard-coded non-Fibonacci size silently reintroduces the
  power-of-two clustering the paper's footnote 4 measured;
* the kernel's dispatch path never allocates event objects (SCA003) —
  ``Simulator._dispatch()`` and its ``run()``/``run_until_process()``
  wrappers must route immediate wakeups through the
  deferred-resume ring and recycled timeout storage, or the allocation
  rate the ``benchmarks/perf`` suite gates on silently creeps back.

Every rule supports per-line suppression with ``# scalla-lint:
disable=RULE`` and per-file suppression with ``# scalla-lint:
disable-file=RULE`` (see :mod:`repro.analysis.lint`).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable

from repro.core.fibonacci import is_fibonacci

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint import FileContext

__all__ = ["Rule", "REGISTRY", "register", "rule_by_id"]


class Rule:
    """Base class for one lint rule."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether *path* (posix-style, repo-relative) is in scope."""
        return True

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        raise NotImplementedError


REGISTRY: list[Rule] = []


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and add the rule to the registry."""
    REGISTRY.append(cls())
    return cls


def rule_by_id(rule_id: str) -> Rule | None:
    for rule in REGISTRY:
        if rule.id == rule_id:
            return rule
    return None


# -- shared helpers -----------------------------------------------------------


def _is_sim_source(path: str) -> bool:
    """True for reproduction source files (``src/repro/**`` or ``repro/**``)."""
    return "src/repro/" in path or path.startswith("repro/")


def _root_name(node: ast.expr) -> str | None:
    """The leftmost ``Name`` of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _call_target(node: ast.Call) -> str | None:
    """Terminal callee name: ``foo()`` -> ``foo``, ``a.b.foo()`` -> ``foo``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# -- SIM001: no wall clock in simulation code ---------------------------------


@register
class NoWallClock(Rule):
    id = "SIM001"
    title = "no wall clock in simulation code"
    rationale = (
        "Simulated time (`sim.now`) is the only time there is; `time.time()`, "
        "`time.monotonic()`, `datetime.now()` and friends tie behaviour to the "
        "host clock and break run-to-run reproducibility.  Wall-clock reads "
        "belong in benchmarks, never in `src/repro`."
    )

    _TIME_FUNCS = frozenset(
        {"time", "monotonic", "perf_counter", "time_ns", "monotonic_ns", "perf_counter_ns"}
    )
    _DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

    def applies_to(self, path: str) -> bool:
        return _is_sim_source(path)

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        banned_locals: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in self._TIME_FUNCS:
                            banned_locals.add(alias.asname or alias.name)
                            ctx.report(
                                self,
                                node,
                                f"import of wall-clock function time.{alias.name}",
                            )
                elif node.module == "datetime":
                    # `from datetime import datetime` is only a type import;
                    # calling .now() on it is caught below.
                    pass
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    root = _root_name(func)
                    if root == "time" and func.attr in self._TIME_FUNCS:
                        ctx.report(self, node, f"wall-clock call time.{func.attr}()")
                    elif root in ("datetime", "date") and func.attr in self._DATETIME_FUNCS:
                        ctx.report(self, node, f"wall-clock call {root}...{func.attr}()")
                elif isinstance(func, ast.Name) and func.id in banned_locals:
                    ctx.report(self, node, f"wall-clock call {func.id}()")


# -- SIM002: no module-level random.* calls -----------------------------------


@register
class NoGlobalRandom(Rule):
    id = "SIM002"
    title = "no calls on the global `random` module"
    rationale = (
        "The shared module-level RNG is seeded (or not) globally, so any call "
        "through it couples unrelated components and defeats per-component "
        "seeding.  All randomness must flow through an explicitly seeded "
        "`random.Random` instance owned and passed by the caller."
    )

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        ctx.report(
                            self,
                            node,
                            f"`from random import {alias.name}` pulls a global-RNG "
                            "function; import random.Random and seed it",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr != "Random"
                ):
                    ctx.report(
                        self,
                        node,
                        f"call on the global RNG: random.{func.attr}(); "
                        "use a caller-seeded random.Random",
                    )


# -- SIM003: no iteration over bare sets in protocol/kernel code -----------------


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset")
    if isinstance(annotation, ast.Subscript):
        value = annotation.value
        if isinstance(value, ast.Name):
            return value.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
        if isinstance(value, ast.Attribute):
            return value.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.strip()
        return text.startswith(("set[", "frozenset[", "Set[", "FrozenSet[")) or text in (
            "set",
            "frozenset",
        )
    return False


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register
class NoSetIteration(Rule):
    id = "SIM003"
    title = "no iteration over bare set/frozenset in protocol or kernel code"
    rationale = (
        "Set iteration order over strings depends on PYTHONHASHSEED, so a "
        "`for` over a set of paths or node names makes message order differ "
        "between interpreter runs even with identical seeds.  Iterate "
        "`sorted(the_set)` (or a list/tuple/dict, which preserve order)."
    )

    def applies_to(self, path: str) -> bool:
        return _is_sim_source(path)

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        set_names = self._collect_set_names(tree)
        for node in ast.walk(tree):
            iters: list[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_valued(it, set_names):
                    ctx.report(
                        self,
                        it,
                        f"iteration over set-valued {ast.unparse(it)!r}; "
                        "order is hash-dependent — iterate sorted(...) instead",
                    )

    @staticmethod
    def _collect_set_names(tree: ast.Module) -> set[str]:
        """Names/attributes the module declares or assigns as sets.

        This is a module-wide, name-based inference — deliberately simple
        (no scopes, no cross-module types).  A false positive on a name
        that merely *shadows* a set name elsewhere in the module is the
        price, paid with a one-line suppression.
        """
        found: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign) and _is_set_annotation(node.annotation):
                target = node.target
                if isinstance(target, ast.Name):
                    found.add(target.id)
                elif isinstance(target, ast.Attribute):
                    found.add(target.attr)
            elif isinstance(node, ast.Assign) and _is_set_expression(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        found.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        found.add(target.attr)
        return found

    @staticmethod
    def _is_set_valued(node: ast.expr, set_names: set[str]) -> bool:
        if _is_set_expression(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Attribute):
            return node.attr in set_names
        return False


# -- SIM004: no blocking sleep/IO inside simulation processes --------------------


@register
class NoBlockingInProcess(Rule):
    id = "SIM004"
    title = "no blocking sleep or real I/O inside simulation generators"
    rationale = (
        "Simulation processes are generators driven by the event kernel; a "
        "`time.sleep`, `open()`, socket or subprocess call inside one stalls "
        "the single-threaded scheduler in *real* time and smuggles "
        "external state into the deterministic run.  Wait on "
        "`sim.timeout(...)` and keep I/O outside the kernel."
    )

    _BLOCKING_MODULES = frozenset({"socket", "subprocess", "requests", "urllib", "http"})
    _BLOCKING_BUILTINS = frozenset({"open", "input"})

    def applies_to(self, path: str) -> bool:
        return _is_sim_source(path)

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        sleep_aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for alias in node.names
            if alias.name == "sleep"
        }
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_generator(func):
                continue
            for node in self._walk_own_body(func):
                if isinstance(node, ast.Call):
                    self._check_call(node, ctx, sleep_aliases)

    def _check_call(self, node: ast.Call, ctx: "FileContext", sleep_aliases: set[str]) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            root = _root_name(func)
            if root == "time" and func.attr == "sleep":
                ctx.report(self, node, "time.sleep() inside a simulation process")
            elif root == "os" and func.attr in ("system", "popen"):
                ctx.report(self, node, f"os.{func.attr}() inside a simulation process")
            elif root in self._BLOCKING_MODULES:
                ctx.report(
                    self, node, f"blocking {root}.{func.attr}() inside a simulation process"
                )
        elif isinstance(func, ast.Name):
            if func.id in sleep_aliases:
                ctx.report(self, node, "time.sleep() inside a simulation process")
            elif func.id in self._BLOCKING_BUILTINS:
                ctx.report(self, node, f"{func.id}() inside a simulation process")

    @staticmethod
    def _is_generator(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in NoBlockingInProcess._walk_own_body(func):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    @staticmethod
    def _walk_own_body(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterable[ast.AST]:
        """Walk *func*'s statements without descending into nested defs."""
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))


# -- SCA001: server-bit construction goes through core.bitvec --------------------


@register
class BitvecHelpers(Rule):
    id = "SCA001"
    title = "construct server bits with bitvec.bit(), not raw `1 << i`"
    rationale = (
        "`1 << i` with a computed index silently builds vectors wider than 64 "
        "bits when the index is out of range; `bitvec.bit(i)` range-checks and "
        "keeps every bit-twiddling idiom in one audited module.  Literal "
        "shifts (`1 << 20` as a size constant) are fine."
    )

    def applies_to(self, path: str) -> bool:
        return _is_sim_source(path) and not path.endswith("core/bitvec.py")

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.LShift)
                and isinstance(node.left, ast.Constant)
                and node.left.value == 1
                and not isinstance(node.right, ast.Constant)
            ):
                ctx.report(
                    self,
                    node,
                    f"raw server-bit construction `1 << {ast.unparse(node.right)}`; "
                    "use repro.core.bitvec.bit(...)",
                )


# -- SCA002: table sizes come from the Fibonacci ladder --------------------------


@register
class FibonacciTableSizes(Rule):
    id = "SCA002"
    title = "location-table sizes only from the core.fibonacci ladder"
    rationale = (
        "The cache's collision behaviour depends on the table size being a "
        "Fibonacci number (paper footnote 4); a hard-coded non-Fibonacci size "
        "fails at construction time in the best case and skews every chain-"
        "length measurement in the worst.  Take sizes from "
        "`repro.core.fibonacci` (or pass a literal that is on the ladder)."
    )

    _TABLE_TYPES = frozenset({"LocationTable", "NameCache"})

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _call_target(node)
            if target not in self._TABLE_TYPES:
                continue
            candidates: list[ast.expr] = []
            if target == "LocationTable" and node.args:
                candidates.append(node.args[0])
            for kw in node.keywords:
                if kw.arg == "initial_size":
                    candidates.append(kw.value)
            for value in candidates:
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, int)
                    and not isinstance(value.value, bool)
                    and not is_fibonacci(value.value)
                ):
                    ctx.report(
                        self,
                        value,
                        f"table size {value.value} is not a Fibonacci number; "
                        "sizes must come from repro.core.fibonacci",
                    )


# -- SCA003: no event allocation on the kernel dispatch path ---------------------


@register
class NoDispatchAllocation(Rule):
    id = "SCA003"
    title = "no Event/Timeout/Process construction on the Simulator dispatch path"
    rationale = (
        "The dispatch loop runs once per simulated event — the hottest path "
        "in the repo, tracked by `benchmarks/perf` and gated by "
        "`scripts/check_perf.py`.  Allocating an `Event` (or `Timeout`/"
        "`Process`) there reintroduces the per-event bootstrap/poke garbage "
        "the deferred-resume ring and the pooled-timeout free list were "
        "built to remove.  Immediate wakeups go through `Simulator._defer`; "
        "delays come from the recycled `sleep()` storage."
    )

    _EVENT_TYPES = frozenset({"Event", "Timeout", "Process"})
    # The one event loop and the two wrappers that enter it.
    _DISPATCH_METHODS = frozenset({"_dispatch", "run", "run_until_process"})

    def check(self, tree: ast.Module, ctx: "FileContext") -> None:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or cls.name != "Simulator":
                continue
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if fn.name not in self._DISPATCH_METHODS:
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and _call_target(node) in self._EVENT_TYPES
                    ):
                        ctx.report(
                            self,
                            node,
                            f"`{ast.unparse(node.func)}(...)` allocated inside "
                            f"Simulator.{fn.name}(); the dispatch path must use "
                            "the deferred-resume ring / pooled timeouts instead",
                        )
