"""The yasklint rule catalogue: YASK project invariants as AST checks.

Each rule documents *which convention it encodes and why the codebase
depends on it*; ``docs/DEVELOPMENT.md`` carries the operator-facing
catalogue.  Scope patterns are :mod:`fnmatch` globs over the scanned
relpath (slash-agnostic, so they work from any scan root); ``approved``
paths are the modules that implement the invariant and are therefore
exempt inside it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from tools.analysis.yasklint import File, Scope, Violation, register

# ---------------------------------------------------------------------------
# helpers


def _terminal_name(node: ast.expr) -> str:
    """The last identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _receiver_names(node: ast.expr) -> tuple[str, ...]:
    """Every identifier along a Name/Attribute chain, outermost last."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _violation(file: File, node: ast.AST, rule_id: str, message: str) -> Violation:
    return Violation(
        path=file.relpath,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        rule_id=rule_id,
        message=message,
    )


# ---------------------------------------------------------------------------
# YASK101 — mutations must flow through the engine's write-ahead path


@register(
    "YASK101",
    "no direct MutableDatabase.apply / WAL writes outside the engine's "
    "write-ahead path (api.py, wal.py, mutations.py)",
    Scope(
        include=("*repro/*",),
        approved=(
            "*repro/service/api.py",
            "*repro/service/wal.py",
            "*repro/core/mutations.py",
        ),
    ),
)
def check_mutation_path(file: File) -> Iterator[Violation]:
    """Durability rests on WAL-append-then-apply under one write lock.

    ``YaskEngine.apply_mutations`` is the only correct entry point: it
    appends to the WAL *inside* ``MutableDatabase.apply(pre_commit=)``
    so a batch is either logged-and-applied or neither.  Calling
    ``.apply`` on a mutable database, ``.append``/``.write_snapshot``
    on a WAL, or constructing mutation coordinators elsewhere silently
    forks the history the recovery path replays.
    """
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        method = node.func.attr
        receiver = _receiver_names(node.func.value)
        terminal = receiver[-1] if receiver else ""
        lowered = terminal.lower()
        if method == "apply" and ("mutable" in lowered or "coordinator" in lowered):
            yield _violation(
                file,
                node,
                "YASK101",
                f"direct {terminal}.apply() bypasses the write-ahead path; "
                "go through YaskEngine.apply_mutations",
            )
        elif method in {"append", "write_snapshot"} and (
            lowered in {"wal", "_wal", "log", "write_ahead_log"} or "wal" in lowered
        ):
            yield _violation(
                file,
                node,
                "YASK101",
                f"direct {terminal}.{method}() writes the WAL outside the "
                "engine's write-ahead path; go through YaskEngine",
            )


# ---------------------------------------------------------------------------
# YASK102 — service-tier file writes must be atomic (tmp + os.replace)


@register(
    "YASK102",
    "file writes under service/ must use wal.py's tmp+os.replace atomic "
    "pattern, never a bare open-for-write",
    Scope(include=("*repro/service/*",), approved=("*repro/service/wal.py",)),
)
def check_atomic_writes(file: File) -> Iterator[Violation]:
    """Crash recovery assumes every on-disk artefact is whole.

    The WAL/snapshot/manifest machinery writes to a ``*.tmp`` sibling,
    fsyncs, then ``os.replace``s into place so a crash can never leave
    a half-written file where the recovery scan looks.  A bare
    ``open(path, "w")`` anywhere else in the service tier breaks that
    guarantee; route writes through ``wal.py``'s helpers.
    """
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = ""
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                mode = str(node.args[1].value)
            for keyword in node.keywords:
                if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                    mode = str(keyword.value.value)
            if any(flag in mode for flag in "wax+"):
                yield _violation(
                    file,
                    node,
                    "YASK102",
                    f"open(..., {mode!r}) writes in place; use the tmp + "
                    "os.replace atomic pattern (see service/wal.py)",
                )
        elif isinstance(func, ast.Attribute) and func.attr in {
            "write_text",
            "write_bytes",
        }:
            yield _violation(
                file,
                node,
                "YASK102",
                f".{func.attr}() writes in place; use the tmp + os.replace "
                "atomic pattern (see service/wal.py)",
            )


# ---------------------------------------------------------------------------
# YASK103 — no float ==/!= on score values outside the comparator modules

_SCOREY = re.compile(
    r"(?:^|_)(score|scores|theta|sdist|tsim|penalty|bound|rank_score)(?:$|_)"
)


def _is_scorey(node: ast.expr) -> bool:
    name = _terminal_name(node)
    return bool(name) and bool(_SCOREY.search(name.lower()))


@register(
    "YASK103",
    "no float == / != on score values outside the documented tie-rule "
    "comparators (core/kernel.py, core/scoring.py, core/sharding.py)",
    Scope(
        include=("*repro/*",),
        approved=(
            "*repro/core/kernel.py",
            "*repro/core/scoring.py",
            "*repro/core/sharding.py",
        ),
    ),
)
def check_float_score_equality(file: File) -> Iterator[Violation]:
    """The paper's tie rule is (score desc, oid asc) — *bit-for-bit*.

    The kernel/scoring/sharding trio implements that comparator once,
    operation-by-operation mirrored so scores are bit-identical across
    paths; exact float comparison is correct **only** under that parity
    contract.  Elsewhere, ``score == other`` is almost always a bug
    (use the rank machinery, or suppress with a justification when an
    exact-parity check is the point, e.g. the serving audit).
    """
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_scorey(left) or _is_scorey(right):
                yield _violation(
                    file,
                    node,
                    "YASK103",
                    "exact float == / != on a score value; tie rules must go "
                    "through the documented comparators in core/",
                )
                break


# ---------------------------------------------------------------------------
# YASK104 — @hot_path loops stay allocation-free

_HOT_BANNED_CALLS = {"getattr", "setattr", "hasattr", "vars", "dir", "eval", "exec"}


def _is_hot_path(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if _terminal_name(target) == "hot_path":
            return True
    return False


def _innermost_loops(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.For | ast.While]:
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While)):
            has_nested = any(
                isinstance(child, (ast.For, ast.While))
                for child in ast.walk(node)
                if child is not node
            )
            if not has_nested:
                yield node


def _loop_violations(file: File, loop: ast.For | ast.While, func_name: str) -> Iterator[Violation]:
    # The loop header itself (iterable expression) is setup, not body.
    body_nodes: list[ast.AST] = []
    for stmt in [*loop.body, *loop.orelse]:
        body_nodes.extend(ast.walk(stmt))
    for node in body_nodes:
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            kind = type(node).__name__
            yield _violation(
                file,
                node,
                "YASK104",
                f"{kind} inside the innermost loop of @hot_path "
                f"{func_name}(); hoist the allocation out of the per-row loop",
            )
        elif isinstance(node, ast.Try):
            yield _violation(
                file,
                node,
                "YASK104",
                f"try/except inside the innermost loop of @hot_path "
                f"{func_name}(); exception setup per row is not free — hoist it",
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _HOT_BANNED_CALLS
        ):
            yield _violation(
                file,
                node,
                "YASK104",
                f"{node.func.id}() inside the innermost loop of @hot_path "
                f"{func_name}(); dynamic lookup per row defeats the columnar kernel",
            )
        elif isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _violation(
                file,
                node,
                "YASK104",
                f"function allocation inside the innermost loop of @hot_path "
                f"{func_name}(); define it once outside the loop",
            )


@register(
    "YASK104",
    "no allocation-heavy constructs (comprehensions, getattr, try/except, "
    "lambdas) inside the innermost loops of @hot_path functions",
    Scope(include=("*",)),
)
def check_hot_path_loops(file: File) -> Iterator[Violation]:
    """PR 3's columnar kernel wins come from allocation-free row loops.

    ``@hot_path`` (``repro.core.hotpath``) marks the per-row scan loops
    in ``core/kernel.py`` and the shard scan loops in
    ``core/sharding.py``.  Setup work before the loop is fine — the
    rule polices only the *innermost* loops, where a comprehension,
    ``getattr`` or try/except re-runs once per database row and shows
    up directly in the E11/E12 floors.
    """
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_hot_path(
            node
        ):
            for loop in _innermost_loops(node):
                yield from _loop_violations(file, loop, node.name)


# ---------------------------------------------------------------------------
# YASK105 — service-tier locks carry a documented order level

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


@register(
    "YASK105",
    "no bare threading.Lock/RLock/Condition in service/; construct locks "
    "through repro.concurrency with a documented lock-order level",
    Scope(include=("*repro/service/*",)),
)
def check_bare_locks(file: File) -> Iterator[Violation]:
    """Every service-tier lock must name its place in the hierarchy.

    ``repro.concurrency.ordered_lock(name, level)`` is how a lock
    declares its level (and how the ``YASK_LOCKDEP=1`` sanitizer finds
    it).  A bare ``threading.Lock()`` is invisible to both — the
    deadlock-freedom argument in ``docs/DEVELOPMENT.md`` only covers
    levelled locks.
    """
    threading_aliases = {"threading"}
    bare_imports: set[str] = set()
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    threading_aliases.add(alias.asname or "threading")
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            for alias in node.names:
                if alias.name in _LOCK_FACTORIES:
                    bare_imports.add(alias.asname or alias.name)
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        flagged = ""
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LOCK_FACTORIES
            and isinstance(func.value, ast.Name)
            and func.value.id in threading_aliases
        ):
            flagged = f"threading.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in bare_imports:
            flagged = func.id
        if flagged:
            yield _violation(
                file,
                node,
                "YASK105",
                f"bare {flagged}() in service/; use repro.concurrency."
                "ordered_lock(name, level) so the lock carries its "
                "documented lock-order level",
            )


# ---------------------------------------------------------------------------
# YASK106 — no silently swallowed exceptions


@register(
    "YASK106",
    "no swallowed exceptions: an `except ...: pass` handler must carry a "
    "comment saying why dropping the error is safe",
    Scope(include=("*repro/*",)),
)
def check_swallowed_exceptions(file: File) -> Iterator[Violation]:
    """The degradation tier promises *honest* failure, never silent.

    Every degraded answer, shed request and tripped breaker exists
    because an error was caught and *reported* — a bare
    ``except ...: pass`` is the opposite: it turns a fault into
    silence, exactly the failure mode the chaos suite hunts.  When
    dropping an exception really is correct (best-effort cleanup,
    probing for an optional capability), say why in a comment on the
    handler or its ``pass`` body; the comment is the reviewable claim
    that silence is safe.
    """
    lines = file.source.splitlines()
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if len(node.body) != 1 or not isinstance(node.body[0], ast.Pass):
            continue
        start = node.lineno
        end = max(node.body[0].lineno, node.body[0].end_lineno or 0)
        commented = any(
            "#" in lines[lineno - 1]
            for lineno in range(start, min(end, len(lines)) + 1)
        )
        if commented:
            continue
        caught = "..." if node.type is None else ast.unparse(node.type)
        yield _violation(
            file,
            node,
            "YASK106",
            f"except {caught}: pass swallows the error silently; handle "
            "it, degrade honestly, or add a comment saying why dropping "
            "it is safe",
        )


# ---------------------------------------------------------------------------
# YASK107 — result-cache entries are written only by the executor tier

_CACHE_MUTATORS = {
    "pop",
    "popitem",
    "clear",
    "move_to_end",
    "setdefault",
    "update",
    "invalidate",
    "maintain",
}


def _is_cache_receiver(node: ast.expr) -> bool:
    names = _receiver_names(node)
    return bool(names) and "cache" in names[-1].lower()


@register(
    "YASK107",
    "no direct result-cache entry mutation outside service/executor.py; "
    "cached answers change only through the executor's "
    "execute/maintain/invalidate protocol",
    Scope(include=("*repro/*",), approved=("*repro/service/executor.py",)),
)
def check_cache_entry_mutation(file: File) -> Iterator[Violation]:
    """Answer maintenance depends on a single writer for cache entries.

    ``_ResultCache`` entries carry maintenance metadata stamped with the
    engine generation; ``_ResultCache.fetch`` / ``maintain`` /
    ``invalidate`` in ``service/executor.py`` are the only code allowed
    to create or drop them.  A ``cache.maintain(...)`` /
    ``cache.pop(...)`` / subscript write anywhere else can install an
    entry whose stamp lies about the generation it reflects — the next
    maintenance pass would then keep it and serve a wrong answer as a
    warm hit.  Route writes through ``QueryExecutor`` /
    ``WhyNotExecutor`` methods.
    """
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _CACHE_MUTATORS and _is_cache_receiver(
                node.func.value
            ):
                yield _violation(
                    file,
                    node,
                    "YASK107",
                    f"direct .{node.func.attr}() on a result cache outside "
                    "the executor tier; route the write through "
                    "QueryExecutor/WhyNotExecutor",
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_cache_receiver(
                    target.value
                ):
                    yield _violation(
                        file,
                        node,
                        "YASK107",
                        "subscript write into a result cache outside the "
                        "executor tier; route the write through "
                        "QueryExecutor/WhyNotExecutor",
                    )
                    break
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _is_cache_receiver(
                    target.value
                ):
                    yield _violation(
                        file,
                        node,
                        "YASK107",
                        "del on a result-cache entry outside the executor "
                        "tier; route the write through "
                        "QueryExecutor/WhyNotExecutor",
                    )
                    break
