"""Layer 3 — concurrency linter.

Static AST checks over the repository's own sources for the process-mode
hazards the staged engine is exposed to, plus one dynamic check wired into
the scheduler:

``conc/lambda-task``
    A lambda or nested function handed to process-bound execution: as the
    ``fn`` of a ``Task(kind="cpu", ...)`` (the scheduler routes those to the
    :class:`~repro.engine.scheduler.executors.ProcessExecutor`), or directly
    to ``<process executor>.submit(...)``.  Such callables do not pickle, so
    the task fails at dispatch on every process-pool configuration.

``conc/unpicklable-context-field``
    A :class:`~repro.engine.context.StageContext`-style class (any class
    declaring ``_UNPICKLABLE``) with a field whose annotation names a known
    process-bound type but is missing from ``_UNPICKLABLE`` — pickling the
    context would drag caches, locks or SQLite handles across the process
    boundary.  Also flags ``_UNPICKLABLE`` entries that name no field.

``conc/global-mutation``
    Mutation of a module-level mutable binding from inside a function —
    rebinding through ``global``, calling a container mutator
    (``append``/``update``/...), or subscript assignment — without an
    enclosing ``with <...lock...>:`` block.  Task bodies run on pool threads;
    unlocked module state is a data race.  (WARNING severity: import-time
    registration functions legitimately do this and carry suppressions.)

``conc/unordered-resource``
    Dynamic: two scheduler tasks declaring the same ``meta["resources"]``
    entry (e.g. a store namespace) must be connected by a dependency path,
    otherwise their store writes race.  Checked by
    :func:`check_task_resources`, invoked from ``Scheduler.submit`` whenever
    a submitted batch declares resources.

Findings are suppressed with an inline pragma on the flagged line or the
line above::

    _REGISTRY[name] = rule  # korch-lint: ignore[conc/global-mutation] import-time only
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, Sequence

from ...diagnostics import Diagnostic, Severity

__all__ = ["lint_source", "lint_paths", "check_task_resources"]

_PRAGMA = re.compile(r"korch-lint:\s*ignore\[([a-z0-9/_,\s-]+)\]")

#: Annotation names that must never cross a process boundary inside a
#: pickled context (locks, pools, SQLite-backed caches, engine collaborators).
_UNPICKLABLE_TYPES = {
    "FissionEngine",
    "KernelOrchestrationOptimizer",
    "PrimitiveGraphOptimizer",
    "TuningTally",
    "CacheStore",
    "PlanCache",
    "PersistentProfileCache",
    "Lock",
    "RLock",
    "Condition",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "Executor",
    "Scheduler",
}

#: Container methods that mutate their receiver in place.
_MUTATORS = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
}


def _suppressed(lines: Sequence[str], lineno: int, rule: str) -> bool:
    """Pragma on the flagged line or the line directly above."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines):
            match = _PRAGMA.search(lines[candidate - 1])
            if match and rule in [part.strip() for part in match.group(1).split(",")]:
                return True
    return False


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name rendering of an expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    if isinstance(node, ast.Call):
        return _dotted(node.func)
    return ""


def _is_lockish(expr: ast.expr) -> bool:
    return "lock" in _dotted(expr).lower()


def _module_mutables(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers (or rebound later)."""
    names: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)) or (
            isinstance(value, ast.Call) and _dotted(value.func) in {"dict", "list", "set", "deque", "defaultdict"}
        ) or isinstance(value, ast.Constant) and value.value is None
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, lines: Sequence[str], tree: ast.Module) -> None:
        self.path = path
        self.lines = lines
        self.findings: list[Diagnostic] = []
        self.module_mutables = _module_mutables(tree)
        #: Stack of per-function scopes: names of functions defined locally
        #: (a Name referring to one is a closure when shipped cross-process).
        self._local_fns: list[set[str]] = []
        #: Stack of per-function ``global``-declared names.
        self._globals_declared: list[set[str]] = []
        #: Depth of enclosing ``with <lock>`` blocks.
        self._lock_depth = 0
        #: Depth of enclosing function bodies.
        self._fn_depth = 0

    # ------------------------------------------------------------------ emit
    def _emit(
        self, rule: str, node: ast.AST, message: str, hint: str = "",
        severity: Severity = Severity.ERROR,
    ) -> None:
        lineno = getattr(node, "lineno", 1)
        if _suppressed(self.lines, lineno, rule):
            return
        self.findings.append(
            Diagnostic(
                rule=rule,
                severity=severity,
                message=message,
                location=f"{self.path}:{lineno}",
                hint=hint,
            )
        )

    # ------------------------------------------------------------- structure
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        if self._local_fns:
            self._local_fns[-1].add(node.name)
        self._local_fns.append(set())
        self._globals_declared.append(set())
        self._fn_depth += 1
        # Convention: a ``*_locked`` function is only ever called with the
        # relevant lock held; treat its whole body as guarded.
        locked_by_convention = node.name.endswith("_locked")
        if locked_by_convention:
            self._lock_depth += 1
        self.generic_visit(node)
        if locked_by_convention:
            self._lock_depth -= 1
        self._fn_depth -= 1
        self._globals_declared.pop()
        self._local_fns.pop()

    def visit_With(self, node: ast.With) -> None:
        locked = any(_is_lockish(item.context_expr) for item in node.items)
        if locked:
            self._lock_depth += 1
        self.generic_visit(node)
        if locked:
            self._lock_depth -= 1

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_unpicklable_contract(node)
        self.generic_visit(node)

    # --------------------------------------------------------- rule: lambdas
    def visit_Call(self, node: ast.Call) -> None:
        callee = _dotted(node.func)

        if callee == "Task" or callee.endswith(".Task"):
            self._check_task_call(node)

        # executor.submit(lambda: ...) where the receiver looks process-bound.
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and "process" in _dotted(node.func.value).lower()
        ):
            for arg in node.args[:1]:
                if self._is_closure(arg):
                    self._emit(
                        "conc/lambda-task",
                        arg,
                        "closure submitted to a process executor; it cannot pickle",
                        hint="hoist the function to module level and pass data as args",
                    )
        self.generic_visit(node)

    def _is_closure(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Lambda):
            return True
        if isinstance(expr, ast.Name) and any(expr.id in scope for scope in self._local_fns):
            return True
        return False

    def _check_task_call(self, node: ast.Call) -> None:
        fn_arg: ast.expr | None = None
        kind: str | None = None
        if len(node.args) >= 2:
            fn_arg = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "fn":
                fn_arg = keyword.value
            elif keyword.arg == "kind" and isinstance(keyword.value, ast.Constant):
                kind = keyword.value.value
        if fn_arg is None or kind != "cpu":
            return
        if self._is_closure(fn_arg):
            self._emit(
                "conc/lambda-task",
                fn_arg,
                'Task(kind="cpu") with a lambda/nested function: cpu tasks may '
                "run in a process pool, and closures cannot pickle",
                hint="use a module-level function (cf. run_partition_prologue)",
            )

    # ----------------------------------------- rule: unpicklable context field
    def _check_unpicklable_contract(self, node: ast.ClassDef) -> None:
        declared: tuple[str, ...] | None = None
        decl_node: ast.AST | None = None
        fields: dict[str, str] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "_UNPICKLABLE":
                        decl_node = stmt
                        if isinstance(stmt.value, (ast.Tuple, ast.List)):
                            declared = tuple(
                                el.value
                                for el in stmt.value.elts
                                if isinstance(el, ast.Constant) and isinstance(el.value, str)
                            )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields[stmt.target.id] = ast.dump(stmt.annotation)
        if declared is None:
            return

        for name in declared:
            if name not in fields:
                self._emit(
                    "conc/unpicklable-context-field",
                    decl_node,
                    f"_UNPICKLABLE names {name!r} but class {node.name} has no "
                    "such field",
                    hint="stale entry: the drop list and the dataclass drifted apart",
                )
        for name, annotation in fields.items():
            if name in declared:
                continue
            # The dump covers both real annotation expressions
            # (``Name(id='CacheStore')``) and quoted string annotations
            # (``Constant(value='CacheStore | None')``).
            bad = sorted(t for t in _UNPICKLABLE_TYPES if re.search(rf"\b{t}\b", annotation))
            if bad:
                self._emit(
                    "conc/unpicklable-context-field",
                    decl_node,
                    f"field {name!r} of {node.name} holds {bad[0]} but is not in "
                    "_UNPICKLABLE; pickling the context would ship it cross-process",
                    hint="add the field to _UNPICKLABLE and rebuild it in the worker",
                )

    # ------------------------------------------------- rule: global mutation
    def visit_Global(self, node: ast.Global) -> None:
        # The declaration is free; the unlocked *assignment* is the hazard.
        if self._globals_declared:
            self._globals_declared[-1].update(node.names)
        self.generic_visit(node)

    def _check_global_rebind(self, targets: Iterable[ast.expr], node: ast.AST) -> None:
        if not self._fn_depth or self._lock_depth or not self._globals_declared:
            return
        declared = self._globals_declared[-1]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in declared:
                self._emit(
                    "conc/global-mutation",
                    node,
                    f"unlocked rebind of module-level {target.id!r} "
                    "(declared `global` in this function)",
                    hint="guard with a module-level threading.Lock, or document "
                    "why the caller is single-threaded",
                    severity=Severity.WARNING,
                )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_subscript_mutation(node.targets)
        self._check_global_rebind(node.targets, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_subscript_mutation([node.target])
        self._check_global_rebind([node.target], node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._check_subscript_mutation(node.targets)
        self.generic_visit(node)

    def _check_subscript_mutation(self, targets: Iterable[ast.expr]) -> None:
        if not self._fn_depth or self._lock_depth:
            return
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.module_mutables
            ):
                self._emit(
                    "conc/global-mutation",
                    target,
                    f"unlocked subscript write to module-level {target.value.id!r}",
                    hint="guard with a module-level threading.Lock, or document "
                    "why the caller is single-threaded",
                    severity=Severity.WARNING,
                )

    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if (
            self._fn_depth
            and not self._lock_depth
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATORS
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in self.module_mutables
        ):
            self._emit(
                "conc/global-mutation",
                node,
                f"unlocked call to {call.func.value.id}.{call.func.attr}() mutates "
                "module-level state",
                hint="guard with a module-level threading.Lock, or document "
                "why the caller is single-threaded",
                severity=Severity.WARNING,
            )
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one Python source string; returns all findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="conc/syntax-error",
                severity=Severity.ERROR,
                message=f"cannot parse: {exc.msg}",
                location=f"{path}:{exc.lineno or 1}",
            )
        ]
    linter = _Linter(path, source.splitlines(), tree)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda d: d.location)


def lint_paths(paths: Iterable[str]) -> list[Diagnostic]:
    """Lint ``.py`` files and directories (recursively)."""
    findings: list[Diagnostic] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__pycache__")))
                for name in sorted(files):
                    if name.endswith(".py"):
                        findings.extend(_lint_file(os.path.join(root, name)))
        elif path.endswith(".py"):
            findings.extend(_lint_file(path))
    return findings


def _lint_file(path: str) -> list[Diagnostic]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), path)


# --------------------------------------------------------------------- dynamic
def check_task_resources(tasks: Sequence) -> list[Diagnostic]:
    """Dynamic check: tasks sharing a ``meta["resources"]`` entry must be
    dependency-ordered.

    Two tasks that both touch the same store namespace (or any other named
    resource) race unless one transitively depends on the other.  Returns
    ``conc/unordered-resource`` diagnostics for every unordered pair.
    """
    by_resource: dict[str, list] = {}
    for task in tasks:
        for resource in task.meta.get("resources", ()):
            by_resource.setdefault(str(resource), []).append(task)
    if not by_resource:
        return []

    deps = {task.key: set(task.deps) for task in tasks}

    def ordered(a: str, b: str) -> bool:
        """True when a dependency path connects ``a`` and ``b`` either way."""
        for start, goal in ((a, b), (b, a)):
            stack, seen = [start], set()
            while stack:
                current = stack.pop()
                if current == goal:
                    return True
                if current in seen:
                    continue
                seen.add(current)
                stack.extend(deps.get(current, ()))
        return False

    findings: list[Diagnostic] = []
    for resource, holders in sorted(by_resource.items()):
        for i, first in enumerate(holders):
            for second in holders[i + 1 :]:
                if not ordered(first.key, second.key):
                    findings.append(
                        Diagnostic(
                            rule="conc/unordered-resource",
                            severity=Severity.ERROR,
                            message=(
                                f"tasks {first.key!r} and {second.key!r} both touch "
                                f"resource {resource!r} without a dependency path "
                                "between them"
                            ),
                            location=f"task {first.key!r}",
                            hint="add a dep edge so the accesses are serialized",
                        )
                    )
    return findings
