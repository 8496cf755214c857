"""Layer 3 tests: AST concurrency lint rules and the scheduler resource check."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.analysis.verify import check_task_resources, lint_paths, lint_source
from repro.diagnostics import Severity
from repro.engine.scheduler import Scheduler, SchedulerError, SerialExecutor
from repro.engine.scheduler.task import Task

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint(code: str):
    return lint_source(textwrap.dedent(code), "test.py")


def rules(diagnostics):
    return [d.rule for d in diagnostics]


class TestLambdaTask:
    def test_lambda_to_cpu_task(self):
        """Acceptance mutation: a lambda handed to a process-bound Task."""
        found = lint('t = Task(key="k", fn=lambda: 1, kind="cpu")')
        assert rules(found) == ["conc/lambda-task"]
        assert found[0].severity is Severity.ERROR
        assert found[0].location.startswith("test.py:")

    def test_positional_fn_lambda(self):
        found = lint('t = Task("k", lambda: 1, kind="cpu")')
        assert rules(found) == ["conc/lambda-task"]

    def test_nested_function_to_cpu_task(self):
        found = lint(
            """
            def build():
                def work():
                    return 1
                return Task(key="k", fn=work, kind="cpu")
            """
        )
        assert rules(found) == ["conc/lambda-task"]

    def test_default_kind_tasks_are_fine(self):
        """Thread-pool tasks may close over engine state."""
        assert lint('t = Task(key="k", fn=lambda: 1)') == []
        assert lint('t = Task(key="k", fn=lambda: 1, kind="default")') == []

    def test_module_level_fn_is_fine(self):
        assert lint('t = Task(key="k", fn=run_prologue, kind="cpu")') == []

    def test_closure_to_process_executor_submit(self):
        found = lint(
            """
            def go(process_pool):
                process_pool.submit(lambda: 1)
            """
        )
        assert rules(found) == ["conc/lambda-task"]

    def test_thread_executor_submit_is_fine(self):
        assert lint("def go(pool):\n    pool.submit(lambda: 1)") == []

    def test_pragma_suppresses(self):
        found = lint(
            't = Task(key="k", fn=lambda: 1, kind="cpu")'
            "  # korch-lint: ignore[conc/lambda-task] test fixture"
        )
        assert found == []


class TestUnpicklableContract:
    def test_missing_field_in_drop_list(self):
        found = lint(
            """
            class Ctx:
                _UNPICKLABLE = ("tally",)
                tally: TuningTally | None = None
                store: CacheStore | None = None
            """
        )
        assert rules(found) == ["conc/unpicklable-context-field"]
        assert "store" in found[0].message

    def test_stale_drop_list_entry(self):
        found = lint(
            """
            class Ctx:
                _UNPICKLABLE = ("gone",)
                memo: int = 0
            """
        )
        assert rules(found) == ["conc/unpicklable-context-field"]
        assert "gone" in found[0].message

    def test_complete_contract_is_clean(self):
        assert lint(
            """
            class Ctx:
                _UNPICKLABLE = ("tally", "lock")
                tally: TuningTally | None = None
                lock: RLock | None = None
                payload: list = None
            """
        ) == []

    def test_classes_without_drop_list_are_ignored(self):
        assert lint(
            """
            class Engine:
                optimizer: PrimitiveGraphOptimizer | None = None
            """
        ) == []

    def test_real_stage_context_lints_clean(self):
        """The shipped StageContext honours its own _UNPICKLABLE contract."""
        assert lint_paths([str(SRC / "engine" / "context.py")]) == []


class TestGlobalMutation:
    def test_unlocked_global_rebind(self):
        found = lint(
            """
            _CACHE = None

            def setup():
                global _CACHE
                _CACHE = {}
            """
        )
        assert rules(found) == ["conc/global-mutation"]
        assert found[0].severity is Severity.WARNING

    def test_locked_rebind_is_fine(self):
        assert lint(
            """
            import threading
            _CACHE = None
            _LOCK = threading.Lock()

            def setup():
                global _CACHE
                with _LOCK:
                    _CACHE = {}
            """
        ) == []

    def test_locked_by_convention_suffix(self):
        """``*_locked`` functions are treated as called under the lock."""
        assert lint(
            """
            _CACHE = None

            def _reset_locked():
                global _CACHE
                _CACHE = {}
            """
        ) == []

    def test_unlocked_mutator_call(self):
        found = lint(
            """
            _REGISTRY = {}

            def register(name, rule):
                _REGISTRY.update({name: rule})
            """
        )
        assert rules(found) == ["conc/global-mutation"]

    def test_unlocked_subscript_write(self):
        found = lint(
            """
            _REGISTRY = {}

            def register(name, rule):
                _REGISTRY[name] = rule
            """
        )
        assert rules(found) == ["conc/global-mutation"]

    def test_pragma_on_preceding_line_suppresses(self):
        assert lint(
            """
            _REGISTRY = {}

            def register(name, rule):
                # korch-lint: ignore[conc/global-mutation] import-time registration only
                _REGISTRY[name] = rule
            """
        ) == []

    def test_module_level_writes_are_fine(self):
        assert lint("_REGISTRY = {}\n_REGISTRY['x'] = 1") == []


class TestLintPaths:
    def test_syntax_error_is_reported_not_raised(self):
        found = lint("def broken(:\n    pass")
        assert rules(found) == ["conc/syntax-error"]

    def test_whole_package_lints_clean(self):
        """Satellite: the repository's own sources carry zero findings."""
        assert lint_paths([str(SRC)]) == []


class TestTaskResources:
    @staticmethod
    def _task(key, deps=(), resources=()):
        return Task(
            key=key, fn=lambda: None, deps=tuple(deps),
            meta={"resources": tuple(resources)} if resources else {},
        )

    def test_unordered_shared_resource(self):
        tasks = [
            self._task("a", resources=("store:plans",)),
            self._task("b", resources=("store:plans",)),
        ]
        found = check_task_resources(tasks)
        assert rules(found) == ["conc/unordered-resource"]
        assert "store:plans" in found[0].message

    def test_dependency_path_serializes_access(self):
        tasks = [
            self._task("a", resources=("store:plans",)),
            self._task("mid", deps=("a",)),
            self._task("b", deps=("mid",), resources=("store:plans",)),
        ]
        assert check_task_resources(tasks) == []

    def test_distinct_resources_are_independent(self):
        tasks = [
            self._task("a", resources=("store:plans",)),
            self._task("b", resources=("store:profiles",)),
        ]
        assert check_task_resources(tasks) == []

    def test_scheduler_rejects_unordered_resources(self):
        scheduler = Scheduler(SerialExecutor())
        try:
            tasks = [
                self._task("a", resources=("ns",)),
                self._task("b", resources=("ns",)),
            ]
            with pytest.raises(SchedulerError, match="unordered shared-resource"):
                scheduler.submit(tasks)
        finally:
            scheduler.close()

    def test_scheduler_accepts_ordered_resources(self):
        scheduler = Scheduler(SerialExecutor())
        try:
            results = scheduler.run(
                [
                    Task(key="a", fn=lambda: 1, meta={"resources": ("ns",)}),
                    Task(key="b", fn=lambda: 2, deps=("a",), meta={"resources": ("ns",)}),
                ]
            )
            assert results == {"a": 1, "b": 2}
        finally:
            scheduler.close()
