"""Tests for the ``"executor"`` backend layer (``repro.backend.executor``)."""

import os

import pytest

from repro.backend.executor import (
    BLAS_ENV_VARS,
    PROCESS_POOL,
    SERIAL,
    ExecutorBackend,
    ExecutorJob,
    ProcessPoolExecutorBackend,
    SerialExecutor,
    apply_blas_thread_cap,
    available_executor_backends,
    blas_thread_cap,
    executor_registry,
    get_executor_backend,
    resolve_executor_backend,
)
from repro.backend.registry import AUTO_BACKEND


# Module-level job callables: the process pool pickles them by reference.
def _ok_job(key, timeout=None):
    return {"key": key, "status": "done", "timeout_seen": timeout}


def _exit_job(key, timeout=None):
    os._exit(13)  # hard worker death: not interceptable in-process


def _raise_job(key, timeout=None):
    raise RuntimeError("boom")


def _system_exit_job(key, timeout=None):
    raise SystemExit(13)


def _blas_env_job(key, timeout=None):
    openblas = os.environ.get("OPENBLAS_NUM_THREADS")
    return {"key": key, "status": "done", "openblas": openblas}


def _jobs(fn_by_key):
    return [ExecutorJob(key=key, fn=fn, args=(key,)) for key, fn in fn_by_key]


class TestRegistry:
    def test_both_backends_registered(self):
        assert set(executor_registry().names()) == {SERIAL, PROCESS_POOL}

    def test_serial_always_available(self):
        available = available_executor_backends()
        assert SERIAL in available
        assert set(available) <= {SERIAL, PROCESS_POOL}

    def test_auto_resolves_to_highest_priority_available(self):
        resolved = resolve_executor_backend(AUTO_BACKEND)
        assert resolved in available_executor_backends()
        if PROCESS_POOL in available_executor_backends():
            assert resolved == PROCESS_POOL

    def test_explicit_names_resolve_to_themselves(self):
        for name in (SERIAL, PROCESS_POOL):
            assert resolve_executor_backend(name) == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            resolve_executor_backend("carrier-pigeon")

    def test_get_returns_executor_backend_instances(self):
        assert isinstance(get_executor_backend(SERIAL), SerialExecutor)
        assert isinstance(
            get_executor_backend(PROCESS_POOL), ProcessPoolExecutorBackend
        )
        assert isinstance(get_executor_backend(), ExecutorBackend)

    def test_get_rejects_non_executor_registrations(self):
        registry = executor_registry()
        registry.register("bogus-executor", object(), priority=-100)
        try:
            with pytest.raises(TypeError, match="not an ExecutorBackend"):
                get_executor_backend("bogus-executor")
        finally:
            registry.unregister("bogus-executor")


class TestSerialExecutor:
    def test_runs_in_submission_order_and_streams_results(self):
        seen = []
        results = SerialExecutor().submit_jobs(
            _jobs([("a", _ok_job), ("b", _ok_job), ("c", _ok_job)]),
            on_result=lambda key, result: seen.append(key),
        )
        assert seen == ["a", "b", "c"]
        assert {key: r["status"] for key, r in results.items()} == {
            "a": "done",
            "b": "done",
            "c": "done",
        }

    def test_timeout_passes_through_to_the_job(self):
        results = SerialExecutor().submit_jobs(
            _jobs([("a", _ok_job)]), timeout=2.5
        )
        assert results["a"]["timeout_seen"] == 2.5

    def test_system_exit_becomes_a_crash_result(self):
        results = SerialExecutor().submit_jobs(
            _jobs([("a", _ok_job), ("b", _system_exit_job), ("c", _ok_job)]),
            on_crash=lambda job, message: {
                "key": job.key,
                "status": "failed",
                "error": message,
            },
        )
        assert results["a"]["status"] == "done"
        assert results["b"]["status"] == "failed"
        assert "SystemExit" in results["b"]["error"]
        assert results["c"]["status"] == "done"

    def test_default_crash_hook_marks_failed(self):
        results = SerialExecutor().submit_jobs(_jobs([("a", _raise_job)]))
        assert results["a"]["status"] == "failed"
        assert "RuntimeError: boom" in results["a"]["error"]


class TestProcessPoolExecutor:
    def test_completes_all_jobs(self):
        results = ProcessPoolExecutorBackend().submit_jobs(
            _jobs([("a", _ok_job), ("b", _ok_job)]), workers=2
        )
        assert all(r["status"] == "done" for r in results.values())

    def test_worker_exception_becomes_a_result(self):
        results = ProcessPoolExecutorBackend().submit_jobs(
            _jobs([("a", _raise_job), ("b", _ok_job)]), workers=2
        )
        assert results["a"]["status"] == "failed"
        assert "RuntimeError" in results["a"]["error"]
        assert results["b"]["status"] == "done"

    def test_dead_worker_fails_only_the_crasher(self):
        # os._exit kills the worker outright -> BrokenProcessPool fails every
        # in-flight future; the isolation pass must pin the failure on the
        # crasher and still complete its innocent neighbours.
        results = ProcessPoolExecutorBackend().submit_jobs(
            _jobs([("a", _ok_job), ("killer", _exit_job), ("c", _ok_job)]),
            workers=2,
        )
        assert results["killer"]["status"] == "failed"
        assert "worker crashed" in results["killer"]["error"]
        assert results["a"]["status"] == "done"
        assert results["c"]["status"] == "done"

    def test_worker_sees_the_derived_blas_cap(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "sentinel")
        results = ProcessPoolExecutorBackend().submit_jobs(
            _jobs([("a", _blas_env_job), ("b", _blas_env_job)]), workers=2
        )
        for result in results.values():
            assert result["openblas"] == str(blas_thread_cap(2))
        # The export is scoped to the pool: the parent keeps its own value.
        assert os.environ["OPENBLAS_NUM_THREADS"] == "sentinel"


class TestBlasGovernance:
    def test_fair_share_formula(self):
        assert blas_thread_cap(4, cpus=8) == 2
        assert blas_thread_cap(8, cpus=8) == 1
        assert blas_thread_cap(3, cpus=8) == 2
        # Never below one thread, however oversubscribed.
        assert blas_thread_cap(16, cpus=4) == 1
        assert blas_thread_cap(1, cpus=4) == 4
        # Degenerate worker counts clamp instead of dividing by zero.
        assert blas_thread_cap(0, cpus=4) == 4

    def test_apply_cap_sets_every_env_knob(self, monkeypatch):
        for name in BLAS_ENV_VARS:
            monkeypatch.setenv(name, "sentinel")
        apply_blas_thread_cap(3)
        for name in BLAS_ENV_VARS:
            assert os.environ[name] == "3"
