"""The ``"executor"`` backend registry: job-execution strategies.

PR 2 hard-wired suite execution to one local
:class:`~concurrent.futures.ProcessPoolExecutor` with in-worker ``SIGALRM``
timeouts, and ``BENCH_runner.json`` showed the cost: the scheduler itself
overlaps fine (3.4x on sleep jobs) but real numpy-heavy jobs *contend* under
the pool on small machines (0.86x).  This module generalises job execution
behind the same named-registry idiom as the ``"orbit"`` and ``"compute"``
kinds (:mod:`repro.backend.registry`): an :class:`ExecutorBackend` contract
(``submit_jobs(jobs, timeout, on_result) -> results``) with one registered
strategy per execution model:

``"serial"``
    The deterministic zero-overhead reference: jobs run inline, in
    submission order, in the calling process.  Timeouts use the in-process
    ``SIGALRM`` strategy (the job function receives the budget).  A job that
    attempts to kill the interpreter (``SystemExit`` from deep inside a
    worker-style crash) is caught and reported through ``on_crash`` instead
    of taking the suite down.

``"process-pool"``
    A local process pool, per-job timeouts enforced *inside* the worker with
    ``SIGALRM``, plus worker-crash recovery — when a worker dies mid-job
    (``BrokenProcessPool``), every job left without a result is retried once
    in an isolated single-worker pool, so the actual crasher is identified
    and marked failed while its innocent neighbours still complete.  Every
    pool caps BLAS/OpenMP threads at the fair share
    :func:`blas_thread_cap` of its worker count (see
    :class:`ProcessPoolExecutorBackend` for how far that cap reaches).

``"auto"`` resolves through the registry's priority order to
``process-pool`` when the interpreter supports it (lazy availability
probing — ``multiprocessing.synchronize`` importability), falling back to
``serial``.

The contract every job callable must honour: it is invoked as
``fn(*args, timeout=..., **kwargs)`` and should *return* its failure state
rather than raise (the runner's :func:`repro.runner.executor.execute_job`
already does), and it enforces its own ``timeout`` budget.  Backends
translate everything that escapes anyway — crashes, pool breakage — into
results built by the ``on_crash`` callback, so one bad job can never kill a
suite.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.backend.registry import AUTO_BACKEND, BackendRegistry, get_registry

#: Registry kind for job-execution backends.
EXECUTOR_KIND = "executor"

#: Registered backend names (the acceptance vocabulary).
SERIAL = "serial"
PROCESS_POOL = "process-pool"

#: The env knobs every mainstream BLAS/OpenMP build reads when it loads.
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def blas_thread_cap(workers: int, cpus: Optional[int] = None) -> int:
    """The fair per-worker BLAS thread budget: ``max(1, cpus // workers)``.

    ``workers`` parallel jobs each spinning up a full-width BLAS threadpool
    oversubscribes the box ``workers``-fold; the fair share keeps the
    total thread count at the CPU count.
    """
    cpus = cpus if cpus is not None else (os.cpu_count() or 1)
    return max(1, int(cpus) // max(1, int(workers)))


def apply_blas_thread_cap(cap: int) -> None:
    """Limit this process's BLAS/OpenMP threadpools to ``cap`` threads.

    Sets the standard env knobs, which every BLAS library loaded from now
    on honours, and additionally caps the already-loaded pools through
    :mod:`threadpoolctl` when it is importable.
    """
    cap = max(1, int(cap))
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(cap)
    try:
        import threadpoolctl
    except ImportError:
        return
    try:
        threadpoolctl.threadpool_limits(limits=cap)
    except Exception:  # pragma: no cover - a failing initializer breaks the pool
        pass


@dataclass
class ExecutorJob:
    """One unit of work handed to an executor backend.

    Attributes
    ----------
    key:
        Stable job identity (the runner uses its ``job_id``); results are
        keyed by it and the crash callback receives the job carrying it.
    fn:
        The job callable, invoked as ``fn(*args, timeout=..., **kwargs)``.
        Must be a picklable module-level callable for ``process-pool``.
    args, kwargs:
        Positional and keyword payload forwarded to ``fn``.
    """

    key: str
    fn: Callable[..., Dict[str, object]]
    args: Tuple[object, ...] = ()
    kwargs: Dict[str, object] = field(default_factory=dict)


#: Result hooks: ``on_result(key, result)`` streams completions (in
#: completion order); ``on_crash(job, message)`` builds the payload for a
#: job whose execution vehicle died.
OnResult = Optional[Callable[[str, Dict[str, object]], None]]
OnCrash = Optional[Callable[[ExecutorJob, str], Dict[str, object]]]


def _default_crash(job: ExecutorJob, message: str) -> Dict[str, object]:
    return {"key": job.key, "status": "failed", "error": message}


class ExecutorBackend:
    """Base contract of one job-execution strategy.

    Subclasses implement :meth:`submit_jobs`; results come back as a dict
    keyed by :attr:`ExecutorJob.key` and are also streamed through
    ``on_result`` in completion order.  Every job yields exactly one result
    — success, crash, or timeout — regardless of what its execution vehicle
    did, so the caller never has to reason about partial suites.
    """

    name = "base"

    def submit_jobs(
        self,
        jobs: Sequence[ExecutorJob],
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
    ) -> Dict[str, Dict[str, object]]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class SerialExecutor(ExecutorBackend):
    """Run jobs inline, in order — the deterministic reference backend.

    Matches the historical ``run_suite(jobs=1)`` path exactly: no pool, no
    pickling constraint on the job payload, timeouts via the in-process
    ``SIGALRM`` strategy inside the job function itself.
    """

    name = SERIAL

    def submit_jobs(
        self,
        jobs,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
    ) -> Dict[str, Dict[str, object]]:
        crash = on_crash if on_crash is not None else _default_crash
        results: Dict[str, Dict[str, object]] = {}
        for job in jobs:
            try:
                result = job.fn(*job.args, timeout=timeout, **job.kwargs)
            except KeyboardInterrupt:  # pragma: no cover - interactive only
                raise
            except BaseException as error:  # noqa: BLE001 - crash becomes a result
                # SystemExit included: the in-process analogue of a worker
                # dying (an os._exit call is not interceptable at all).
                result = crash(
                    job, f"job crashed in-process: {type(error).__name__}: {error}"
                )
            results[job.key] = result
            if on_result is not None:
                on_result(job.key, result)
        return results


@contextlib.contextmanager
def _exported_blas_cap(cap: int):
    """Export ``cap`` through :data:`BLAS_ENV_VARS` while a pool starts workers.

    A ``spawn`` worker imports numpy (and loads its BLAS) before the pool
    initializer runs, so only the inherited environment reaches it.  The
    parent's own values are restored afterwards.
    """
    saved = {name: os.environ.get(name) for name in BLAS_ENV_VARS}
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(cap)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class ProcessPoolExecutorBackend(ExecutorBackend):
    """A local process pool, with worker-crash isolation and recovery.

    Timeouts are enforced *inside* each worker (``SIGALRM`` via the job
    function's ``timeout`` argument), so a job stuck in Python code becomes
    a timeout result instead of wedging the pool.  When a worker dies hard
    (``os._exit``, a segfault — surfacing as ``BrokenProcessPool`` on every
    in-flight future), each job left without a result is retried once in an
    isolated single-worker pool: the crasher reproducibly kills its solo
    pool and is marked failed through ``on_crash``; every other job
    completes normally.

    Every pool caps BLAS/OpenMP threads at ``blas_thread_cap(workers)``, so
    N workers never stack N full-width BLAS pools on one box.  The cap is
    exported through :data:`BLAS_ENV_VARS` while the pool starts its
    workers and set again by each worker's initializer
    (:func:`apply_blas_thread_cap`).  Its reach is limited: a BLAS library
    reads those variables once, when it is loaded.  Under the ``fork``
    start method (the Linux default) numpy's OpenBLAS is already loaded in
    the parent, so a worker's numpy keeps the parent's thread count unless
    :mod:`threadpoolctl` is installed to cap it at run time.  The cap does
    reach every BLAS first loaded inside the worker (``scipy.linalg``'s,
    when the parent has not imported it) and, under ``spawn``, numpy's too.
    """

    name = PROCESS_POOL

    def submit_jobs(
        self,
        jobs,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        on_result: OnResult = None,
        on_crash: OnCrash = None,
    ) -> Dict[str, Dict[str, object]]:
        crash = on_crash if on_crash is not None else _default_crash
        jobs = list(jobs)
        by_key = {job.key: job for job in jobs}
        results: Dict[str, Dict[str, object]] = {}

        def _emit(key: str, result: Dict[str, object]) -> None:
            results[key] = result
            if on_result is not None:
                on_result(key, result)

        requested_workers = max(1, int(workers) if workers else 1)
        max_workers = min(requested_workers, len(jobs) or 1)
        cap = blas_thread_cap(requested_workers)

        def _pool(size: int) -> ProcessPoolExecutor:
            # Solo retry pools keep the cap sized for the full worker count.
            return ProcessPoolExecutor(
                max_workers=size, initializer=apply_blas_thread_cap, initargs=(cap,)
            )

        broken = False
        with _exported_blas_cap(cap):
            try:
                with _pool(max_workers) as pool:
                    futures = {
                        pool.submit(
                            job.fn, *job.args, timeout=timeout, **job.kwargs
                        ): job.key
                        for job in jobs
                    }
                    remaining = set(futures)
                    while remaining:
                        finished, remaining = wait(
                            remaining, return_when=FIRST_COMPLETED
                        )
                        for future in finished:
                            key = futures[future]
                            try:
                                _emit(key, future.result())
                            except BrokenProcessPool:
                                # A worker died; which job killed it is not
                                # attributable here — every unresolved job
                                # goes through the isolation pass below.
                                broken = True
                            except Exception as error:  # pickling/submission faults
                                _emit(
                                    key,
                                    crash(
                                        by_key[key],
                                        f"worker failed: {type(error).__name__}: {error}",
                                    ),
                                )
            except BrokenProcessPool:  # pragma: no cover - raced pool teardown
                broken = True
            if not broken and len(results) == len(jobs):
                return results

            # Isolation pass: one fresh single-worker pool per unresolved
            # job.  The crasher kills only its own pool and gets a failure
            # result; innocent neighbours (whose futures merely shared the
            # broken pool) re-run and complete.
            for job in jobs:
                if job.key in results:
                    continue
                try:
                    with _pool(1) as solo:
                        result = solo.submit(
                            job.fn, *job.args, timeout=timeout, **job.kwargs
                        ).result()
                except Exception as error:  # noqa: BLE001 - crash becomes a result
                    result = crash(
                        job,
                        "worker crashed (process died mid-job): "
                        f"{type(error).__name__}: {error}",
                    )
                _emit(job.key, result)
        return results


def _process_pool_available() -> bool:
    """Lazy probe: process pools need working multiprocessing primitives."""
    try:
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:  # pragma: no cover - sem_open-less platforms
        return False
    return True


def executor_registry() -> BackendRegistry:
    """The shared ``"executor"`` registry, with the built-ins registered.

    Mirrors :func:`repro.orbits.engine.orbit_registry`: each built-in is
    (re-)registered individually if missing, so a test tearing one down can
    never take the others with it for the rest of the process.
    """
    registry = get_registry(EXECUTOR_KIND)
    if SERIAL not in registry.names():
        registry.register(SERIAL, SerialExecutor(), priority=0)
    if PROCESS_POOL not in registry.names():
        registry.register(
            PROCESS_POOL,
            ProcessPoolExecutorBackend(),
            priority=10,
            available=_process_pool_available,
        )
    return registry


def available_executor_backends() -> Tuple[str, ...]:
    """Usable executor backend names (without the ``"auto"`` alias)."""
    return executor_registry().available()


def resolve_executor_backend(name: str = AUTO_BACKEND) -> str:
    """Normalise an executor selector (``"auto"`` → the default)."""
    return executor_registry().resolve(name)


def get_executor_backend(name: Optional[str] = None) -> ExecutorBackend:
    """The :class:`ExecutorBackend` behind ``name`` (default ``"auto"``)."""
    backend = executor_registry().get(AUTO_BACKEND if name is None else name)
    if not isinstance(backend, ExecutorBackend):
        raise TypeError(
            f"executor backend {name!r} is not an ExecutorBackend "
            f"(got {type(backend).__name__}); register execution strategies "
            "via repro.backend.executor.executor_registry()"
        )
    return backend


__all__ = [
    "EXECUTOR_KIND",
    "SERIAL",
    "PROCESS_POOL",
    "BLAS_ENV_VARS",
    "ExecutorJob",
    "ExecutorBackend",
    "SerialExecutor",
    "ProcessPoolExecutorBackend",
    "apply_blas_thread_cap",
    "blas_thread_cap",
    "executor_registry",
    "available_executor_backends",
    "resolve_executor_backend",
    "get_executor_backend",
]
