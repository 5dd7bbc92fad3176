"""Pluggable compute backends and precision policies.

This package is the shared substrate under every hot numerical path in the
reproduction:

* :mod:`repro.backend.registry` — generic named-backend registries with
  availability probing and ``"auto"`` resolution (generalising the orbit
  engine's private selection logic; :mod:`repro.orbits.engine` now registers
  its ``python``/``numpy`` counters here under the ``"orbit"`` kind),
* :mod:`repro.backend.compute` — the ``"compute"`` registry of dense
  linear-algebra kernels (GEMM, clip); ``numpy`` is the built-in default
  and accelerated implementations plug in via ``compute_registry()``,
* :mod:`repro.backend.executor` — the ``"executor"`` registry of
  job-execution strategies (``serial`` / ``process-pool``) behind the
  :class:`ExecutorBackend` contract; the suite runner and the shard
  pipeline submit their jobs through it,
* :mod:`repro.backend.precision` — :class:`PrecisionPolicy`, the
  (compute dtype, accumulation dtype) pair threaded through the similarity
  kernels, the serve index/artifacts, the shard stitcher and the core
  aligner.  ``float64`` (default) is bit-identical to the historical code;
  ``float32`` halves score-matrix memory and accumulates reductions in
  float64.

Select both knobs per run via :class:`repro.core.HTCConfig`
(``compute_dtype=...``, ``backend=...``, ``executor_backend=...``) or the
CLI (``--dtype``, ``--backend``, ``--executor``).
"""

from repro.backend.compute import (
    ComputeBackend,
    available_compute_backends,
    compute_registry,
    get_compute_backend,
    resolve_compute_backend,
)
from repro.backend.executor import (
    EXECUTOR_KIND,
    ExecutorBackend,
    ExecutorJob,
    available_executor_backends,
    blas_thread_cap,
    executor_registry,
    get_executor_backend,
    resolve_executor_backend,
)
from repro.backend.precision import (
    FLOAT32,
    FLOAT64,
    PRECISIONS,
    PrecisionPolicy,
    as_score_matrix,
    resolve_policy,
    score_dtype,
)
from repro.backend.registry import (
    AUTO_BACKEND,
    BackendRegistry,
    BackendUnavailableError,
    get_registry,
    peek_registry,
    registered_kinds,
)

__all__ = [
    "AUTO_BACKEND",
    "BackendRegistry",
    "BackendUnavailableError",
    "get_registry",
    "peek_registry",
    "registered_kinds",
    "ComputeBackend",
    "compute_registry",
    "available_compute_backends",
    "resolve_compute_backend",
    "get_compute_backend",
    "EXECUTOR_KIND",
    "ExecutorBackend",
    "ExecutorJob",
    "executor_registry",
    "available_executor_backends",
    "resolve_executor_backend",
    "get_executor_backend",
    "blas_thread_cap",
    "PRECISIONS",
    "PrecisionPolicy",
    "FLOAT64",
    "FLOAT32",
    "resolve_policy",
    "score_dtype",
    "as_score_matrix",
]
