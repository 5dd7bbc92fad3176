"""Thread-safe, multi-artifact alignment query service.

:class:`AlignmentService` hosts any number of loaded artifacts (keyed by
artifact id) and answers batched ``match`` / ``top_k`` / ``reverse_match``
queries from their sparse indexes — ``O(k)`` per query, no dense matrix in
memory.  A bounded LRU cache short-circuits repeated single-node lookups
(real query traffic is heavily skewed towards hub nodes), and hit/miss/
latency counters expose the service's health.

Every query — the in-process convenience methods, the CLI ``query`` command
and the HTTP endpoints (:mod:`repro.api`) — routes through one shared entry
point, :meth:`AlignmentService.query`, which takes a typed
:class:`~repro.api.models.QueryRequest` and returns a versioned
:class:`~repro.api.models.QueryResponse`.  One validation path, one stats
path: the legacy per-op methods are thin wrappers that unwrap the response
array, so their answers are bit-identical to what an HTTP client receives.

All public methods are safe to call from many threads: mutable state (the
registry and cache) is guarded by one lock, the index arrays themselves are
immutable and read without locking, and the stats live in a per-service
:class:`~repro.obs.metrics.MetricsRegistry` whose metrics carry their own
locks — recording a query never serializes against query execution.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.models import (
    API_SCHEMA_VERSION,
    ENGINE_VERSION,
    QUERY_OPS,
    TOP_K_OPS,
    QueryRequest,
    QueryResponse,
    make_query_response,
    parse_query_request,
)
from repro.serve.artifacts import (
    SCHEMA_VERSION,
    Artifact,
    ArtifactNotFoundError,
    ArtifactSchemaError,
    load_artifact,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.index import SparseTopKIndex

#: Default maximum number of cached (artifact, op, node, k) entries.
DEFAULT_CACHE_SIZE = 4096

#: Stage labels of the per-op ``serve_stage_seconds`` histograms.
QUERY_STAGES = ("cache_probe", "index_lookup", "assemble")


class _OpMetrics:
    """The metric handles of one op, resolved once and then lock-free."""

    __slots__ = ("queries", "batches", "batch_seconds", "stage_seconds")

    def __init__(self, registry: MetricsRegistry, op: str) -> None:
        self.queries = registry.counter("serve_queries_total", op=op)
        self.batches = registry.counter("serve_batches_total", op=op)
        self.batch_seconds = registry.histogram("serve_batch_seconds", op=op)
        self.stage_seconds = {
            stage: registry.histogram("serve_stage_seconds", op=op, stage=stage)
            for stage in QUERY_STAGES
        }


def check_runtime_schema(manifest: Mapping) -> None:
    """Runtime-mode guard: refuse artifacts this engine cannot serve.

    Raises :class:`~repro.serve.artifacts.ArtifactSchemaError` naming both
    the artifact's manifest schema version and the engine's supported one,
    so a mixed-version fleet fails loudly at load time instead of serving
    silently wrong payloads.
    """
    version = manifest.get("schema_version")
    if not isinstance(version, (list, tuple)) or not version:
        raise ArtifactSchemaError(
            f"artifact {manifest.get('artifact_id', '?')!r} has a malformed "
            f"manifest schema_version ({version!r}); this engine "
            f"(repro {ENGINE_VERSION}) serves schema {SCHEMA_VERSION}"
        )
    if int(version[0]) > SCHEMA_VERSION[0]:
        raise ArtifactSchemaError(
            f"artifact {manifest.get('artifact_id', '?')!r} was written by "
            f"manifest schema {list(version)}, which this engine "
            f"(repro {ENGINE_VERSION}, supports schema <= {SCHEMA_VERSION}) "
            "cannot serve; upgrade repro or re-export the artifact"
        )


class AlignmentService:
    """Serves matching queries for one or more persisted alignments.

    Parameters
    ----------
    cache_size:
        Maximum number of cached query results (``0`` disables caching).
    cache_budgets:
        Optional per-artifact-id entry caps layered under ``cache_size``:
        an artifact with a budget can never hold more than that many cache
        entries, so one hot artifact cannot evict every neighbour out of
        the shared LRU.  Budget (and capacity) evictions are counted in
        the ``service_cache_evictions_total{artifact=...}`` metric series.

    Examples
    --------
    >>> service = AlignmentService()
    >>> aid = service.load("artifacts", "douban-ab12cd34ef56")  # doctest: +SKIP
    >>> service.match(aid, [0, 1, 2])                           # doctest: +SKIP
    array([17, 4, 9])
    """

    def __init__(
        self,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_budgets: Optional[Mapping[str, int]] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self._indexes: Dict[str, SparseTopKIndex] = {}
        self._artifacts: Dict[str, Artifact] = {}
        #: str(index.score_dtype) per artifact — numpy dtype stringification
        #: is measurable on the per-call hot path, so it happens once here.
        self._score_dtypes: Dict[str, str] = {}
        #: Orbit-backend provenance per artifact, read from the manifest
        #: metadata at hosting time ("unknown" for bare indexes and
        #: artifacts exported before the tag existed).
        self._orbit_backends: Dict[str, str] = {}
        #: Bumped whenever an artifact id is (re)bound; lets in-flight
        #: queries detect that their index snapshot went stale before they
        #: write answers into the cache.
        self._generations: Dict[str, int] = {}
        self._cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._cache_size = cache_size
        #: Per-artifact entry caps and the live per-artifact entry counts
        #: (kept incrementally — the cache can hold thousands of entries).
        self._cache_budgets: Dict[str, int] = {}
        self._cache_counts: Dict[str, int] = {}
        self._eviction_counts: Dict[str, int] = {}
        self._lock = threading.RLock()
        #: Per-service metrics.  Every metric carries its own lock, so the
        #: service-wide ``_lock`` (which also guards index access) is never
        #: taken to record stats; ``_stats_lock`` only guards creation of
        #: the cached per-op handle bundles.
        self.metrics = MetricsRegistry("serve")
        self._stats_lock = threading.Lock()
        self._op_metrics: Dict[str, _OpMetrics] = {}
        self._m_cache_hits = self.metrics.counter("serve_cache_hits_total")
        self._m_cache_misses = self.metrics.counter("serve_cache_misses_total")
        for artifact_id, budget in (cache_budgets or {}).items():
            self.set_cache_budget(artifact_id, budget)

    # ------------------------------------------------------------------
    # artifact hosting
    # ------------------------------------------------------------------
    def load(
        self,
        root: Union[str, Path],
        artifact_id: str,
        *,
        mode: str = "serve",
        verify: bool = True,
    ) -> str:
        """Load an artifact from a store and host it; returns its id."""
        artifact = load_artifact(root, artifact_id, mode=mode, verify=verify)
        return self.add(artifact)

    def load_matching(
        self,
        root: Union[str, Path],
        *,
        mode: str = "serve",
        verify: bool = True,
        **filters,
    ) -> str:
        """Load the newest artifact matching a catalog query.

        Resolves through the SQLite catalog (``<root>/catalog.sqlite``, see
        :mod:`repro.serve.catalog`) instead of a directory walk: ``filters``
        are the catalog's equality filters (``dataset=``, ``method=``,
        ``dtype=``, ``name=``, ``content_hash=``, ``config_hash=``,
        ``kind=``).  Raises
        :class:`~repro.serve.artifacts.ArtifactNotFoundError` when nothing
        matches.
        """
        from repro.serve.catalog import ArtifactCatalog

        record = ArtifactCatalog.for_store(root).latest(**filters)
        if record is None:
            described = {k: v for k, v in filters.items() if v is not None}
            raise ArtifactNotFoundError(
                f"no catalogued artifact under {root} matches {described}; "
                "run `repro.cli catalog-sync` if the store predates the catalog"
            )
        return self.load(
            root, str(record["artifact_id"]), mode=mode, verify=verify
        )

    def add(self, artifact: Artifact) -> str:
        """Host an already-loaded artifact (replaces a same-id artifact).

        The runtime-mode guard runs here (the choke point of every hosting
        path): an artifact whose manifest schema this engine does not
        support is refused with an error naming both versions.
        """
        check_runtime_schema(artifact.manifest)
        with self._lock:
            self._artifacts[artifact.artifact_id] = artifact
            self._indexes[artifact.artifact_id] = artifact.index
            self._score_dtypes[artifact.artifact_id] = str(
                artifact.index.score_dtype
            )
            self._orbit_backends[artifact.artifact_id] = str(
                artifact.metadata.get("orbit_backend", "unknown")
            )
            self._bump_generation(artifact.artifact_id)
        return artifact.artifact_id

    def add_index(self, artifact_id: str, index: SparseTopKIndex) -> str:
        """Host a bare index under ``artifact_id`` (no manifest attached)."""
        with self._lock:
            self._artifacts.pop(artifact_id, None)
            self._indexes[artifact_id] = index
            self._score_dtypes[artifact_id] = str(index.score_dtype)
            self._orbit_backends[artifact_id] = "unknown"
            self._bump_generation(artifact_id)
        return artifact_id

    def unload(self, artifact_id: str) -> None:
        """Drop an artifact and its cached queries."""
        with self._lock:
            self._indexes.pop(artifact_id, None)
            self._artifacts.pop(artifact_id, None)
            self._score_dtypes.pop(artifact_id, None)
            self._orbit_backends.pop(artifact_id, None)
            self._bump_generation(artifact_id)

    def _bump_generation(self, artifact_id: str) -> None:
        """Invalidate cached and in-flight answers (lock must be held)."""
        self._generations[artifact_id] = self._generations.get(artifact_id, 0) + 1
        self._evict_artifact_cache(artifact_id)

    def artifact_ids(self) -> List[str]:
        """Ids currently hosted, sorted."""
        with self._lock:
            return sorted(self._indexes)

    def describe(self, artifact_id: str) -> Dict[str, object]:
        """Shape/index/manifest summary of one hosted artifact."""
        with self._lock:
            index = self._get_index(artifact_id)
            artifact = self._artifacts.get(artifact_id)
        info: Dict[str, object] = {
            "artifact_id": artifact_id,
            "schema_version": API_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "score_dtype": str(index.score_dtype),
            "shape": [int(index.shape[0]), int(index.shape[1])],
            "index_k": int(index.k),
            "reverse_k": int(index.reverse_k),
            "index_bytes": index.nbytes,
            "dense_bytes": index.dense_nbytes,
            "compression_ratio": round(index.compression_ratio, 2),
            "orbit_backend": self._orbit_backends.get(artifact_id, "unknown"),
        }
        if artifact is not None:
            info["metadata"] = dict(artifact.metadata)
            info["name"] = artifact.manifest.get("name")
            info["artifact_schema_version"] = artifact.manifest.get(
                "schema_version"
            )
        return info

    def _get_index(self, artifact_id: str) -> SparseTopKIndex:
        try:
            return self._indexes[artifact_id]
        except KeyError:
            raise KeyError(
                f"artifact {artifact_id!r} is not hosted; "
                f"loaded: {sorted(self._indexes)}"
            ) from None

    def _evict_artifact_cache(self, artifact_id: str) -> None:
        """Drop cached entries of one artifact (lock must be held).

        Invalidation, not pressure: these drops do not count towards the
        ``service_cache_evictions_total`` series.
        """
        stale = [key for key in self._cache if key[0] == artifact_id]
        for key in stale:
            del self._cache[key]
        self._cache_counts.pop(artifact_id, None)

    # ------------------------------------------------------------------
    # per-artifact cache budgets
    # ------------------------------------------------------------------
    def set_cache_budget(self, artifact_id: str, budget: Optional[int]) -> None:
        """Cap one artifact's share of the query cache to ``budget`` entries.

        ``None`` removes the cap.  A budget below the artifact's current
        entry count trims it immediately (oldest entries first, counted as
        evictions).  Budgets survive artifact reload — they key on the id,
        not the hosted object.
        """
        with self._lock:
            if budget is None:
                self._cache_budgets.pop(artifact_id, None)
                return
            budget = int(budget)
            if budget < 0:
                raise ValueError(f"cache_budget must be >= 0, got {budget}")
            self._cache_budgets[artifact_id] = budget
            self._enforce_budget(artifact_id)

    def cache_budgets(self) -> Dict[str, int]:
        """The per-artifact entry caps currently in force."""
        with self._lock:
            return dict(self._cache_budgets)

    def _count_eviction(self, artifact_id: str) -> None:
        """Tally one capacity/budget eviction (lock must be held)."""
        count = self._cache_counts.get(artifact_id, 0)
        if count > 1:
            self._cache_counts[artifact_id] = count - 1
        else:
            self._cache_counts.pop(artifact_id, None)
        self._eviction_counts[artifact_id] = (
            self._eviction_counts.get(artifact_id, 0) + 1
        )
        self.metrics.counter(
            "service_cache_evictions_total", artifact=artifact_id
        ).inc()

    def _enforce_budget(self, artifact_id: str) -> None:
        """Evict this artifact's oldest entries down to its budget
        (lock must be held)."""
        budget = self._cache_budgets.get(artifact_id)
        if budget is None:
            return
        excess = self._cache_counts.get(artifact_id, 0) - budget
        if excess <= 0:
            return
        stale = []
        for key in self._cache:  # OrderedDict: oldest first
            if key[0] == artifact_id:
                stale.append(key)
                if len(stale) == excess:
                    break
        for key in stale:
            del self._cache[key]
            self._count_eviction(artifact_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self, request: Union[QueryRequest, Mapping]
    ) -> QueryResponse:
        """Answer one typed request — the single shared query entry point.

        Accepts a :class:`~repro.api.models.QueryRequest` (trusted,
        in-process construction) or a raw mapping, which is put through the
        same wire validator the HTTP layer uses
        (:func:`~repro.api.models.parse_query_request`).  Semantic failures
        keep their long-standing exception types so existing callers are
        unchanged: unknown artifact → ``KeyError``, node ids out of range →
        ``IndexError``, bad ``op``/``k`` → ``ValueError``.  The response's
        ``results`` stays an ndarray (bit-identical to the wrapper methods);
        :func:`~repro.api.models.response_payload` renders the wire dict.
        """
        if isinstance(request, Mapping):
            request = parse_query_request(request)
        op = request.op
        if op not in QUERY_OPS:
            raise ValueError(f"unknown op {op!r}; expected one of {QUERY_OPS}")
        k: Optional[int] = None
        if op in TOP_K_OPS:
            if request.k is None:
                raise ValueError(f"op {op!r} requires k")
            k = int(request.k)
        answers = self._query(request.artifact_id, op, request.nodes, k)
        # _query just resolved the index; a plain dict read (GIL-atomic) is
        # enough for the dtype tag even if a concurrent unload races us.
        score_dtype = self._score_dtypes.get(request.artifact_id, "unknown")
        orbit_backend = self._orbit_backends.get(request.artifact_id, "unknown")
        return make_query_response(request, answers, score_dtype, orbit_backend)

    def match(self, artifact_id: str, source_nodes) -> np.ndarray:
        """Best target per source node (batched argmax)."""
        return self.query(QueryRequest(artifact_id, "match", source_nodes)).results

    def top_k(self, artifact_id: str, source_nodes, k: int) -> np.ndarray:
        """Top-``k`` targets per source node, best first."""
        return self.query(
            QueryRequest(artifact_id, "top_k", source_nodes, int(k))
        ).results

    def reverse_match(self, artifact_id: str, target_nodes) -> np.ndarray:
        """Best source per target node (argmax over columns)."""
        return self.query(
            QueryRequest(artifact_id, "reverse_match", target_nodes)
        ).results

    def reverse_top_k(self, artifact_id: str, target_nodes, k: int) -> np.ndarray:
        """Top-``k`` sources per target node, best first."""
        return self.query(
            QueryRequest(artifact_id, "reverse_top_k", target_nodes, int(k))
        ).results

    def _run_op(
        self, index: SparseTopKIndex, op: str, nodes: np.ndarray, k: Optional[int]
    ) -> np.ndarray:
        if op == "match":
            return index.match(nodes)
        if op == "top_k":
            return index.top_k(nodes, k)
        if op == "reverse_match":
            return index.reverse_match(nodes)
        if op == "reverse_top_k":
            return index.reverse_top_k(nodes, k)
        raise ValueError(f"unknown op {op!r}")  # pragma: no cover

    def _query(
        self, artifact_id: str, op: str, nodes, k: Optional[int]
    ) -> np.ndarray:
        started = time.perf_counter()
        with self._lock:
            index = self._get_index(artifact_id)
            generation = self._generations.get(artifact_id, 0)
        node_array = np.atleast_1d(np.asarray(nodes, dtype=np.intp))

        if self._cache_size == 0 or node_array.size == 0:
            lookup_started = time.perf_counter()
            answers = self._run_op(index, op, node_array, k)
            lookup_s = time.perf_counter() - lookup_started
            self._note(op, node_array.size, hits=0, started=started,
                       stages=(("index_lookup", lookup_s),))
            return answers

        # Per-node cache probe; misses are answered in one vectorized call.
        probe_started = time.perf_counter()
        keys = [(artifact_id, op, int(node), k) for node in node_array]
        cached: Dict[int, object] = {}
        with self._lock:
            for position, key in enumerate(keys):
                if key in self._cache:
                    self._cache.move_to_end(key)
                    cached[position] = self._cache[key]
        miss_positions = [p for p in range(node_array.size) if p not in cached]
        lookup_started = time.perf_counter()
        probe_s = lookup_started - probe_started
        if miss_positions:
            miss_answers = self._run_op(
                index, op, node_array[miss_positions], k
            )
            with self._lock:
                # Answers computed from a replaced/unloaded index must not
                # poison the cache of its successor.
                insert = self._generations.get(artifact_id, 0) == generation
                for row, position in enumerate(miss_positions):
                    # Copy row slices so cache entries do not pin the whole
                    # batch answer array.
                    value = np.array(miss_answers[row], copy=True)
                    value.setflags(write=False)
                    if insert:
                        if keys[position] not in self._cache:
                            self._cache_counts[artifact_id] = (
                                self._cache_counts.get(artifact_id, 0) + 1
                            )
                        self._cache[keys[position]] = value
                        self._cache.move_to_end(keys[position])
                    cached[position] = value
                if insert:
                    self._enforce_budget(artifact_id)
                while len(self._cache) > self._cache_size:
                    evicted_key, _ = self._cache.popitem(last=False)
                    self._count_eviction(str(evicted_key[0]))
        assemble_started = time.perf_counter()
        lookup_s = assemble_started - lookup_started
        answers = np.stack([np.asarray(cached[p]) for p in range(node_array.size)])
        if op in ("match", "reverse_match"):
            answers = answers.reshape(node_array.size)
        assemble_s = time.perf_counter() - assemble_started
        self._note(op, node_array.size, hits=len(keys) - len(miss_positions),
                   started=started,
                   stages=(("cache_probe", probe_s),
                           ("index_lookup", lookup_s),
                           ("assemble", assemble_s)))
        return answers

    def _op_handles(self, op: str) -> _OpMetrics:
        handles = self._op_metrics.get(op)  # GIL-atomic read, no lock
        if handles is None:
            with self._stats_lock:
                handles = self._op_metrics.get(op)
                if handles is None:
                    handles = _OpMetrics(self.metrics, op)
                    self._op_metrics[op] = handles
        return handles

    def _note(
        self,
        op: str,
        n_nodes: int,
        hits: int,
        started: float,
        stages: Sequence[Tuple[str, float]] = (),
    ) -> None:
        """Record one answered batch.  Never takes the service-wide lock."""
        elapsed = time.perf_counter() - started
        handles = self._op_handles(op)
        handles.queries.inc(n_nodes)
        handles.batches.inc()
        handles.batch_seconds.observe(elapsed)
        if hits:
            self._m_cache_hits.inc(hits)
        if n_nodes > hits:
            self._m_cache_misses.inc(n_nodes - hits)
        for stage, seconds in stages:
            handles.stage_seconds[stage].observe(seconds)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Counters snapshot: queries, hit rate, latency, hosted artifacts.

        The flat legacy keys (``queries``, ``total_latency_s``, ``per_op``,
        ...) are derived from the per-op metric series, and the schema-1.1
        ``latency`` key adds per-op batch and per-stage histogram summaries
        (count/sum/min/max and p50/p95/p99 upper bounds).
        """
        with self._lock:
            hosted = sorted(self._indexes)
            cache_entries = len(self._cache)
            cache_budgets = dict(self._cache_budgets)
            cache_evictions = dict(self._eviction_counts)
            orbit_backends = {
                artifact_id: self._orbit_backends.get(artifact_id, "unknown")
                for artifact_id in hosted
            }
        with self._stats_lock:
            op_handles = dict(self._op_metrics)
        queries = 0
        batches = 0
        total_latency = 0.0
        per_op: Dict[str, int] = {}
        latency: Dict[str, object] = {}
        for op in sorted(op_handles):
            handles = op_handles[op]
            op_queries = int(handles.queries.value)
            if op_queries == 0 and handles.batches.value == 0:
                continue  # reset since last use; hide the zeroed series
            queries += op_queries
            batches += int(handles.batches.value)
            total_latency += handles.batch_seconds.sum
            per_op[op] = op_queries
            latency[op] = {
                "batch": handles.batch_seconds.summary(),
                "stages": {
                    stage: histogram.summary()
                    for stage, histogram in sorted(
                        handles.stage_seconds.items()
                    )
                    if histogram.count
                },
            }
        cache_hits = int(self._m_cache_hits.value)
        cache_misses = int(self._m_cache_misses.value)
        return {
            "schema_version": API_SCHEMA_VERSION,
            "engine_version": ENGINE_VERSION,
            "artifacts": hosted,
            "orbit_backend": orbit_backends,
            "queries": queries,
            "batches": batches,
            "cache_entries": cache_entries,
            "cache_budgets": cache_budgets,
            "cache_evictions": cache_evictions,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "hit_rate": (cache_hits / queries) if queries else 0.0,
            "total_latency_s": total_latency,
            "avg_batch_latency_ms": (
                1000.0 * total_latency / batches if batches else 0.0
            ),
            "queries_per_second": (
                queries / total_latency if total_latency > 0 else 0.0
            ),
            "per_op": per_op,
            "latency": latency,
        }

    def reset_stats(self) -> None:
        """Zero every stats series — counters, histograms and recorded
        spans alike (hosted artifacts and the query cache are kept)."""
        self.metrics.reset()

    def __repr__(self) -> str:
        with self._lock:
            hosted = len(self._indexes)
        return f"AlignmentService(artifacts={hosted}, cache_size={self._cache_size})"


__all__ = [
    "AlignmentService",
    "DEFAULT_CACHE_SIZE",
    "QUERY_STAGES",
    "check_runtime_schema",
]
