"""Benchmark: the HTTP alignment API — sustained QPS and tail latency.

Three measurements back the :mod:`repro.api` subsystem:

1. **Sustained throughput.**  N concurrent clients hammer ``POST /match``
   with batches of 64 node ids over persistent connections against the
   bundled stdlib server; reported as node-queries/second (``sustained_qps``)
   and requests/second, with p50/p99 per-request latency.
2. **Parity.**  Every op (``match``, ``top_k``, ``reverse_match``,
   ``reverse_top_k``) answered over HTTP is checked identical to the direct
   in-process :class:`~repro.serve.service.AlignmentService` answer, and the
   in-process batched throughput is recorded alongside for the overhead
   ratio.
3. **Structured errors.**  Out-of-range nodes, wrong-dtype nodes and
   unknown artifacts must come back as structured 400/422/404 JSON bodies.

The payload records the server (``http.backend``: ``"stdlib"``, the API's
one transport); the regression gate only compares runs of the same server.

Results land in ``BENCH_api.json`` at the repo root plus a readable table
under ``benchmarks/results/``.

Run with::

    python benchmarks/bench_api.py            # full size
    python benchmarks/bench_api.py --quick    # smaller, CI-friendly
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.core import ApiState  # noqa: E402
from repro.api.http import BackgroundServer  # noqa: E402
from repro.serve import AlignmentService, export_result  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_api.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_api.txt"

INDEX_K = 10
QUERY_K = 5
BATCH = 64


def make_matrix(n_s: int, n_t: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n_s, n_t))
    hubs = rng.choice(n_t, size=max(1, n_t // 50), replace=False)
    scores[:, hubs] += 1.5
    return scores


def _post(connection: http.client.HTTPConnection, path: str, body: dict):
    connection.request(
        "POST", path, json.dumps(body), {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def check_parity(server, service, artifact_id: str, n_s: int, n_t: int) -> bool:
    """All four ops over HTTP vs the direct in-process service."""
    rng = np.random.default_rng(2)
    forward = rng.integers(0, n_s, size=32).tolist()
    reverse = rng.integers(0, n_t, size=32).tolist()
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        ok = True
        for op, nodes, k in [
            ("match", forward, None),
            ("top_k", forward, QUERY_K),
            ("reverse_match", reverse, None),
            ("reverse_top_k", reverse, QUERY_K),
        ]:
            body = {"artifact_id": artifact_id, "op": op, "nodes": nodes}
            if k is not None:
                body["k"] = k
            status, payload = _post(connection, "/query", body)
            direct = (
                getattr(service, op)(artifact_id, nodes)
                if k is None
                else getattr(service, op)(artifact_id, nodes, k)
            )
            ok &= status == 200
            ok &= payload.get("results") == np.asarray(direct).tolist()
        return bool(ok)
    finally:
        connection.close()


def check_structured_errors(server, artifact_id: str, n_s: int) -> bool:
    """Bad requests must return versioned JSON error bodies, not stack traces."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        cases = [
            ({"artifact_id": artifact_id, "nodes": [n_s + 50]}, 400, "bad_request"),
            ({"artifact_id": artifact_id, "nodes": [0.5]}, 422, "validation_error"),
            ({"artifact_id": "no-such-artifact", "nodes": [0]}, 404, "not_found"),
        ]
        ok = True
        for body, status, code in cases:
            got_status, payload = _post(connection, "/match", body)
            error = payload.get("error") or {}
            ok &= got_status == status and error.get("code") == code
            ok &= "schema_version" in payload
        return bool(ok)
    finally:
        connection.close()


def bench_http(
    server, artifact_id: str, n_s: int, clients: int, requests_per_client: int
) -> dict:
    """N clients, persistent connections, batched /match — QPS and latency."""
    latencies_per_client = [[] for _ in range(clients)]
    batches = [
        np.random.default_rng(100 + i).integers(0, n_s, size=BATCH).tolist()
        for i in range(clients)
    ]
    barrier = threading.Barrier(clients + 1)
    failures = []

    def run_client(index: int) -> None:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        body = {"artifact_id": artifact_id, "nodes": batches[index]}
        latencies = latencies_per_client[index]
        try:
            _post(connection, "/match", body)  # warm the connection
            # http.client writes headers and body separately; without
            # TCP_NODELAY Nagle holds the body back ~40ms per request.
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            barrier.wait()
            for _ in range(requests_per_client):
                started = time.perf_counter()
                status, _ = _post(connection, "/match", body)
                latencies.append(time.perf_counter() - started)
                if status != 200:
                    failures.append(status)
        except Exception as error:  # noqa: BLE001 - recorded, fails the bench
            failures.append(repr(error))
        finally:
            connection.close()

    threads = [
        threading.Thread(target=run_client, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    latencies = np.array(sorted(sum(latencies_per_client, [])))
    total_requests = clients * requests_per_client
    return {
        "backend": "stdlib",
        "clients": clients,
        "requests": total_requests,
        "batch": BATCH,
        "elapsed_s": elapsed,
        "requests_per_second": total_requests / elapsed,
        "sustained_qps": total_requests * BATCH / elapsed,
        "p50_ms": float(np.percentile(latencies, 50) * 1000),
        "p99_ms": float(np.percentile(latencies, 99) * 1000),
        "failures": len(failures),
    }


def bench_in_process(service, artifact_id: str, n_s: int, n_batches: int) -> dict:
    """The same batched workload without HTTP, for the overhead ratio."""
    batches = [
        np.random.default_rng(200 + i).integers(0, n_s, size=BATCH)
        for i in range(n_batches)
    ]
    started = time.perf_counter()
    for nodes in batches:
        service.match(artifact_id, nodes)
    elapsed = time.perf_counter() - started
    return {
        "requests": n_batches,
        "batch": BATCH,
        "batch_qps": n_batches * BATCH / elapsed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sizes")
    args = parser.parse_args(argv)

    n_s, n_t = (800, 800) if args.quick else (1500, 1200)
    clients = 4 if args.quick else 8
    requests_per_client = 60 if args.quick else 300
    matrix = make_matrix(n_s, n_t)

    store = Path(tempfile.mkdtemp(prefix="bench_api_"))
    try:
        info = export_result(matrix, root=store, name="bench", index_k=INDEX_K)
        artifact_id = info.artifact_id
        direct = AlignmentService(cache_size=0)
        direct.load(store, artifact_id, mode="serve")
        state = ApiState(root=store)
        state.preload()
        with BackgroundServer(state) as server:
            parity = check_parity(server, direct, artifact_id, n_s, n_t)
            structured = check_structured_errors(server, artifact_id, n_s)
            http_stats = bench_http(
                server, artifact_id, n_s, clients, requests_per_client
            )
        in_process = bench_in_process(
            direct, artifact_id, n_s, n_batches=200 if args.quick else 1000
        )
    finally:
        shutil.rmtree(store, ignore_errors=True)

    overhead = in_process["batch_qps"] / http_stats["sustained_qps"]
    lines = [
        "HTTP alignment API: sustained throughput and tail latency",
        "=" * 58,
        "",
        f"[1] POST /match, {http_stats['clients']} concurrent clients x "
        f"{requests_per_client} requests, batches of {BATCH} "
        f"({http_stats['backend']} server):",
        f"    sustained  {http_stats['sustained_qps']:12.0f} node-queries/s",
        f"    requests   {http_stats['requests_per_second']:12.0f} req/s",
        f"    latency    p50 {http_stats['p50_ms']:7.2f} ms   "
        f"p99 {http_stats['p99_ms']:7.2f} ms",
        f"    failures   {http_stats['failures']}",
        "",
        f"[2] same workload in-process: {in_process['batch_qps']:12.0f} "
        f"node-queries/s ({overhead:.0f}x the HTTP path)",
        "",
        f"[3] HTTP/direct parity over all 4 ops: {parity}",
        f"    structured 400/422/404 error bodies: {structured}",
    ]
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "api_http_service",
        "command": "python benchmarks/bench_api.py"
        + (" --quick" if args.quick else ""),
        "shape": [n_s, n_t],
        "index_k": INDEX_K,
        "http": http_stats,
        "in_process": in_process,
        "parity_with_direct": parity,
        "structured_errors": structured,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(text + "\n")
    print(f"\n[written to {JSON_PATH} and {REPORT_PATH}]")

    return 0 if parity and structured and http_stats["failures"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
