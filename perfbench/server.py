"""Launch the stdlib API server for the serve_http workload.

    python perfbench/server.py --root STORE --ready PORT_FILE --out OUT_JSON [--trace]

Hosts every artifact under STORE, binds an ephemeral port on 127.0.0.1 and
writes it to PORT_FILE once the server accepts connections.  It serves until
its standard input closes (the benchmark closes it, or dies), then writes
OUT_JSON with the process's peak resident memory and, with ``--trace``, the
spans recorded around ``repro.api`` dispatch, ``AlignmentService.query`` and
``SparseTopKIndex.match``/``top_k``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.common import apply_thread_caps  # noqa: E402

apply_thread_caps()

import repro.api.http as http_module  # noqa: E402
from repro.api.core import ApiState  # noqa: E402
from repro.serve.index import SparseTopKIndex  # noqa: E402
from repro.serve.service import AlignmentService  # noqa: E402

from perfbench.spans import Patcher, SpanRecorder  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    recorder = SpanRecorder()
    with Patcher() as patcher:
        if args.trace:
            patcher.span(recorder, http_module, "dispatch", "api.dispatch")
            patcher.span(recorder, AlignmentService, "query", "serve.query")
            patcher.span(recorder, SparseTopKIndex, "match", "serve.index")
            patcher.span(recorder, SparseTopKIndex, "top_k", "serve.index")
        state = ApiState(root=Path(args.root))
        state.preload()
        server = http_module.make_server(state, port=0)

        def stop_on_eof() -> None:
            sys.stdin.buffer.read()
            server.shutdown()

        threading.Thread(target=stop_on_eof, daemon=True).start()
        ready = Path(args.ready)
        ready.with_suffix(".tmp").write_text(str(server.server_address[1]))
        os.replace(ready.with_suffix(".tmp"), ready)
        try:
            server.serve_forever()
        finally:
            server.server_close()
    Path(args.out).write_text(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": recorder.export() if args.trace else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
