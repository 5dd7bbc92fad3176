"""Dependency-free threaded HTTP server for the alignment API.

The one wire transport, built on :mod:`http.server` from the standard
library.  Every request routes into :func:`repro.api.core.dispatch`, so the
bytes on the wire are exactly the payloads an in-process dispatch returns
(the bench and the parity tests rely on this).

``ThreadingHTTPServer`` gives one thread per connection;
:class:`~repro.serve.service.AlignmentService` is thread-safe, so
concurrent clients are served without extra locking here.

Example
-------
>>> from repro.api import ApiState, make_server
>>> server = make_server(ApiState(), port=0)      # doctest: +SKIP
>>> server.serve_forever()                        # doctest: +SKIP
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.api.core import ApiState, RawResponse, dispatch
from repro.api.models import ApiValidationError

#: Largest accepted request body; bigger batches should be split.
MAX_BODY_BYTES = 64 * 1024 * 1024


class ApiHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ApiState`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], state: ApiState, quiet: bool = True):
        self.state = state
        self.quiet = quiet
        super().__init__(address, _Handler)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: one connection per client
    # Send responses immediately: without TCP_NODELAY, Nagle + delayed ACK
    # adds ~40ms to every keep-alive request.
    disable_nagle_algorithm = True

    server: ApiHTTPServer

    def _send(self, status: int, payload, close: bool = False) -> None:
        if isinstance(payload, RawResponse):
            body = payload.encode()
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets ``close_connection``: the handler drops the socket.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[dict]:
        # A body that is refused unread gets ``close=True``: its bytes would
        # otherwise be parsed as the next request on a keep-alive connection.
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            message = f"invalid Content-Length header: {header!r}"
            self._send(400, ApiValidationError(message).body(), close=True)
            return None
        if length > MAX_BODY_BYTES:
            message = f"request body exceeds {MAX_BODY_BYTES} bytes"
            self._send(413, ApiValidationError(message).body(), close=True)
            return None
        raw = self.rfile.read(length) if length else b"{}"
        try:
            body = json.loads(raw or b"{}")
        except json.JSONDecodeError as error:
            self._send(
                400,
                ApiValidationError(f"request body is not valid JSON: {error}").body(),
            )
            return None
        return body

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path)
        params = dict(parse_qsl(parts.query))
        status, payload = dispatch(
            self.server.state, "GET", parts.path, params=params
        )
        self._send(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        body = self._read_body()
        if body is None:
            return
        parts = urlsplit(self.path)
        status, payload = dispatch(
            self.server.state, "POST", parts.path, body=body
        )
        self._send(status, payload)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)


def make_server(
    state: ApiState, host: str = "127.0.0.1", port: int = 8000, quiet: bool = True
) -> ApiHTTPServer:
    """Bind (``port=0`` picks a free port) without starting the serve loop."""
    return ApiHTTPServer((host, port), state, quiet=quiet)


class BackgroundServer:
    """A server running on a daemon thread — tests and benchmarks use this."""

    def __init__(self, state: ApiState, host: str = "127.0.0.1", port: int = 0):
        self.server = make_server(state, host, port)
        self.host, self.port = self.server.server_address[:2]
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="repro-api", daemon=True
        )

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "BackgroundServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10)


__all__ = ["ApiHTTPServer", "BackgroundServer", "MAX_BODY_BYTES", "make_server"]
