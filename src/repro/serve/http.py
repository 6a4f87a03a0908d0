"""The stdlib HTTP control plane of ``repro serve``.

No third-party dependencies: a ``ThreadingHTTPServer`` (one daemon thread
per connection) in front of a :class:`~repro.serve.service.SimulatorService`.

Endpoints (all bodies JSON unless noted):

==============  =========================================================
``GET /metrics``     OpenMetrics exposition of the live registry
                     (``obs/prom.py``; scrape-compatible, self-check
                     parseable)
``GET /status``      service/cluster snapshot (``repro top`` polls this)
``GET /timeseries``  the flight recorder's per-epoch table
``GET /events``      NDJSON stream of decision-trace events as they are
                     emitted (``?sse=1`` switches to Server-Sent Events
                     framing); slow consumers drop, never block the sim
``POST /config``     queue config mutations ``{knob: value, ...}``;
                     applied at the next epoch boundary, each minted as
                     a ``config_changed`` trace event
``POST /pause`` / ``POST /resume`` / ``POST /step``  lifecycle control
``POST /shutdown``   graceful stop: the driver winds down, artifacts
                     flush, the process exits 0
==============  =========================================================
"""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.events import event_to_json
from repro.serve.service import MutationError, SimulatorService

__all__ = ["ControlPlane", "OPENMETRICS_CONTENT_TYPE"]

OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8")
_JSON = "application/json; charset=utf-8"
#: how long an /events stream waits for the next event before checking
#: whether the client or the service went away
_STREAM_POLL_S = 0.5
#: largest POST body read; a control request is a few dozen bytes
_MAX_BODY_BYTES = 64 * 1024


class _UnreadBody(ValueError):
    """A request refused before its body was read (the connection closes,
    since the unread bytes would otherwise parse as the next request)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _json_object(raw: bytes) -> dict:
    """``raw`` parsed as a JSON object; ``ValueError`` on anything else."""
    if not raw:
        raise ValueError("empty request body; expected JSON")
    try:
        doc = json.loads(raw)
    except RecursionError:
        raise ValueError("request body nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


class ControlPlane:
    """Own the HTTP server; bind with ``port=0`` for an ephemeral port."""

    def __init__(self, service: SimulatorService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        handler = _make_handler(service)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]
        # guarded-by: none — start()/stop() are main-thread lifecycle
        # calls; no handler thread ever touches the server thread handle
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve-http",
            daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)


def _make_handler(service: SimulatorService) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            pass  # the access log would interleave with the CLI's output

        # ------------------------------------------------------------ plumbing
        def _send(self, code: int, body: bytes, content_type: str) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, code: int, doc: dict) -> None:
            body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
            self._send(code, body, _JSON)

        def _read_body(self) -> bytes:
            """The whole request body, so a kept-alive connection stays in
            step; refused unread when its length is bad or over the cap."""
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                raise _UnreadBody(400, "Content-Length is not an integer") from None
            if length < 0:
                raise _UnreadBody(400, "negative Content-Length")
            if length > _MAX_BODY_BYTES:
                raise _UnreadBody(
                    413, f"request body over {_MAX_BODY_BYTES} bytes")
            return self.rfile.read(length) if length else b""

        # ------------------------------------------------------------- routes
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            path = self.path.split("?", 1)[0]
            if path == "/metrics":
                body = service.metrics_text().encode("utf-8")
                self._send(200, body, OPENMETRICS_CONTENT_TYPE)
            elif path == "/status":
                self._send_json(200, service.status())
            elif path == "/timeseries":
                self._send_json(200, service.timeseries())
            elif path == "/events":
                self._stream_events(sse="sse=1" in self.path)
            else:
                self._send_json(404, {"error": f"no such endpoint {path!r}"})

        def do_POST(self) -> None:  # noqa: N802
            path = self.path.split("?", 1)[0]
            try:
                body = self._read_body()
                if path == "/config":
                    queued = service.queue_mutations(_json_object(body))
                    self._send_json(202, {
                        "queued": queued,
                        "applies": "at the next epoch boundary"})
                elif path == "/pause":
                    service.pause()
                    self._send_json(200, {"state": service.current_state()})
                elif path == "/resume":
                    service.resume()
                    self._send_json(200, {"state": service.current_state()})
                elif path == "/step":
                    ticks = _json_object(body).get("ticks", 1)
                    # bool is an int subclass; JSON true is not a count
                    if type(ticks) is not int:
                        raise ValueError(
                            "ticks must be a positive JSON integer")
                    service.step(ticks)  # ValueError unless positive
                    self._send_json(200, {"state": service.current_state()})
                elif path == "/shutdown":
                    service.request_stop()
                    self._send_json(200, {"stopping": True})
                else:
                    self._send_json(404, {"error": f"no such endpoint {path!r}"})
            except (MutationError, ValueError) as exc:
                status = 400
                if isinstance(exc, _UnreadBody):
                    self.close_connection = True
                    status = exc.status
                self._send_json(status, {"error": str(exc)})

        # ------------------------------------------------------------ streaming
        def _stream_events(self, sse: bool) -> None:
            sub = service.bus.subscribe()
            try:
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/event-stream" if sse else "application/x-ndjson")
                self.send_header("Cache-Control", "no-cache")
                # stream until either side goes away; length is unknowable
                self.send_header("Connection", "close")
                self.end_headers()
                while True:
                    try:
                        event = sub.get(timeout=_STREAM_POLL_S)
                    except queue.Empty:
                        if service.finished:
                            break
                        continue
                    line = event_to_json(event)
                    chunk = (f"data: {line}\n\n" if sse else f"{line}\n")
                    self.wfile.write(chunk.encode("utf-8"))
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError):
                pass  # consumer hung up; the subscription dies with it
            finally:
                sub.close()
                self.close_connection = True

    return Handler
