"""The asyncio HTTP server: ``repro serve``.

A deliberately minimal HTTP/1.1 implementation over
``asyncio.start_server`` — request line, headers, ``Content-Length`` body,
JSON in and out, ``Connection: close`` per request — because the stdlib
has no async HTTP server and the service must not grow dependencies.
This is enough for every client we ship (the ``repro submit`` CLI, the
load generator, curl) and keeps the parser ~40 lines; it is not a general
web server (no chunked encoding, no keep-alive, no TLS — deployment notes
in docs/service.md cover fronting it with a real proxy).

Endpoints
---------
- ``POST /jobs``         submit one spec or ``{"jobs": [...]}`` (batch).
- ``GET /jobs/<id>``     job status/result; ``?wait=1[&timeout=S]``
  long-polls until the job is terminal, so clients need no sleep loops.
- ``GET /healthz``       liveness: status, backlog, worker pids, uptime.
- ``GET /metrics``       the full :class:`ServiceMetrics` snapshot.

Lifecycle: ``serve()`` installs SIGTERM/SIGINT handlers that trigger a
graceful drain — stop admitting (503), run the backlog dry, complete
every open long-poll, then return.  CI's service-smoke job asserts this
path: SIGTERM must exit 0 with no job abandoned.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.eval.cache import ResultCache
from repro.service.metrics import ServiceMetrics
from repro.service.pool import WorkerPool
from repro.service.protocol import ProtocolError, parse_jobs_body
from repro.service.queue import JobTable, QueueFull, ServiceDraining

#: Refuse request bodies beyond this (a job batch is a few KiB).
MAX_BODY_BYTES = 4 << 20

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune (defaults match the CLI)."""

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    cache_dir: Optional[str] = None
    high_water: int = 64
    max_retries: int = 2
    #: Written once the socket is bound (the actual port, for ``port=0``).
    port_file: Optional[str] = None
    quiet: bool = False


class HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str, headers: Optional[Dict] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one request; None when the client closed without sending."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split(None, 2)
    except ValueError:
        raise HttpError(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        length = -1
    if length < 0:
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def _encode_response(
    status: int, payload: Any, extra_headers: Optional[Dict] = None
) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class EvalService:
    """The assembled service: pool + job table + HTTP front-end.

    ``run_job`` overrides the execution step (an async callable taking an
    :class:`~repro.eval.parallel.EvalJob`); when given, no worker pool is
    spawned at all — the tests use this to drive the full HTTP surface
    deterministically without real processes.
    """

    def __init__(
        self,
        config: ServiceConfig,
        cache: Optional[ResultCache] = None,
        run_job=None,
    ):
        self.config = config
        self.metrics = ServiceMetrics()
        self.pool: Optional[WorkerPool] = None
        if run_job is None:
            self.pool = WorkerPool(
                workers=config.workers,
                max_retries=config.max_retries,
                metrics=self.metrics,
            )
        if cache is None and config.cache_dir is not None:
            cache = ResultCache(config.cache_dir)
        self.cache = cache
        self.table = JobTable(
            pool=self.pool,
            cache=cache,
            metrics=self.metrics,
            high_water=config.high_water,
            run_job=run_job,
        )
        self.started_mono = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()
        self._connections: set = set()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def handle(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Any, Dict[str, str]]:
        """Dispatch one request; returns (status, payload, headers)."""
        self.metrics.requests += 1
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)

        if path == "/healthz" and method == "GET":
            return 200, self._healthz(), {}
        if path == "/metrics" and method == "GET":
            return 200, self._metrics(), {}
        if path == "/jobs" and method == "POST":
            return await self._post_jobs(body)
        if path.startswith("/jobs/") and method == "GET":
            return await self._get_job(path[len("/jobs/") :], query)
        if path in ("/jobs", "/healthz", "/metrics") or path.startswith("/jobs/"):
            raise HttpError(405, f"{method} not allowed on {path}")
        raise HttpError(404, f"no such endpoint: {path}")

    def _healthz(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.table.draining else "ok",
            "backlog": self.table.backlog,
            "high_water": self.table.high_water,
            "workers": self.pool.workers if self.pool is not None else 0,
            "worker_pids": (
                list(self.pool.worker_pids()) if self.pool is not None else []
            ),
            "worker_generation": (
                self.pool.generation if self.pool is not None else 0
            ),
            "uptime_seconds": round(time.monotonic() - self.started_mono, 3),
        }

    def _metrics(self) -> Dict[str, Any]:
        payload = self.metrics.snapshot()
        payload["queue"] = {
            "depth": self.table.backlog,
            "high_water": self.table.high_water,
        }
        payload["workers"] = {
            "count": self.pool.workers if self.pool is not None else 0,
            "pids": (
                list(self.pool.worker_pids()) if self.pool is not None else []
            ),
            "generation": self.pool.generation if self.pool is not None else 0,
        }
        payload["cache"] = {
            "enabled": self.cache is not None,
            "entries": len(self.cache) if self.cache is not None else 0,
        }
        return payload

    async def _post_jobs(self, body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        try:
            payload = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self.metrics.jobs_rejected += 1
            raise HttpError(400, f"request body is not JSON: {error}") from None
        try:
            specs = parse_jobs_body(payload)
        except ProtocolError as error:
            self.metrics.jobs_rejected += 1
            raise HttpError(400, str(error)) from None

        batch = "jobs" in payload if isinstance(payload, dict) else False
        views = []
        shed = None
        for spec in specs:
            try:
                job = self.table.submit(spec)
            except ProtocolError as error:
                self.metrics.jobs_rejected += 1
                raise HttpError(400, str(error)) from None
            except ServiceDraining as error:
                raise HttpError(503, str(error)) from None
            except QueueFull as error:
                shed = error
                views.append(
                    {
                        "state": "shed",
                        "error": str(error),
                        "retry_after_seconds": error.retry_after,
                        "spec": spec.to_payload(),
                    }
                )
                continue
            views.append(job.view(self.table.backlog).to_payload())

        accepted = sum(1 for v in views if v.get("state") != "shed")
        headers: Dict[str, str] = {}
        if shed is not None and accepted == 0:
            # Nothing was admitted: make the whole response a 429 so dumb
            # clients (curl -f, Retry-After-aware proxies) do the right
            # thing without parsing the body.
            headers["Retry-After"] = str(int(shed.retry_after + 0.5) or 1)
            if not batch:
                raise HttpError(429, str(shed), headers)
            return 429, {"jobs": views, "accepted": 0}, headers
        if not batch:
            return 200, views[0], headers
        return 200, {"jobs": views, "accepted": accepted}, headers

    async def _get_job(
        self, job_id: str, query: Dict[str, list]
    ) -> Tuple[int, Any, Dict[str, str]]:
        job = self.table.get(job_id)
        if job is None:
            raise HttpError(404, f"no such job: {job_id}")
        if query.get("wait", ["0"])[-1] not in ("", "0", "false"):
            timeout_text = query.get("timeout", ["30"])[-1]
            try:
                timeout = min(max(float(timeout_text), 0.0), 300.0)
            except ValueError:
                raise HttpError(400, f"bad timeout: {timeout_text!r}") from None
            await job.wait(timeout)
        return 200, job.view(self.table.backlog).to_payload(), {}

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                method, target, _headers, body = request
                status, payload, headers = await self.handle(method, target, body)
            except HttpError as error:
                status, payload, headers = (
                    error.status,
                    {"error": error.message},
                    error.headers,
                )
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as error:  # pragma: no cover - defense in depth
                status, payload, headers = (
                    500,
                    {"error": f"{type(error).__name__}: {error}"},
                    {},
                )
            try:
                writer.write(_encode_response(status, payload, headers))
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        self._shutdown.set()

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(message, flush=True)

    async def serve(self) -> int:
        """Run until SIGTERM/SIGINT (or request_shutdown), then drain."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

        self.table.start()
        pids = await self.pool.prime() if self.pool is not None else ()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            Path(self.config.port_file).write_text(f"{port}\n")
        workers = self.pool.workers if self.pool is not None else 0
        self._log(
            f"repro service listening on http://{self.config.host}:{port} "
            f"(workers={workers} pids={sorted(pids)} "
            f"cache={'on' if self.cache is not None else 'off'} "
            f"high_water={self.table.high_water})"
        )

        await self._shutdown.wait()
        self._log("SIGTERM/shutdown: draining ...")
        self._server.close()
        await self._server.wait_closed()
        drained = await self.table.drain()
        if self._connections:
            await asyncio.gather(*list(self._connections), return_exceptions=True)
        if self.pool is not None:
            self.pool.shutdown()
        self._log(
            f"drain complete: {drained} in-flight job(s) finished, "
            f"{self.metrics.jobs_completed} total completed, exiting"
        )
        return 0


async def serve(config: ServiceConfig) -> int:
    """Entry point for ``repro serve``."""
    return await EvalService(config).serve()
