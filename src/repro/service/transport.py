"""Wire protocol and transports: how clients reach the scheduler.

Messages are JSON objects, each with an ``"op"`` field.  Two transports
carry them (the comm layer is modelled on Dask's ``distributed``, which
the ROADMAP names as the reference shape):

* ``inproc://<name>`` — an in-process pipe pair: no sockets, no ports,
  fully deterministic — what the test suite and the CI smoke job use.
  The dicts pass through unencoded.
* ``tcp://<host>:<port>`` — one JSON object per line over a TCP stream
  (port ``0`` picks a free port; the listener reports the bound
  address).

The server side is async (driven by the scheduler's event loop); the
client side is deliberately synchronous so the thin client works from
any script, thread, or REPL without touching asyncio.

Client → scheduler ops:

``submit``    ``{"op": "submit", "scenario": {...}, "stream": bool}``
``status``    ``{"op": "status", "sub_id": "..."}``
``result``    ``{"op": "result", "sub_id": "..."}``
``stats``     ``{"op": "stats"}``

Scheduler → client ops:

``submitted`` ``{"op": "submitted", "sub_id", "content_hash", "state"}``
``busy``      ``{"op": "busy", "queue_depth", "max_queue", "retry_after"}``
              (bounded admission: the submission queue is full; the
              client should re-submit after ``retry_after`` seconds —
              :meth:`~repro.service.client.ServiceClient.submit` does
              this automatically)
``status``    ``{"op": "status", "sub_id", "state", "cached",
              "attempts", ...}`` (a retried submission also carries
              ``retries``: the backoff schedule it sat out, and a
              quarantined one ``quarantined: true``)
``event``     ``{"op": "event", "sub_id", "record": {...}}`` (streamed
              before the result when the submission asked for events;
              records follow :data:`repro.telemetry.trace.TRACE_SCHEMA`)
``result``    ``{"op": "result", "sub_id", "state", "manifest": {...}}``
``stats``     ``{"op": "stats", ...counters...}``
``error``     ``{"op": "error", "error": "..."}``
"""

from __future__ import annotations

import asyncio
import json
import queue
import socket
from typing import Any, Awaitable, Callable, Optional

__all__ = [
    "ServiceTimeout",
    "connect",
    "decode",
    "encode",
    "error_message",
    "listen",
    "parse_address",
]

#: Per-connection server hook: runs until the client hangs up.  A
#: server channel has ``async recv() -> dict | None`` (``None`` once
#: the client hung up) and ``async send(msg)``.
Handler = Callable[[Any], Awaitable[None]]


class ServiceTimeout(TimeoutError):
    """A client-side ``recv(timeout=...)`` expired with no reply.

    Raised identically by both transports (the tcp socket timeout and
    the inproc queue timeout both convert to this), so callers handle
    one exception, not one per transport.  The pending reply is
    abandoned — after a timeout the channel may be mid-message and
    should be closed rather than reused.
    """


def encode(msg: dict[str, Any]) -> bytes:
    """One message → one JSON line (the TCP framing)."""
    return (json.dumps(msg, sort_keys=True) + "\n").encode("utf-8")


def decode(line: "bytes | str") -> dict[str, Any]:
    """One JSON line → one message; rejects non-object payloads."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    msg = json.loads(line)
    if not isinstance(msg, dict) or "op" not in msg:
        raise ValueError(f"service message must be an object with an 'op', "
                         f"got {line.strip()!r}")
    return msg


def error_message(exc_or_text: "BaseException | str") -> dict[str, Any]:
    if isinstance(exc_or_text, BaseException):
        exc_or_text = f"{type(exc_or_text).__name__}: {exc_or_text}"
    return {"op": "error", "error": str(exc_or_text)}


def parse_address(address: str) -> tuple[str, str]:
    """``scheme://rest`` → ``(scheme, rest)``; the scheme must be
    ``inproc`` or ``tcp``."""
    scheme, sep, rest = address.partition("://")
    if not sep or not scheme or not rest:
        raise ValueError(
            f"transport address must look like scheme://location "
            f"(tcp://host:port or inproc://name), got {address!r}"
        )
    if scheme not in ("inproc", "tcp"):
        raise ValueError(
            f"unknown transport scheme {scheme!r}; use inproc:// or tcp://"
        )
    return scheme, rest


async def listen(address: str, handler: Handler):
    """Bind ``address`` on the *running* event loop; ``handler`` runs
    once per client connection.  Returns a listener with ``address``
    (the bound one) and ``async close()``."""
    scheme, rest = parse_address(address)
    if scheme == "inproc":
        return _listen_inproc(rest, handler)
    return await _listen_tcp(rest, handler)


def connect(address: str):
    """Open a synchronous client channel to a listening scheduler: it
    has ``send(msg)``, ``recv(timeout=None) -> dict`` (raising
    :class:`ServiceTimeout` on expiry) and ``close()``."""
    scheme, rest = parse_address(address)
    if scheme == "inproc":
        return _connect_inproc(rest)
    host, _, port = rest.rpartition(":")
    if not host or not port:
        raise ValueError(f"tcp address needs host:port, got tcp://{rest}")
    return _TcpClientChannel(socket.create_connection((host, int(port))))


# ------------------------------------------------------------------ inproc
#: name → live in-process listener (one scheduler per name).
_INPROC: dict[str, "_InProcListener"] = {}


class _InProcServerChannel:
    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._to_server: asyncio.Queue = asyncio.Queue()
        self._to_client: "queue.Queue[dict]" = queue.Queue()

    async def recv(self) -> Optional[dict]:
        return await self._to_server.get()

    async def send(self, msg: dict) -> None:
        self._to_client.put(msg)


class _InProcClientChannel:
    def __init__(self, server: _InProcServerChannel):
        self._server = server
        self._closed = False

    def send(self, msg: dict) -> None:
        if self._closed:
            raise ConnectionError("channel is closed")
        self._server._loop.call_soon_threadsafe(
            self._server._to_server.put_nowait, msg
        )

    def recv(self, timeout: Optional[float] = None) -> dict:
        try:
            return self._server._to_client.get(timeout=timeout)
        except queue.Empty:
            raise ServiceTimeout(
                f"no reply from the scheduler within {timeout:g}s "
                f"(inproc transport)"
            ) from None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._server._loop.call_soon_threadsafe(
            self._server._to_server.put_nowait, None
        )


class _InProcListener:
    def __init__(self, name: str, handler: Handler,
                 loop: asyncio.AbstractEventLoop):
        self.name = name
        self.address = f"inproc://{name}"
        self.handler = handler
        self.loop = loop

    async def close(self) -> None:
        _INPROC.pop(self.name, None)


def _listen_inproc(rest: str, handler: Handler) -> _InProcListener:
    if rest in _INPROC:
        raise ValueError(f"inproc://{rest} is already listening")
    listener = _InProcListener(rest, handler, asyncio.get_running_loop())
    _INPROC[rest] = listener
    return listener


def _connect_inproc(rest: str) -> _InProcClientChannel:
    listener = _INPROC.get(rest)
    if listener is None:
        raise ConnectionError(
            f"no scheduler is listening on inproc://{rest} "
            f"(live: {sorted(_INPROC) or 'none'})"
        )
    server = _InProcServerChannel(listener.loop)
    asyncio.run_coroutine_threadsafe(listener.handler(server), listener.loop)
    return _InProcClientChannel(server)


# --------------------------------------------------------------------- tcp
class _TcpServerChannel:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    async def recv(self) -> Optional[dict]:
        line = await self._reader.readline()
        if not line:
            return None
        return decode(line)

    async def send(self, msg: dict) -> None:
        self._writer.write(encode(msg))
        await self._writer.drain()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _TcpListener:
    def __init__(self, server: asyncio.base_events.Server, address: str):
        self._server = server
        self.address = address

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()


async def _listen_tcp(rest: str, handler: Handler) -> _TcpListener:
    host, _, port = rest.rpartition(":")
    if not host or not port:
        raise ValueError(f"tcp address needs host:port, got tcp://{rest}")

    async def on_connect(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        chan = _TcpServerChannel(reader, writer)
        try:
            await handler(chan)
        finally:
            await chan.close()

    server = await asyncio.start_server(on_connect, host, int(port))
    bound = server.sockets[0].getsockname()
    return _TcpListener(server, f"tcp://{bound[0]}:{bound[1]}")


class _TcpClientChannel:
    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._file = sock.makefile("rwb")

    def send(self, msg: dict) -> None:
        self._file.write(encode(msg))
        self._file.flush()

    def recv(self, timeout: Optional[float] = None) -> dict:
        self._sock.settimeout(timeout)
        try:
            line = self._file.readline()
        except (socket.timeout, TimeoutError):
            raise ServiceTimeout(
                f"no reply from the scheduler within {timeout:g}s "
                f"(tcp transport; the channel may be mid-message — "
                f"close it rather than reusing it)"
            ) from None
        if not line:
            raise ConnectionError("scheduler closed the connection")
        return decode(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()
