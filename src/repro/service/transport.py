"""Wire protocol and transport: how clients reach the scheduler.

Messages are JSON objects, each with an ``"op"`` field, carried one
per line over a TCP stream at ``tcp://<host>:<port>`` (port ``0`` picks
a free port; the listener reports the bound address; an IPv6 host is
written ``tcp://[::1]:<port>``).  The comm layer
is modelled on Dask's ``distributed``, which the ROADMAP names as the
reference shape.

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

    The socket timeout converts to this, so callers handle one
    service-level exception.  The pending reply is abandoned — after a
    timeout the channel may be mid-message and should be closed rather
    than reused.
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


def parse_address(address: str) -> tuple[str, int]:
    """``tcp://host:port`` → ``(host, port)``; ``ValueError`` for
    anything else.  An IPv6 host may be bracketed (``tcp://[::1]:0``)
    or bare (``tcp://::1:0``): the port follows the last ``:``."""
    scheme, sep, rest = address.partition("://")
    if not sep or not scheme or not rest:
        raise ValueError(
            f"transport address must look like tcp://host:port, "
            f"got {address!r}"
        )
    if scheme != "tcp":
        raise ValueError(
            f"unknown transport scheme {scheme!r}; use tcp://host:port"
        )
    host, _, port = rest.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not host or "[" in host or "]" in host or not port.isdigit():
        raise ValueError(f"tcp address needs host:port, got {address!r}")
    return host, int(port)


async def listen(address: str, handler: Handler):
    """Bind ``address`` on the *running* event loop; ``handler`` runs
    once per client connection.  Returns a listener with ``address``
    (the bound one) and ``async close()``."""
    host, port = parse_address(address)

    async def on_connect(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        chan = _TcpServerChannel(reader, writer)
        try:
            try:
                await handler(chan)
            finally:
                await chan.close()
        except asyncio.CancelledError:
            # The service is stopping, perhaps mid-close; Python 3.11
            # logs a cancelled connection callback otherwise.
            pass

    server = await asyncio.start_server(on_connect, host, port)
    host, port = server.sockets[0].getsockname()[:2]
    if ":" in host:  # IPv6: bracketed, as parse_address reads it back
        host = f"[{host}]"
    return _TcpListener(server, f"tcp://{host}:{port}")


def connect(address: str):
    """Open a synchronous client channel to a listening scheduler: it
    has ``send(msg)``, ``recv(timeout=None) -> dict`` (raising
    :class:`ServiceTimeout` on expiry) and ``close()``."""
    return _TcpClientChannel(socket.create_connection(parse_address(address)))


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
                f"(the channel may be mid-message — close it rather "
                f"than reusing it)"
            ) from None
        if not line:
            raise ConnectionError("scheduler closed the connection")
        return decode(line)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()
