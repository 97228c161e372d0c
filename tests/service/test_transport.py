"""Transport layer: address parsing, tcp round trips."""

import asyncio
import socket
import threading
from contextlib import closing

import pytest

from repro.execution import ResultStore
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceTimeout,
    connect,
    listen,
    parse_address,
)
from repro.service.transport import decode, encode, error_message


def test_parse_address():
    assert parse_address("tcp://127.0.0.1:8642") == ("127.0.0.1", 8642)
    # IPv6: bracketed or bare; the port follows the last colon.
    assert parse_address("tcp://[::1]:0") == ("::1", 0)
    assert parse_address("tcp://::1:0") == ("::1", 0)
    assert parse_address("tcp://[fe80::1%lo]:8642") == ("fe80::1%lo", 8642)
    for bad in ("8642", "tcp://", "://x", "tcp:8642", "tcp://host",
                "tcp://host:port", "udp://127.0.0.1:8642",
                "tcp://[::1]", "tcp://[::1:0", "tcp://::1]:0", "tcp://[]:0",
                "tcp://[[::1]]:0", "tcp://[::1]x:0"):
        with pytest.raises(ValueError):
            parse_address(bad)


def _ipv6_loopback() -> bool:
    if not socket.has_ipv6:
        return False
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _ipv6_loopback(), reason="the loopback has no IPv6")
def test_service_binds_a_bracketed_ipv6_address(tmp_path):
    """A service bound on ``tcp://[::1]:0`` reports its bound address in
    the same bracketed form, and a client reaches it there."""
    svc = SchedulerService(store=ResultStore(tmp_path / "results"))
    svc.start("tcp://[::1]:0")
    try:
        assert svc.address.startswith("tcp://[::1]:")
        assert not svc.address.endswith(":0")
        with ServiceClient(svc.address) as client:
            assert client.stats()["address"] == svc.address
    finally:
        svc.stop()


def test_encode_decode_round_trip():
    msg = {"op": "submit", "scenario": {"name": "x"}, "n": 3}
    line = encode(msg)
    assert line.endswith(b"\n") and b"\n" not in line[:-1]
    assert decode(line) == msg
    with pytest.raises(ValueError):
        decode(b"[1, 2]\n")  # not an object
    with pytest.raises(ValueError):
        decode(b'{"no_op": 1}\n')
    err = error_message(KeyError("boom"))
    assert err["op"] == "error" and "boom" in err["error"]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown transport"):
        connect("carrier-pigeon://loft")


class _EchoLoop:
    """An event loop on a thread running an echo handler — the minimal
    stand-in for the scheduler's serving loop."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.listener = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()

    async def _echo(self, chan):
        while True:
            msg = await chan.recv()
            if msg is None:
                return
            await chan.send({"op": "echo", "got": msg})

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self._ready.set()
        self.loop.run_forever()

    def start(self, address: str) -> str:
        self._thread.start()
        self._ready.wait()
        fut = asyncio.run_coroutine_threadsafe(
            listen(address, self._echo), self.loop
        )
        self.listener = fut.result(timeout=5)
        return self.listener.address

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.listener.close(), self.loop
        ).result(timeout=5)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)


@pytest.mark.parametrize("address", ["tcp://127.0.0.1:0"])
def test_channel_round_trip(address):
    server = _EchoLoop()
    bound = server.start(address)
    try:
        assert not bound.endswith(":0")  # listener reports real port
        with closing(connect(bound)) as chan:
            for i in range(3):
                chan.send({"op": "ping", "i": i})
                assert chan.recv(timeout=5) == {
                    "op": "echo", "got": {"op": "ping", "i": i},
                }
        # A second connection works independently.
        with closing(connect(bound)) as chan:
            chan.send({"op": "again"})
            assert chan.recv(timeout=5)["got"] == {"op": "again"}
    finally:
        server.stop()


@pytest.mark.parametrize("address", ["tcp://127.0.0.1:0"])
def test_recv_timeout_raises_service_timeout(address):
    """An expired ``recv(timeout=...)`` raises a clear ServiceTimeout,
    never a bare socket error."""
    server = _EchoLoop()
    bound = server.start(address)
    try:
        with closing(connect(bound)) as chan:
            # Nothing sent — nothing will ever arrive.
            with pytest.raises(ServiceTimeout, match="no reply"):
                chan.recv(timeout=0.05)
            assert issubclass(ServiceTimeout, TimeoutError)
    finally:
        server.stop()


def test_connect_without_listener_raises_connection_error():
    with closing(socket.socket()) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # Nothing listens on the port the probe held.
    with pytest.raises(ConnectionError):
        connect(f"tcp://127.0.0.1:{port}")
