"""Transport layer: address parsing, inproc + tcp round trips."""

import asyncio
import threading
from contextlib import closing

import pytest

from repro.service import ServiceTimeout, connect, listen, parse_address
from repro.service.transport import decode, encode, error_message


def test_parse_address():
    assert parse_address("tcp://127.0.0.1:8642") == ("tcp", "127.0.0.1:8642")
    assert parse_address("inproc://x") == ("inproc", "x")
    for bad in ("8642", "tcp://", "://x", "tcp:8642"):
        with pytest.raises(ValueError):
            parse_address(bad)


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


@pytest.mark.parametrize("address", ["inproc://echo-test", "tcp://127.0.0.1:0"])
def test_channel_round_trip(address):
    server = _EchoLoop()
    bound = server.start(address)
    try:
        if address.startswith("tcp"):
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


@pytest.mark.parametrize(
    "address", ["inproc://timeout-test", "tcp://127.0.0.1:0"]
)
def test_recv_timeout_raises_service_timeout(address):
    """Satellite contract: an expired ``recv(timeout=...)`` raises the
    same clear ServiceTimeout on every transport — never a bare socket
    error or queue.Empty."""
    server = _EchoLoop()
    bound = server.start(address)
    try:
        with closing(connect(bound)) as chan:
            # Nothing sent — nothing will ever arrive.
            with pytest.raises(ServiceTimeout, match="no reply"):
                chan.recv(timeout=0.05)
            assert issubclass(ServiceTimeout, TimeoutError)
            # The channel still delivers once traffic actually flows
            # (inproc) — tcp channels should be closed after a timeout.
            if bound.startswith("inproc"):
                chan.send({"op": "ping"})
                assert chan.recv(timeout=5)["op"] == "echo"
    finally:
        server.stop()


def test_inproc_connect_without_listener():
    with pytest.raises(ConnectionError, match="no scheduler"):
        connect("inproc://nobody-home")


def test_inproc_double_listen_rejected():
    server = _EchoLoop()
    server.start("inproc://busy")
    try:
        other = _EchoLoop()
        other._thread.start()
        other._ready.wait()
        fut = asyncio.run_coroutine_threadsafe(
            listen("inproc://busy", other._echo), other.loop
        )
        with pytest.raises(ValueError, match="already listening"):
            fut.result(timeout=5)
        other.loop.call_soon_threadsafe(other.loop.stop)
        other._thread.join(timeout=5)
    finally:
        server.stop()
