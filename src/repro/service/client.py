"""Thin synchronous client for the scenario service.

One connection, request/response::

    from repro.service import ServiceClient

    with ServiceClient("tcp://127.0.0.1:8642") as client:
        sub = client.submit("examples/scenarios/latency_breakdown.json")
        print(client.status(sub)["state"])
        manifest = client.result(sub)          # blocks until done
        print(manifest.metrics_hash())

``submit`` accepts a :class:`~repro.scenario.spec.Scenario`, a spec
dict, JSON text, or a path to a scenario file.  ``result`` returns the
reconstructed :class:`~repro.scenario.runner.RunManifest`; with
``stream=True`` at submit time, telemetry records arrive first and are
handed to ``on_event`` (they follow
:data:`repro.telemetry.trace.TRACE_SCHEMA`).
"""

from __future__ import annotations

import pathlib
from typing import Any, Callable, Mapping, Optional, Union

from repro.scenario.runner import RunManifest
from repro.scenario.spec import Scenario, load_scenario
from repro.service.transport import ServiceTimeout, connect

__all__ = ["ServiceClient", "ServiceError", "ServiceTimeout"]


class ServiceError(RuntimeError):
    """The scheduler reported an error (bad request or failed run)."""


def _as_scenario_dict(
    scenario: Union[Scenario, Mapping[str, Any], str, pathlib.Path],
) -> dict[str, Any]:
    if isinstance(scenario, Scenario):
        return scenario.to_dict()
    if isinstance(scenario, (str, pathlib.Path)):
        return load_scenario(scenario).to_dict()
    return dict(scenario)


class ServiceClient:
    """One synchronous channel to a running scheduler."""

    def __init__(self, address: str):
        self.address = address
        self._chan = connect(address)

    # ------------------------------------------------------------ plumbing
    def _request(self, msg: dict, expect: str,
                 on_event: Optional[Callable[[dict], None]] = None,
                 timeout: Optional[float] = None) -> dict:
        self._chan.send(msg)
        while True:
            reply = self._chan.recv(timeout=timeout)
            op = reply.get("op")
            if op == "error":
                raise ServiceError(reply.get("error", "unknown error"))
            if op == "event":
                if on_event is not None:
                    on_event(reply["record"])
                continue
            if op == expect:
                return reply
            raise ServiceError(f"unexpected reply {op!r} (wanted {expect!r})")

    # ----------------------------------------------------------------- api
    def submit(
        self,
        scenario: Union[Scenario, Mapping[str, Any], str, pathlib.Path],
        stream: bool = False,
    ) -> str:
        """Submit a scenario; returns its submission id."""
        reply = self._request(
            {"op": "submit", "scenario": _as_scenario_dict(scenario),
             "stream": bool(stream)},
            expect="submitted",
        )
        return reply["sub_id"]

    def status(self, sub_id: str) -> dict[str, Any]:
        """Snapshot: state (queued/running/done/failed), cache flags."""
        return self._request({"op": "status", "sub_id": sub_id},
                             expect="status")

    def result(
        self,
        sub_id: str,
        on_event: Optional[Callable[[dict], None]] = None,
        timeout: Optional[float] = None,
    ) -> RunManifest:
        """Block until the submission finishes; returns its manifest.

        Raises :class:`ServiceError` if the run failed.  ``timeout``
        bounds each wait on the channel, not the whole run; an expiry
        raises :class:`~repro.service.transport.ServiceTimeout` (and the
        channel should then be closed, not reused).
        """
        reply = self._request({"op": "result", "sub_id": sub_id},
                              expect="result", on_event=on_event,
                              timeout=timeout)
        if reply.get("state") == "failed":
            raise ServiceError(
                f"submission {sub_id} failed: {reply.get('error')}"
            )
        return RunManifest.from_dict(reply["manifest"])

    def run(
        self,
        scenario: Union[Scenario, Mapping[str, Any], str, pathlib.Path],
        stream: bool = False,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> RunManifest:
        """Submit and wait — the one-call round trip."""
        return self.result(self.submit(scenario, stream=stream),
                           on_event=on_event)

    def stats(self) -> dict[str, Any]:
        """The scheduler's counters (submissions, cache hits, runs)."""
        return self._request({"op": "stats"}, expect="stats")

    def close(self) -> None:
        self._chan.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
