"""Test-side adapter: one device request as an :class:`Event`.

``StorageDevice.submit`` reports only to an owner.  Tests that
``yield`` a request, or hang callbacks on it, submit through
:func:`submit`: its owner triggers the event passed in as the request
when the device's completion record pops, with the
:class:`~repro.storage.IOCompletion` or the device fault.
"""

from repro.simcore import Event


class _EventOwner:
    @staticmethod
    def _on_device_event(ev: Event, record) -> None:
        if record._exc is None:
            ev.succeed(record._value)
        else:
            ev.fail(record._exc)


_OWNER = _EventOwner()


def submit(dev, op: str, nbytes: int) -> Event:
    """Submit ``op`` of ``nbytes`` to ``dev``; the event settles with
    its outcome."""
    ev = Event(dev.sim, name=f"io:{dev.name}:{op}")
    dev.submit(op, nbytes, _OWNER, ev)
    return ev
