"""Network substrate: per-node NICs with fair-shared bandwidth."""

from repro.net.fabric import NetFabric

__all__ = ["NetFabric"]
