"""The NameNode: namespace and replica placement.

Placement follows HDFS's default policy: first replica on the writer's
node (when the writer is a datanode), the remaining replicas on
distinct randomly-chosen nodes.  Data spread for pre-loaded input files
uses round-robin primaries so map tasks get even locality — matching a
well-balanced cluster, which the paper's experiments assume.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.hdfs.blocks import Block, BlockLocations, HdfsFile
from repro.simcore.rng import PCG64Stream

__all__ = ["NameNode"]


class NameNode:
    def __init__(
        self,
        datanodes: Sequence[str],
        block_size: int,
        replication: int,
        rng: PCG64Stream,  # or anything with numpy's ``choice``
    ):
        if not datanodes:
            raise ValueError("need at least one datanode")
        if block_size <= 0:
            raise ValueError("block size must be positive")
        if not (1 <= replication):
            raise ValueError("replication must be >= 1")
        self.datanodes = list(datanodes)
        self.block_size = int(block_size)
        self.replication = min(int(replication), len(self.datanodes))
        self._rng = rng
        self._files: dict[str, HdfsFile] = {}
        self._next_block_id = itertools.count(1)
        self._rr = 0  # round-robin pointer for spread placement
        self._dead: set[str] = set()  # nodes excluded from placement

    # ------------------------------------------------------------- liveness
    def node_down(self, node: str) -> None:
        """Mark a datanode dead: it stops receiving new replicas."""
        if node not in self.datanodes:
            raise ValueError(f"unknown datanode {node!r}")
        self._dead.add(node)

    def node_up(self, node: str) -> None:
        """A dead datanode rejoined the cluster."""
        self._dead.discard(node)

    def is_alive(self, node: str) -> bool:
        return node not in self._dead

    # ---------------------------------------------------------------- reads
    def lookup(self, path: str) -> HdfsFile:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def files(self) -> list[str]:
        return sorted(self._files)

    # --------------------------------------------------------------- writes
    def split_into_blocks(self, path: str, size: int) -> list[Block]:
        """Plan the block list for a file of ``size`` bytes."""
        if size <= 0:
            raise ValueError("file size must be positive")
        blocks = []
        remaining = size
        index = 0
        while remaining > 0:
            bsize = min(self.block_size, remaining)
            blocks.append(
                Block(next(self._next_block_id), path, index, bsize)
            )
            remaining -= bsize
            index += 1
        return blocks

    def create_file(self, path: str, size: int, writer_node: Optional[str] = None,
                    spread: bool = False,
                    candidates: Optional[Sequence[str]] = None) -> HdfsFile:
        """Create a file and place its replicas.

        ``spread=True`` round-robins primaries across datanodes (used to
        pre-load benchmark inputs evenly).  Otherwise the primary is the
        writer's node, per the default HDFS policy.  ``candidates``
        restricts placement to a node subset — used to induce the uneven
        data distribution whose effect §7.6 studies.
        """
        if path in self._files:
            raise FileExistsError(path)
        f = HdfsFile(path)
        for block in self.split_into_blocks(path, size):
            f.blocks.append(BlockLocations(block, self.place_replicas(
                writer_node=None if spread else writer_node,
                candidates=candidates,
            )))
        self._files[path] = f
        return f

    def place_replicas(
        self,
        writer_node: Optional[str] = None,
        candidates: Optional[Sequence[str]] = None,
    ) -> tuple[str, ...]:
        """Pick ``replication`` distinct datanodes, primary first."""
        pool = list(candidates) if candidates else self.datanodes
        for n in pool:
            if n not in self.datanodes:
                raise ValueError(f"unknown datanode {n!r} in placement pool")
        if self._dead:
            pool = [n for n in pool if n not in self._dead]
            if not pool:
                raise ValueError("no live datanode available for placement")
        replication = min(self.replication, len(pool))
        if writer_node is not None and writer_node not in self.datanodes:
            raise ValueError(f"unknown writer node {writer_node!r}")
        if writer_node is None or writer_node not in pool:
            primary = pool[self._rr % len(pool)]
            self._rr += 1
        else:
            primary = writer_node
        others = [n for n in pool if n != primary]
        extra = self._rng.choice(
            len(others), size=replication - 1, replace=False
        ) if replication > 1 else []
        return (primary, *(others[i] for i in extra))

    def delete(self, path: str) -> None:
        self._files.pop(path, None)
