"""DFSClient: the task-facing HDFS interface.

Tasks use the DFSClient to read splits and write output files; the
client resolves blocks with the NameNode and streams them through the
:class:`BlockService`, carrying the application tag in every request
header exactly as the modified DFSClient of the prototype does (§3).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import IOTag
from repro.hdfs.blocks import HdfsFile
from repro.hdfs.datanode import BlockService
from repro.hdfs.namenode import NameNode
from repro.simcore import Simulator

__all__ = ["DFSClient"]


class DFSClient:
    def __init__(self, sim: Simulator, namenode: NameNode, blocks: BlockService):
        self.sim = sim
        self.namenode = namenode
        self.blocks = blocks

    # ----------------------------------------------------------------- read
    def read_file(self, path: str, reader_node: str, tag: IOTag):
        """Generator: read a whole file sequentially; returns bytes read."""
        f = self.namenode.lookup(path)
        return (yield from self.read_blocks(f, range(len(f.blocks)), reader_node, tag))

    def read_blocks(
        self,
        f: HdfsFile,
        indices: Sequence[int],
        reader_node: str,
        tag: IOTag,
    ):
        """Generator: read selected blocks of a file (a map task's split)."""
        total = 0
        for i in indices:
            total += yield from self.blocks.read_block(f.blocks[i], reader_node, tag)
        return total

    # ---------------------------------------------------------------- write
    def write_file(
        self,
        path: str,
        size: int,
        writer_node: str,
        tag: IOTag,
        spread: bool = False,
    ):
        """Generator: create and write a file of ``size`` bytes.

        Blocks are written sequentially through the replication
        pipeline; returns the created :class:`HdfsFile`.
        """
        f = self.namenode.create_file(path, size, writer_node=writer_node,
                                      spread=spread)
        for loc in f.blocks:
            yield from self.blocks.write_block(loc, writer_node, tag)
        return f

    def preload(
        self,
        path: str,
        size: int,
        node: Optional[str] = None,
        nodes: Optional[Sequence[str]] = None,
    ) -> HdfsFile:
        """Instantly materialise an input file (no simulated I/O), spread
        evenly across the cluster — the state after the paper's data
        ingestion, which is not part of any measured experiment.
        ``nodes`` restricts placement (skewed data distribution, §7.6)."""
        return self.namenode.create_file(
            path, size, writer_node=node, spread=True, candidates=nodes
        )
