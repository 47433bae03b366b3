"""Placement pass: partitioning the distributed TSQR task graph across a
device pool (`repro.dist.placement`)."""

from __future__ import annotations

import pytest

from repro.config import PAPER_SYSTEM
from repro.dist.placement import partition_graph
from repro.dist.shard import BlockCyclicLayout, ShardedMatrix
from repro.dist.sim import build_dist_qr_graph
from repro.dist.topology import DeviceTopology
from repro.dist.tree import build_tree
from repro.errors import ValidationError
from repro.host.tiled import HostMatrix, HostRegion
from repro.runtime import TaskGraph
from repro.sim.ops import EngineKind, OpKind, SimOp

M, N, P = 4096, 64, 4


@pytest.fixture(scope="module")
def placement():
    tree = build_tree("binomial", P)
    graph, shards, pin = build_dist_qr_graph(PAPER_SYSTEM, m=M, n=N, tree=tree)
    topo = DeviceTopology.symmetric(PAPER_SYSTEM, P)
    return partition_graph(graph, shards, topo, pin=pin)


class TestPartitioning:
    def test_every_task_is_assigned(self, placement):
        assert set(placement.device_of) == {
            t.task_id for t in placement.graph.tasks
        }
        assert set(placement.device_of.values()) == set(range(P))

    def test_leaf_work_lands_on_slab_owners(self, placement):
        """Each leaf QR runs on the device owning its slab rows."""
        leaf_devices = set()
        for task in placement.graph.tasks:
            if task.op is not None and task.op.tags.get("tag") == "tsqr-leaf":
                leaf_devices.add(placement.device_of[task.task_id])
        assert leaf_devices == set(range(P))

    def test_programs_cover_the_graph(self, placement):
        n_tasks = sum(len(p.tasks) for p in placement.programs)
        assert n_tasks == len(placement.graph.tasks)
        assert [p.device for p in placement.programs] == list(range(P))

    def test_alloc_free_follow_buffer_home(self, placement):
        """Allocator pseudo-tasks sit on the device of their buffer, so
        every program's mem_events ledger is self-contained."""
        for prog in placement.programs:
            live: dict[int, int] = {}
            for ev in prog.mem_events:
                if ev.kind == "alloc":
                    live[ev.handle] = ev.nbytes
                else:
                    assert live.pop(ev.handle) == ev.nbytes
            assert live == {}

    def test_pinned_factors_live_with_their_consumer(self, placement):
        """Pushdown factor buffers are pinned to the consuming leaf even
        though their first touch reads the leader's staged region."""
        for task in placement.graph.tasks:
            if task.mem == "alloc" and task.buffer.name.startswith("T"):
                name = task.buffer.name  # e.g. "T3.r1"
                leaf = int(name[1:].split(".")[0])
                assert placement.device_of[task.task_id] == leaf, name


class TestTransfers:
    def test_cross_device_edges_become_priced_transfers(self, placement):
        assert placement.transfers
        for t in placement.transfers:
            assert t.src != t.dst
            assert t.nbytes > 0
            assert t.cost > 0.0
            assert t.cost == pytest.approx(
                placement.topology.transfer_time(t.src, t.dst, t.nbytes)
            )

    def test_byte_accounting_is_consistent(self, placement):
        total = placement.total_transfer_bytes
        assert total == sum(placement.link_bytes().values())
        per_dev = placement.device_bytes()
        assert sum(s for s, _ in per_dev) == total
        assert sum(r for _, r in per_dev) == total

    def test_reduction_traffic_flows_toward_tree_leaders(self, placement):
        """Round 1 of the 4-leaf binomial tree merges leader 2 into
        leader 0, so bytes must flow on the (2, 0) link."""
        assert placement.link_bytes().get((2, 0), 0) > 0


def _overwrite_graph(overwrite_rows: int):
    """A producer on device 1 writes an unsharded staging tile, device 0
    overwrites its first *overwrite_rows* rows, then device 0 reads the
    whole tile. Each op is anchored by a read of its device's slab."""
    shard = ShardedMatrix(
        HostMatrix.shape_only(128, 8, name="S"),
        BlockCyclicLayout.row_slabs(128, 8, 2),
    )
    staging = HostMatrix.shape_only(8, 8, name="T")
    graph = TaskGraph(PAPER_SYSTEM, label="overwrite")

    def op(name, slab_row0, write_rows=0):
        graph.add_op(
            SimOp(name=name, engine=EngineKind.COMPUTE, kind=OpKind.GEMM,
                  duration=0.0, tags={"accesses": []}),
            host_reads=(
                HostRegion(shard.matrix, slab_row0, slab_row0 + 64, 0, 8),
                *(() if write_rows else (HostRegion(staging, 0, 8, 0, 8),)),
            ),
            host_writes=(
                (HostRegion(staging, 0, write_rows, 0, 8),)
                if write_rows else ()
            ),
        )

    op("produce", 64, write_rows=8)
    op("overwrite", 0, write_rows=overwrite_rows)
    op("consume", 0)
    return partition_graph(graph, shard, DeviceTopology.symmetric(PAPER_SYSTEM, 2))


class TestOverwrittenProducer:
    def test_fully_overwritten_producer_moves_nothing(self):
        placement = _overwrite_graph(overwrite_rows=8)
        assert [placement.device_of[t] for t in range(3)] == [1, 0, 0]
        assert placement.transfers == []

    def test_partly_overwritten_producer_still_transfers(self):
        placement = _overwrite_graph(overwrite_rows=4)
        assert [placement.device_of[t] for t in range(3)] == [1, 0, 0]
        [xfer] = placement.transfers
        assert (xfer.src, xfer.dst) == (1, 0)
        assert xfer.consumer.name == "consume"
        # the consumer reads the producer's whole tile, overwritten
        # rows included (the edge is priced by overlap)
        assert xfer.nbytes == 8 * 8 * PAPER_SYSTEM.element_bytes


class TestVerification:
    def test_every_device_program_verifies(self, placement):
        reports = placement.verify()
        assert len(reports) == P
        assert all(r.ok for r in reports), [
            str(r) for r in reports if not r.ok
        ]

    def test_peak_bytes_match_verifier(self, placement):
        for prog, report in zip(placement.programs, placement.verify()):
            assert prog.peak_bytes() == report.peak_bytes

    def test_tight_budget_fails_cleanly(self, placement):
        reports = placement.verify(budget_bytes=1024)
        assert not any(r.ok for r in reports)


class TestValidation:
    def test_layout_wider_than_topology_rejected(self):
        tree = build_tree("binomial", P)
        graph, shards, pin = build_dist_qr_graph(
            PAPER_SYSTEM, m=M, n=N, tree=tree
        )
        small = DeviceTopology.symmetric(PAPER_SYSTEM, P - 1)
        with pytest.raises(ValidationError):
            partition_graph(graph, shards, small, pin=pin)

    def test_pin_to_unknown_device_rejected(self):
        tree = build_tree("binomial", 2)
        graph, shards, _ = build_dist_qr_graph(
            PAPER_SYSTEM, m=1024, n=64, tree=tree
        )
        topo = DeviceTopology.symmetric(PAPER_SYSTEM, 2)
        with pytest.raises(ValidationError):
            partition_graph(graph, shards, topo, pin={"T1.r0": 7})

    def test_empty_shard_tuple_rejected(self):
        tree = build_tree("binomial", 2)
        graph, _, _ = build_dist_qr_graph(
            PAPER_SYSTEM, m=1024, n=64, tree=tree
        )
        topo = DeviceTopology.symmetric(PAPER_SYSTEM, 2)
        with pytest.raises(ValidationError):
            partition_graph(graph, (), topo)

    def test_unsharded_matrix_falls_back_to_default_device(self):
        """A graph over a matrix with no shard map lands entirely on the
        default device and moves nothing."""
        tree = build_tree("binomial", 2)
        graph, _, pin = build_dist_qr_graph(
            PAPER_SYSTEM, m=1024, n=64, tree=tree
        )
        decoy = ShardedMatrix(
            HostMatrix.shape_only(8, 8, name="decoy"),
            BlockCyclicLayout.row_slabs(8, 8, 2),
        )
        topo = DeviceTopology.symmetric(PAPER_SYSTEM, 2)
        placement = partition_graph(graph, decoy, topo)
        assert set(placement.device_of.values()) == {0}
        assert placement.transfers == []
