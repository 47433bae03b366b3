"""Simulated multi-device TSQR: one global task graph, partitioned,
verified, and timed per device.

The pipeline is the tentpole path end to end:

1. **build** — :func:`build_dist_qr_graph` drives one
   :class:`~repro.runtime.builder.GraphBuilder` (``materialize=False``)
   through the whole distributed TSQR: per-leaf slab load + local QR,
   the reduction tree's merges with R factors staged through host
   regions, per-round tree-factor pushdown GEMMs, and slab writeback.
   Edges are derived from data accesses exactly as for single-device
   graphs. Factor broadcasts are host-staged: a group leader stores its
   b-by-b tree factor to host *once* and every group member loads it
   over its own link — the physical PCIe broadcast, not a per-member
   resend.
2. **place** — :func:`~repro.dist.placement.partition_graph` splits the
   graph by shard ownership (the input matrix plus the R/factor staging
   matrices are all sharded one leaf per device; pushdown factor
   buffers are pinned to their consuming leaf), yielding one
   :class:`~repro.dist.placement.DeviceProgram` per device and the
   explicit inter-device transfers.
3. **verify** — ``verify_program`` proves every device's slice
   race-free, leak-free, and within the per-device memory budget.
4. **time** — the makespan is a global list-schedule of the whole
   graph: tasks run in emission order, each serializing on its
   ``(device, engine)`` resource and waiting for all dependencies
   (including cross-device ones). No separate "transfer time" term is
   added — every inter-device byte moves as a D2H op priced on the
   producer's link plus an H2D op priced on the consumer's link, so the
   staging cost lives inside the schedule itself. Per-device isolated
   timelines (:class:`~repro.sim.simulator.GpuSimulator` runs of each
   device's slice) feed the span lanes and scaling diagnostics.

Per-device communication is reported both ways: the packed-triangle
schedule accounting of :meth:`~repro.dist.tree.ReductionTree.comm_report`
(what the CAQR bound constrains) and the placement pass's raw transfer
bytes (what the graph actually moves, full b-by-b tiles).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis.precision import check_precision
from repro.analysis.verify import AnalysisReport, verify_program
from repro.config import SystemConfig
from repro.dist.placement import DeviceProgram, Placement, partition_graph
from repro.dist.recovery import RecoveryPlan, recover_placement
from repro.dist.shard import BlockCyclicLayout, ShardedMatrix, slab_offsets
from repro.dist.topology import DeviceTopology
from repro.dist.tree import ReductionTree, TreeCommReport, build_tree
from repro.errors import DeviceLostError, InjectedFaultError, ValidationError
from repro.faults.inject import as_injector
from repro.faults.report import FaultReport
from repro.host.tiled import HostMatrix
from repro.obs.span import Span
from repro.runtime.backends import simulate_tasks
from repro.runtime.builder import GraphBuilder
from repro.runtime.task import TaskGraph
from repro.sim.simulator import GpuSimulator
from repro.sim.trace import Trace
from repro.util.validation import positive_int


@dataclass
class DistSimResult:
    """Outcome of one simulated distributed QR."""

    m: int
    n: int
    n_devices: int
    tree: ReductionTree
    topology: DeviceTopology
    graph: TaskGraph
    placement: Placement
    reports: list[AnalysisReport]
    traces: list[Trace]
    #: Global list-schedule makespan (model seconds): all devices, all
    #: engines, cross-device dependencies included.
    makespan: float
    #: Each device's slice timed in isolation (no cross-device waits) —
    #: the per-lane busy picture, not the end-to-end time.
    local_makespans: tuple[float, ...]
    comm: TreeCommReport
    #: Fault-plane provenance; ``None`` when no injector was active.
    faults: FaultReport | None = None
    #: The verified re-placement over survivors after injected device
    #: losses (``None`` on fault-free runs).
    recovery: RecoveryPlan | None = None
    #: Static precision pass over the *global* graph (the per-device
    #: reports cover only each slice): predicted forward-error bound and
    #: the plan it was walked under. The bound prices the reduction tree
    #: by its depth — ``log2 P`` merge steps for binomial, ``P - 1`` for
    #: flat. See :mod:`repro.analysis.precision` / docs/analysis.md.
    precision_bound: float = 0.0
    precision_plan: str = ""

    @property
    def all_verified(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def peak_bytes(self) -> int:
        """Worst per-device live-byte high-water mark."""
        return max(r.peak_bytes for r in self.reports)

    @property
    def transfer_bytes(self) -> int:
        """Raw bytes the placement pass moves between devices."""
        return self.placement.total_transfer_bytes

    def speedup_over(self, single: "DistSimResult") -> float:
        return single.makespan / self.makespan if self.makespan else 0.0


def build_dist_qr_graph(
    config: SystemConfig,
    *,
    m: int,
    n: int,
    tree: ReductionTree,
) -> tuple[TaskGraph, tuple[ShardedMatrix, ...], dict[str, int]]:
    """Emit the global distributed-TSQR task graph, its shard maps, and
    the buffer pin map for :func:`~repro.dist.placement.partition_graph`.

    Leaf *d*'s slab rows come from :func:`~repro.dist.shard.slab_offsets`
    (identical to ``tsqr``'s split). R factors and pushdown tree factors
    are staged through two host matrices of one n-by-n row slab per
    leaf, sharded so region ownership places every op on the right
    device. Each pushdown round allocates a fresh factor buffer per
    participating leaf, pinned to that leaf: its first touch reads the
    *leader's* staged factor region (the broadcast), so ownership alone
    would misplace it — and the fresh allocation keeps each reload
    distinguishable to the redundant-transfer verifier after the writer
    landed on a different device.
    """
    m, n = positive_int(m, "m"), positive_int(n, "n")
    P = tree.n_leaves
    slabs = slab_offsets(m, n, P)
    if len(slabs) != P:
        raise ValidationError(
            f"{m}x{n} splits into {len(slabs)} TSQR leaves of >= {n} rows; "
            f"cannot occupy {P} devices (need ceil(m / P) >= n)"
        )
    host_a = HostMatrix.shape_only(m, n, name="A")
    r_stage = HostMatrix.shape_only(P * n, n, name="Rstage")
    f_stage = HostMatrix.shape_only(P * n, n, name="Tstage")
    leaf_layout = BlockCyclicLayout(
        grid_rows=P, grid_cols=1, tile_rows=n, tile_cols=n
    )
    shards = (
        ShardedMatrix(host_a, BlockCyclicLayout.row_slabs(m, n, P)),
        ShardedMatrix(r_stage, leaf_layout),
        ShardedMatrix(f_stage, leaf_layout),
    )

    # The builder's allocator is a *pool-wide* ledger (it carries every
    # device's buffers in one emission order), so its capacity is P
    # devices' worth; the per-device budget is enforced downstream by
    # placement.verify against each DeviceProgram's exact peak.
    pool_config = replace(
        config,
        gpu=config.gpu.with_memory(
            config.gpu.mem_bytes * P, suffix=f"pool-x{P}"
        ),
    )
    builder = GraphBuilder(
        pool_config,
        label=f"dist-qr-{tree.kind}-x{P} {m}x{n}",
        materialize=False,
    )
    s = builder.stream("s")
    pin: dict[str, int] = {}

    def leaf_rows(matrix: HostMatrix, d: int):
        return matrix.region(d * n, (d + 1) * n, 0, n)

    # local phase: slab load + leaf QR + R staging, one pipeline per leaf
    slab_bufs = []
    for d, (r0, r1) in enumerate(slabs):
        slab = builder.alloc(r1 - r0, n, f"slab{d}")
        r_tile = builder.alloc(n, n, f"R{d}")
        builder.h2d(slab, host_a.region(r0, r1, 0, n), s)
        builder.panel_qr(slab, r_tile, s, tag="tsqr-leaf")
        builder.d2h(leaf_rows(r_stage, d), r_tile, s)
        builder.free(r_tile)
        slab_bufs.append(slab)

    # reduction rounds: merges on the group leaders (factors staged to
    # host once per group), factor pushdown on every participating leaf
    for k, (merges, groups) in enumerate(
        zip(tree.rounds, tree.group_schedule())
    ):
        pulls: list[tuple[int, int]] = []  # (leaf, leader whose factor)
        for dst, src in merges:
            stacked = builder.alloc(2 * n, n, f"pair{dst}-{src}.r{k}")
            r_new = builder.alloc(n, n, f"Rmerge{dst}.r{k}")
            builder.h2d(stacked.view(0, n), leaf_rows(r_stage, dst), s)
            builder.h2d(stacked.view(n, 2 * n), leaf_rows(r_stage, src), s)
            builder.panel_qr(stacked, r_new, s, tag="tsqr-merge")
            builder.d2h(leaf_rows(r_stage, dst), r_new, s)
            builder.d2h(leaf_rows(f_stage, dst), stacked.view(0, n), s)
            builder.d2h(leaf_rows(f_stage, src), stacked.view(n, 2 * n), s)
            builder.free(stacked)
            builder.free(r_new)
            pulls.extend((leaf, dst) for leaf in groups[dst])
            pulls.extend((leaf, src) for leaf in groups[src])
        for leaf, leader in sorted(pulls):
            name = f"T{leaf}.r{k}"
            pin[name] = leaf
            factor = builder.alloc(n, n, name)
            builder.h2d(factor, leaf_rows(f_stage, leader), s)
            builder.gemm(
                slab_bufs[leaf], slab_bufs[leaf].full(), factor.full(), s,
                tag="tsqr-pushdown",
            )
            builder.free(factor)

    # writeback: each leaf's slab now holds its rows of the final Q
    for d, (r0, r1) in enumerate(slabs):
        builder.d2h(host_a.region(r0, r1, 0, n), slab_bufs[d], s)
        builder.free(slab_bufs[d])

    builder.allocator.check_balanced()
    return builder.graph, shards, pin


def _simulate_program(prog: DeviceProgram) -> Trace:
    """Discrete-event simulation of one device's slice; its edges to
    other devices' tasks are dropped."""
    return simulate_tasks(
        GpuSimulator(prog.config), prog.tasks, f"dev{prog.device}"
    )


def _simulate_global(placement: Placement) -> float:
    """Global list-schedule makespan: tasks run in emission order (a
    valid topological order), each waiting for every dependency —
    cross-device ones included — and serializing FIFO on its
    ``(device, engine)`` resource, mirroring the stream semantics of the
    single-device simulator. Allocator pseudo-tasks take zero time, and
    the emission-order allocator chain only binds *within* a device:
    each pool member replays its own allocator's sequence, so one
    device's frees must not gate another's allocations."""
    free: dict[tuple[int, str], float] = {}
    done: dict[int, float] = {}
    device_of = placement.device_of
    makespan = 0.0
    for task in placement.graph.tasks:
        dev = device_of[task.task_id]
        ready = max(
            (
                done[dep.task_id]
                for dep in task.deps
                if not (dep.mem and task.mem and device_of[dep.task_id] != dev)
            ),
            default=0.0,
        )
        if task.mem:
            done[task.task_id] = ready
            continue
        res = (dev, task.op.engine.value)
        start = max(ready, free.get(res, 0.0))
        end = start + task.cost
        free[res] = end
        done[task.task_id] = end
        makespan = max(makespan, end)
    return makespan


def _play_plan(injector) -> tuple[FaultReport, tuple[int, ...], int]:
    """The sim's static fault model: fire every spec in the plan at its
    declared coordinates. Device losses become structural (the topology
    loses members and the placement is recovered); transient kinds are
    modeled as absorbed by one backoff retry each — they perturb timing
    in the real backend, never the schedule, so the sim records the
    event and the retry and moves on."""
    lost: list[int] = []
    retries = 0
    for spec in injector.plan.specs:
        for _ in range(spec.count):
            try:
                injector.check(
                    spec.sites[0],
                    device=spec.device,
                    round_index=spec.round_index,
                    op_index=spec.op_index,
                )
            except DeviceLostError as exc:
                if exc.device not in lost:
                    lost.append(exc.device)
            except InjectedFaultError:
                retries += 1
    report = FaultReport(
        plan_seed=injector.plan.seed,
        events=injector.events,
        retries=retries,
        devices_lost=tuple(lost),
    )
    return report, tuple(lost), retries


def simulate_dist_qr(
    config: SystemConfig,
    *,
    m: int,
    n: int,
    n_devices: int,
    tree: str = "binomial",
    shared_host_link: bool = False,
    budget_bytes: int | None = None,
    faults=None,
) -> DistSimResult:
    """Build, place, verify, and time one distributed QR.

    With a ``faults`` plan, injected device losses are applied
    structurally: the surviving topology is re-placed with the binomial
    regraft map (:func:`~repro.dist.recovery.recover_placement`), every
    re-placed program is re-verified, and the reported makespan is the
    recovered schedule's. Transient fault kinds are recorded on the
    :class:`~repro.faults.report.FaultReport` (one retry each) but do
    not change the schedule — that is the numeric backend's territory.
    """
    n_devices = positive_int(n_devices, "n_devices")
    topology = DeviceTopology.symmetric(
        config, n_devices, shared_host_link=shared_host_link
    )
    tree_obj = build_tree(tree, n_devices)
    graph, shards, pin = build_dist_qr_graph(
        topology.device_config(0), m=m, n=n, tree=tree_obj
    )
    injector = as_injector(faults)
    fault_report = None
    recovery = None
    if injector is not None:
        fault_report, lost, _ = _play_plan(injector)
        if lost:
            recovery = recover_placement(
                graph, shards, topology, lost,
                pin=pin, budget_bytes=budget_bytes,
            ).check()
            topology = recovery.topology
            fault_report = FaultReport(
                plan_seed=fault_report.plan_seed,
                events=fault_report.events,
                retries=fault_report.retries,
                recoveries=1,
                devices_lost=recovery.lost,
                replacements_verified=sum(
                    1 for r in recovery.reports if r.ok
                ),
                details={"remap": dict(recovery.remap)},
            )
    if recovery is not None:
        placement = recovery.placement
        reports = recovery.reports
    else:
        placement = partition_graph(graph, shards, topology, pin=pin)
        reports = placement.verify(budget_bytes=budget_bytes)
    traces = [_simulate_program(prog) for prog in placement.programs]
    flow, _ = check_precision(graph)
    return DistSimResult(
        m=m,
        n=n,
        n_devices=n_devices,
        tree=tree_obj,
        topology=topology,
        graph=graph,
        placement=placement,
        reports=reports,
        traces=traces,
        makespan=_simulate_global(placement),
        local_makespans=tuple(t.makespan for t in traces),
        comm=tree_obj.comm_report(n),
        faults=fault_report,
        recovery=recovery,
        precision_bound=flow.bound,
        precision_plan=flow.plan.describe(),
    )


def dist_precision_report(
    config: SystemConfig,
    *,
    m: int,
    n: int,
    n_devices: int,
    tree: str = "binomial",
    tolerance: float | None = None,
    precision=None,
) -> AnalysisReport:
    """Statically verify one distributed-QR plan's precision, without
    placing or timing it.

    Builds the global graph for the requested reduction tree and runs the
    full verifier (:func:`repro.analysis.verify.verify_program`) over it,
    so the report carries the precision bound/findings next to the usual
    hazard/lifetime passes. Lives here, not in :mod:`repro.analysis` —
    the analysis package must stay importable without the dist layer
    (this module already imports it the other way).
    """
    tree_obj = build_tree(tree, positive_int(n_devices, "n_devices"))
    graph, _shards, _pin = build_dist_qr_graph(config, m=m, n=n, tree=tree_obj)
    return verify_program(graph, tolerance=tolerance, precision=precision)


def dist_scaling_sweep(
    config: SystemConfig,
    *,
    m: int,
    n: int,
    device_counts: tuple[int, ...] = (1, 8, 16, 32, 64),
    tree: str = "binomial",
    shared_host_link: bool = False,
    faults=None,
) -> dict[int, DistSimResult]:
    """The same tall-skinny QR at each pool size; returns {P: result}.

    A :class:`~repro.faults.plan.FaultPlan` in *faults* is replayed
    against every sweep point independently (each point gets a fresh
    injector, so the schedule fires identically at each pool size it
    matches)."""
    return {
        p: simulate_dist_qr(
            config, m=m, n=n, n_devices=p, tree=tree,
            shared_host_link=shared_host_link, faults=faults,
        )
        for p in device_counts
    }


def dist_trace_spans(result: DistSimResult) -> list[Span]:
    """Per-device span lanes (``dev0``, ``dev1``, ...) from the isolated
    device timelines, plus one instant per reduction round on a ``tree``
    lane — ready for :func:`repro.obs.export.spans_to_chrome_trace`.
    Timestamps are model seconds."""
    spans: list[Span] = []
    sid = 0
    for d, trace in enumerate(result.traces):
        for span in trace.spans():
            sid += 1
            spans.append(
                replace(
                    span, span_id=sid, lane=f"dev{d}",
                    attrs={"device": d, "engine": span.lane},
                )
            )
    t = max(result.local_makespans, default=0.0)
    for k, merges in enumerate(result.tree.rounds):
        sid += 1
        spans.append(
            Span(
                span_id=sid,
                parent_id=None,
                name=f"tree round {k} ({len(merges)} merges)",
                cat="tree",
                lane="tree",
                start_s=t,
                end_s=t,
                attrs={"round": k, "merges": len(merges)},
            )
        )
    if result.faults is not None:
        for ev in result.faults.events:
            sid += 1
            spans.append(
                Span(
                    span_id=sid,
                    parent_id=None,
                    name=ev.describe(),
                    cat="fault",
                    lane="faults",
                    start_s=t,
                    end_s=t,
                    attrs={
                        "kind": ev.kind,
                        "site": ev.site,
                        "device": ev.device,
                        "plan_seed": result.faults.plan_seed,
                    },
                )
            )
    return spans


__all__ = [
    "DistSimResult",
    "build_dist_qr_graph",
    "dist_scaling_sweep",
    "dist_trace_spans",
    "simulate_dist_qr",
]
