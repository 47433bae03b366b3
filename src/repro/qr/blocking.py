"""Out-of-core *blocking* classic Gram-Schmidt QR — the paper's baseline.

§3.1.2's workflow, driven against the executor interface:

    for each width-b panel (left to right):
        1. move the m-by-b panel to the device
        2. factorize it in core (recursive CGS panel QR)
        3. move Q1 (and R11) back to the host
        4. inner product  R12 = Q1ᵀ A_rest  (Fig 4: panel-resident engine)
        5. outer product  A_rest -= Q1 R12  (Fig 6: tile-streaming engine)

The panel Q stays device-resident between steps 2-5 (it is both the
inner product's resident operand and the outer product's A); R12 stays
resident when it fits (§4.2 reuse), otherwise the outer product falls back
to the row-streaming engine reading R12 back from host R.

Why this loses on TensorCore (the paper's argument, which the calibrated
models reproduce): every GEMM's small dimension is pinned to the panel
width b, so the inner products are reduction-shaped (slow in core) and, on
small-memory GPUs where b must shrink, the tile GEMMs lose the arithmetic
intensity needed to hide their own tile traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ckpt.session import NULL_CHECKPOINT
from repro.execution.base import DeviceBuffer, Executor
from repro.health.report import HealthReport
from repro.host.tiled import HostMatrix
from repro.ooc.gradual import uniform_schedule
from repro.ooc.inner import run_panel_inner
from repro.ooc.outer import run_rowstream_outer, run_tile_outer
from repro.ooc.plan import plan_panel_inner, plan_rowstream_outer, plan_tile_outer
from repro.ooc.scope import DeviceScope
from repro.ooc.streams import StreamBundle
from repro.qr.options import QrOptions
from repro.qr.validate import check_qr_inputs
from repro.util.units import gemm_flops


@dataclass
class QrRunInfo:
    """Counters the drivers report alongside executor stats/traces."""

    method: str
    n_panels: int = 0
    n_inner: int = 0
    n_outer: int = 0
    #: per-phase GEMM flops (panel flops live in executor stats)
    inner_flops: int = 0
    outer_flops: int = 0
    notes: list[str] = field(default_factory=list)
    #: Numerical-health report (None when the sentinel is off).
    health: HealthReport | None = None


def ooc_blocking_qr(
    ex: Executor,
    a: HostMatrix,
    r: HostMatrix,
    options: QrOptions = QrOptions(),
    checkpoint=None,
) -> QrRunInfo:
    """Factorize host matrix *a* in place (A ← Q) with blocking OOC CGS QR.

    *r* (n-by-n host matrix, zero-initialized by the caller) receives R.
    *checkpoint* is an optional :class:`~repro.ckpt.CheckpointSession`;
    each panel step is a checkpoint boundary, and a session holding a
    prior checkpoint restores A/R and skips the completed panels.
    """
    m, n = check_qr_inputs(a, r, options)
    b = min(options.blocksize, n)
    info = QrRunInfo(method="blocking")
    ck = checkpoint if checkpoint is not None else NULL_CHECKPOINT
    if ck.start() > 0:
        info.notes.append(f"resumed at panel step {ck.resume_step}")
    s = StreamBundle.create(ex, "qr-blk")
    ebytes = ex.config.element_bytes

    with DeviceScope(ex) as scope, ck:
        panel_buf = scope.alloc(m, b, "qr-panel")
        r_tile = scope.alloc(b, b, "qr-rtile")
        _blocking_qr_body(ex, a, r, options, m, n, b, info, s, scope,
                          panel_buf, r_tile, ck)
    ex.synchronize()
    if ex.health.enabled:
        info.health = ex.health.finalize()
    return info


def _blocking_qr_body(ex, a, r, options, m, n, b, info, s, scope,
                      panel_buf, r_tile, ck):
    ebytes = ex.config.element_bytes
    panel_free: object | None = None  # last consumer of the panel buffer
    r_free: object | None = None      # last writeback of the R11 tile

    for p, (col0, width) in enumerate(uniform_schedule(n, b)):
        col1 = col0 + width
        trailing = n - col1
        if ck.should_skip(p):
            continue
        panel_view = panel_buf.view(0, m, 0, width)
        r_view = r_tile.view(0, width, 0, width)

        # 1. panel move-in (waits only for the buffer's previous consumers)
        if panel_free is not None:
            ex.wait_event(s.h2d, panel_free)
        ex.h2d(panel_view, a.region(0, m, col0, col1), s.h2d)
        loaded = ex.record_event(s.h2d)
        ex.wait_event(s.compute, loaded)
        if r_free is not None:
            # the previous R11 tile must have left before we overwrite it
            ex.wait_event(s.compute, r_free)

        # 2. in-core panel factorization (the sentinel attributes panel
        # probes to this column range, in issue order)
        ex.health.note_panel(p, col0, col1)
        ex.panel_qr(panel_view, r_view, s.compute, tag="panel")
        factored = ex.record_event(s.compute)

        # 3. write Q1 and R11 back (overlaps the next phase's move-ins)
        ex.wait_event(s.d2h, factored)
        ex.d2h(a.region(0, m, col0, col1), panel_view, s.d2h)
        ex.d2h(r.region(col0, col1, col0, col1), r_view, s.d2h)
        q_written = r_free = ex.record_event(s.d2h)
        info.n_panels += 1

        if not options.qr_level_overlap:
            ex.synchronize()

        if trailing == 0:
            panel_free = q_written
            if ex.health.enabled:
                ex.synchronize()
                ex.health.probe_host_panel(a, r, p, col0, col1)
            ck.step_complete(p, frontier=col1)
            break

        # 4. inner product R12 = Q1ᵀ A_rest (Fig 4)
        inner_plan = plan_panel_inner(
            K=m,
            M=width,
            N=trailing,
            blocksize=b,
            budget_elements=ex.allocator.free_bytes // ebytes,
            n_buffers=options.n_buffers,
            prefer_keep_c=options.reuse_inner_result,
        )
        inner_res = run_panel_inner(
            ex,
            panel_view,
            a.region(0, m, col1, n),
            r.region(col0, col1, col1, n),
            inner_plan,
            streams=s,
            pipelined=options.pipelined,
            after=q_written,
            tag="inner",
        )
        info.n_inner += 1
        info.inner_flops += gemm_flops(width, trailing, m)

        if not options.qr_level_overlap:
            ex.synchronize()

        # 5. outer product A_rest -= Q1 R12 (Fig 6, or spill fallback)
        r12_dev: DeviceBuffer | None = scope.adopt(inner_res.c_device)
        if r12_dev is not None:
            tile_plan = plan_tile_outer(
                M=m,
                K=width,
                N=trailing,
                blocksize=options.tile_chunk(ex.config, m, trailing),
                budget_elements=ex.allocator.free_bytes // ebytes,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
            )
            run_tile_outer(
                ex,
                a.region(0, m, col1, n),
                panel_view,
                r12_dev.view(0, width, 0, trailing),
                tile_plan,
                streams=s,
                pipelined=options.pipelined,
                tag="outer",
            )
            scope.free(r12_dev)
        else:
            # R12 could not stay resident: stream it back from host R. The
            # spill forces a sync so the streamed reads happen after the
            # d2h that produced them (numeric order is already safe; this
            # keeps the simulated timeline honest).
            ex.synchronize()
            info.notes.append(
                f"panel {p}: R12 ({width}x{trailing}) spilled to host"
            )
            outer_plan = plan_rowstream_outer(
                M=m,
                K=width,
                N=trailing,
                blocksize=options.outer_chunk(ex.config, m, width + trailing),
                budget_elements=ex.allocator.free_bytes // ebytes,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
                b_resident=False,
            )
            run_rowstream_outer(
                ex,
                a.region(0, m, col1, n),
                a.region(0, m, col0, col1),
                r.region(col0, col1, col1, n),
                outer_plan,
                streams=s,
                pipelined=options.pipelined,
                tag="outer",
            )
        info.n_outer += 1
        info.outer_flops += gemm_flops(m, trailing, width)
        panel_free = ex.record_event(s.compute)

        if not options.qr_level_overlap:
            ex.synchronize()

        # Cross-panel orthogonality probe (see HealthSentinel.probe_host_
        # panel). Needs a quiesced pipeline so host A/R reflect this panel;
        # monitoring therefore serializes panel boundaries. A reorthogonal-
        # ized panel only rewrites host state — the trailing update above
        # already ran, and the probe's exact R bookkeeping keeps A = QR.
        if ex.health.enabled:
            ex.synchronize()
            ex.health.probe_host_panel(a, r, p, col0, col1)

        ck.step_complete(p, frontier=col1)
