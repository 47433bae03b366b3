"""Out-of-core unpivoted LU factorization — the paper's §6 extension, built.

Workflows (host matrix overwritten with the packed L\\U factors, LAPACK
``getrf`` layout: U on/above the diagonal, unit-lower L multipliers below):

* **blocking** — per width-b panel: in-core panel LU (``panel_lu``), then
  ``U12 = L11^{-1} A12`` with the b-by-b triangle resident and A12
  streamed in column blocks (the TRSM analogue of Fig 4), then the
  trailing update ``A22 -= L21 U12`` with both operands resident (Fig 6).
* **recursive** — halve the column range; after the left half, U12 solves
  against the *whole left triangle* via the out-of-core TRSM engine
  (X resident, triangle strips streamed), stays device-resident when it
  fits, and feeds one large row-streamed trailing update (Fig 5) — the
  same R12-reuse discipline as the recursive QR driver. The trailing GEMMs
  double in size up the recursion, which is precisely why §6 expects
  recursion to "definitely help this kind of GEMMs".

No pivoting (the paper: "there is no in-core TensorCore based partial
pivoted LU"); inputs must be stable without pivoting — see
:func:`repro.factor.incore.diagonally_dominant`.
"""

from __future__ import annotations

from repro.ckpt.session import NULL_CHECKPOINT
from repro.errors import PlanError
from repro.execution.base import Executor
from repro.factor.common import FactorRunInfo, check_lu_inputs
from repro.host.tiled import HostMatrix
from repro.ooc.gradual import uniform_schedule
from repro.ooc.outer import run_rowstream_outer, run_tile_outer
from repro.ooc.plan import (
    plan_panel_inner,
    plan_rowstream_outer,
    plan_tile_outer,
)
from repro.ooc.scope import DeviceScope
from repro.ooc.streams import StreamBundle
from repro.ooc.trsm import plan_ooc_trsm, run_ooc_trsm, run_panel_trsm
from repro.qr.options import QrOptions
from repro.util.units import gemm_flops


def ooc_blocking_lu(
    ex: Executor,
    a: HostMatrix,
    options: QrOptions = QrOptions(),
    checkpoint=None,
) -> FactorRunInfo:
    """Blocking OOC unpivoted LU of host matrix *a*, packed in place."""
    m, n = check_lu_inputs(a, options)
    b = min(options.blocksize, n)
    info = FactorRunInfo(method="blocking")
    ck = checkpoint if checkpoint is not None else NULL_CHECKPOINT
    if ck.start() > 0:
        info.notes.append(f"resumed at panel step {ck.resume_step}")
    s = StreamBundle.create(ex, "lu-blk")
    ebytes = ex.config.element_bytes

    with DeviceScope(ex) as scope, ck:
        panel_buf = scope.alloc(m, b, "lu-panel")
        u_tile = scope.alloc(b, b, "lu-utile")
        _blocking_lu_body(ex, a, options, m, n, b, info, s, scope,
                          panel_buf, u_tile, ck)
    ex.synchronize()
    return info


def _blocking_lu_body(ex, a, options, m, n, b, info, s, scope,
                      panel_buf, u_tile, ck):
    ebytes = ex.config.element_bytes
    panel_free: object | None = None
    u_free: object | None = None

    for p, (col0, width) in enumerate(uniform_schedule(n, b)):
        col1 = col0 + width
        height = m - col0
        trailing = n - col1
        if ck.should_skip(p):
            continue
        panel_view = panel_buf.view(0, height, 0, width)
        u_view = u_tile.view(0, width, 0, width)

        # 1. panel move-in + in-core LU + writeback (packed)
        if panel_free is not None:
            ex.wait_event(s.h2d, panel_free)
        ex.h2d(panel_view, a.region(col0, m, col0, col1), s.h2d)
        loaded = ex.record_event(s.h2d)
        ex.wait_event(s.compute, loaded)
        if u_free is not None:
            ex.wait_event(s.compute, u_free)
        ex.panel_lu(panel_view, u_view, s.compute, tag="panel")
        factored = ex.record_event(s.compute)
        ex.wait_event(s.d2h, factored)
        ex.d2h(a.region(col0, m, col0, col1), panel_view, s.d2h)
        written = u_free = ex.record_event(s.d2h)
        info.n_panels += 1

        if not options.qr_level_overlap:
            ex.synchronize()

        if trailing == 0:
            panel_free = written
            ck.step_complete(p, frontier=col1)
            break

        # 2. U12 = L11^{-1} A12: triangle resident (top of the panel),
        #    A12 streamed in column blocks
        tri_view = panel_buf.view(0, width, 0, width)
        trsm_plan = plan_panel_inner(
            K=width,
            M=width,
            N=trailing,
            blocksize=b,
            budget_elements=ex.allocator.free_bytes // ebytes,
            n_buffers=options.n_buffers,
            prefer_keep_c=options.reuse_inner_result,
        )
        trsm_res = run_panel_trsm(
            ex,
            tri_view,
            a.region(col0, col1, col1, n),
            a.region(col0, col1, col1, n),
            trsm_plan,
            streams=s,
            unit_diag=True,
            pipelined=options.pipelined,
            after=written,
            tag="trsm",
        )
        info.n_trsm += 1
        info.trsm_flops += width * width * trailing

        if not options.qr_level_overlap:
            ex.synchronize()

        # 3. trailing update A22 -= L21 U12
        l21_view = panel_buf.view(width, height, 0, width)
        u12_dev = scope.adopt(trsm_res.c_device)
        if u12_dev is not None:
            tile_plan = plan_tile_outer(
                M=m - col1,
                K=width,
                N=trailing,
                blocksize=options.tile_chunk(ex.config, m - col1, trailing),
                budget_elements=ex.allocator.free_bytes // ebytes,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
            )
            run_tile_outer(
                ex,
                a.region(col1, m, col1, n),
                l21_view,
                u12_dev.view(0, width, 0, trailing),
                tile_plan,
                streams=s,
                pipelined=options.pipelined,
                tag="outer",
            )
            scope.free(u12_dev)
        else:
            ex.synchronize()
            info.notes.append(f"panel {p}: U12 ({width}x{trailing}) spilled")
            outer_plan = plan_rowstream_outer(
                M=m - col1,
                K=width,
                N=trailing,
                blocksize=options.outer_chunk(ex.config, m - col1, width + trailing),
                budget_elements=ex.allocator.free_bytes // ebytes,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
                b_resident=False,
            )
            run_rowstream_outer(
                ex,
                a.region(col1, m, col1, n),
                a.region(col1, m, col0, col1),
                a.region(col0, col1, col1, n),
                outer_plan,
                streams=s,
                pipelined=options.pipelined,
                tag="outer",
            )
        info.n_outer += 1
        info.outer_flops += gemm_flops(m - col1, trailing, width)
        panel_free = ex.record_event(s.compute)

        if not options.qr_level_overlap:
            ex.synchronize()

        ck.step_complete(p, frontier=col1)


def ooc_recursive_lu(
    ex: Executor,
    a: HostMatrix,
    options: QrOptions = QrOptions(),
    checkpoint=None,
) -> FactorRunInfo:
    """Recursive OOC unpivoted LU of host matrix *a*, packed in place."""
    m, n = check_lu_inputs(a, options)
    b = min(options.blocksize, n)
    info = FactorRunInfo(method="recursive")
    ck = checkpoint if checkpoint is not None else NULL_CHECKPOINT
    if ck.start() > 0:
        info.notes.append(f"resumed at recursion event {ck.resume_step}")
    s = StreamBundle.create(ex, "lu-rec")
    ebytes = ex.config.element_bytes

    scope = DeviceScope(ex)
    with scope, ck:
        panel_buf = scope.alloc(m, b, "lu-panel")
        u_tile = scope.alloc(b, b, "lu-utile")
        _recursive_lu_body(ex, a, options, m, n, b, info, s, scope,
                           panel_buf, u_tile, ck)
    ex.synchronize()
    return info


def _recursive_lu_body(ex, a, options, m, n, b, info, s, scope,
                       panel_buf, u_tile, ck):
    ebytes = ex.config.element_bytes
    state = {"panel_free": None, "u_free": None, "step": 0}

    def next_step() -> int:
        step = state["step"]
        state["step"] = step + 1
        return step

    def leaf(col0: int, width: int) -> None:
        col1 = col0 + width
        step = next_step()
        if ck.should_skip(step):
            return
        height = m - col0
        panel_view = panel_buf.view(0, height, 0, width)
        u_view = u_tile.view(0, width, 0, width)
        if state["panel_free"] is not None:
            ex.wait_event(s.h2d, state["panel_free"])
        ex.h2d(panel_view, a.region(col0, m, col0, col1), s.h2d)
        loaded = ex.record_event(s.h2d)
        ex.wait_event(s.compute, loaded)
        if state["u_free"] is not None:
            ex.wait_event(s.compute, state["u_free"])
        ex.panel_lu(panel_view, u_view, s.compute, tag="panel")
        factored = ex.record_event(s.compute)
        ex.wait_event(s.d2h, factored)
        ex.d2h(a.region(col0, m, col0, col1), panel_view, s.d2h)
        state["panel_free"] = state["u_free"] = ex.record_event(s.d2h)
        info.n_panels += 1
        if not options.qr_level_overlap:
            ex.synchronize()
        ck.step_complete(step, frontier=col1)

    def recurse(col0: int, width: int) -> None:
        if width <= b:
            leaf(col0, width)
            return
        wl = width // 2
        wr = width - wl
        mid = col0 + wl
        col1 = col0 + width

        recurse(col0, wl)
        step = next_step()
        if ck.should_skip(step):
            recurse(mid, wr)
            return

        budget = ex.allocator.free_bytes // ebytes
        host_ready = ex.record_event(s.d2h)

        # U12 = L11^{-1} A12 via the OOC TRSM engine; keep X resident for
        # the trailing update when it fits alongside the outer pipeline
        trsm_plan = plan_ooc_trsm(
            K=wl,
            N=wr,
            blocksize=b,
            budget_elements=budget,
            n_buffers=options.n_buffers,
        )
        keep = options.reuse_inner_result and trsm_plan.n_panels == 1
        if keep:
            try:
                probe = plan_rowstream_outer(
                    M=m - mid,
                    K=wl,
                    N=wr,
                    blocksize=options.outer_chunk(ex.config, m - mid, wl + wr),
                    budget_elements=budget - wl * wr,
                    n_buffers=options.n_buffers,
                    staging=options.staging_buffer,
                    b_resident=True,
                )
                keep = probe.b_resident
            except PlanError:
                keep = False
        u12_dev = scope.adopt(run_ooc_trsm(
            ex,
            a.region(col0, mid, col0, mid),
            a.region(col0, mid, mid, col1),
            a.region(col0, mid, mid, col1),
            trsm_plan,
            streams=s,
            unit_diag=True,
            keep_on_device=keep,
            pipelined=options.pipelined,
            after=host_ready,
            tag="trsm",
        ))
        info.n_trsm += 1
        info.trsm_flops += wl * wl * wr

        if not options.qr_level_overlap:
            ex.synchronize()

        host_ready2 = ex.record_event(s.d2h)
        if u12_dev is not None:
            oplan = plan_rowstream_outer(
                M=m - mid,
                K=wl,
                N=wr,
                blocksize=options.outer_chunk(ex.config, m - mid, wl + wr),
                budget_elements=ex.allocator.free_bytes // ebytes,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
                b_resident=True,
            )
            run_rowstream_outer(
                ex,
                a.region(mid, m, mid, col1),
                a.region(mid, m, col0, mid),
                u12_dev.view(0, wl, 0, wr),
                oplan,
                streams=s,
                pipelined=options.pipelined,
                after=host_ready2,
                tag="outer",
            )
            scope.free(u12_dev)
        else:
            ex.synchronize()
            info.notes.append(f"level ({col0},{width}): U12 spilled to host")
            oplan = plan_rowstream_outer(
                M=m - mid,
                K=wl,
                N=wr,
                blocksize=options.outer_chunk(ex.config, m - mid, wl + wr),
                budget_elements=ex.allocator.free_bytes // ebytes,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
                b_resident=False,
            )
            run_rowstream_outer(
                ex,
                a.region(mid, m, mid, col1),
                a.region(mid, m, col0, mid),
                a.region(col0, mid, mid, col1),
                oplan,
                streams=s,
                pipelined=options.pipelined,
                tag="outer",
            )
        info.n_outer += 1
        info.outer_flops += gemm_flops(m - mid, wr, wl)

        if not options.qr_level_overlap:
            ex.synchronize()

        ck.step_complete(step, frontier=mid)

        recurse(mid, wr)

    recurse(0, n)
