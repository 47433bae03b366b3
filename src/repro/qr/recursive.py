"""Out-of-core *recursive* classic Gram-Schmidt QR — the paper's contribution.

§3.1.3 / equation (2), driven against the executor interface:

    factor(cols):
        if width(cols) <= b:          # leaf = one OOC panel
            move panel in, in-core recursive CGS QR, move Q and R11 out
        else:
            factor(left half)
            R12 = Q1ᵀ A2               # Fig 3: k-split inner product
            A2 ← A2 − Q1 R12           # Fig 5: row-streaming outer product
            factor(right half)

Because the split halves the *column* range, the update GEMMs double in
every dimension up the recursion: most flops run in huge, square-ish GEMMs
that execute near TensorCore peak AND carry enough arithmetic intensity to
hide their own PCIe traffic — while the total data movement drops from the
blocking algorithm's Θ(k·mn) to Θ(log k·mn) (§3.2).

QR-level optimizations (§4.2), all toggleable via
:class:`~repro.qr.options.QrOptions`:

* R12 stays device-resident between inner and outer product
  (``reuse_inner_result``) — no host round trip;
* when the left child is a leaf, its panel Q is still on the device, so
  the inner product switches to the panel-resident engine and skips
  re-reading Q1 entirely ("it can directly use the panel factorization
  results and only read B");
* no device barriers between phases (``qr_level_overlap``): panel
  writebacks, R12 move-outs and next-phase move-ins overlap through the
  shared stream bundle's event graph.
"""

from __future__ import annotations

from repro.ckpt.session import NULL_CHECKPOINT
from repro.errors import PlanError
from repro.execution.base import DeviceView, Executor
from repro.host.tiled import HostMatrix
from repro.ooc.inner import run_ksplit_inner, run_panel_inner
from repro.ooc.outer import run_rowstream_outer, run_tile_outer
from repro.ooc.plan import (
    plan_ksplit_inner,
    plan_panel_inner,
    plan_rowstream_outer,
    plan_tile_outer,
    streamed_chunk,
)
from repro.ooc.scope import DeviceScope
from repro.ooc.streams import StreamBundle
from repro.qr.blocking import QrRunInfo
from repro.qr.options import QrOptions
from repro.qr.validate import check_qr_inputs
from repro.util.units import gemm_flops


def ooc_recursive_qr(
    ex: Executor,
    a: HostMatrix,
    r: HostMatrix,
    options: QrOptions = QrOptions(),
    checkpoint=None,
) -> QrRunInfo:
    """Factorize host matrix *a* in place (A ← Q) with recursive OOC CGS QR.

    *r* (n-by-n host matrix, zero-initialized by the caller) receives R.
    *checkpoint* is an optional :class:`~repro.ckpt.CheckpointSession`;
    the recursion's events (leaf factorizations and internal-node
    updates) are the checkpoint boundaries, numbered in execution order.
    """
    m, n = check_qr_inputs(a, r, options)
    b = min(options.blocksize, n)
    info = QrRunInfo(method="recursive")
    ck = checkpoint if checkpoint is not None else NULL_CHECKPOINT
    if ck.start() > 0:
        info.notes.append(f"resumed at recursion event {ck.resume_step}")
    s = StreamBundle.create(ex, "qr-rec")
    ebytes = ex.config.element_bytes

    scope = DeviceScope(ex)
    with scope, ck:
        panel_buf = scope.alloc(m, b, "qr-panel")
        r_tile = scope.alloc(b, b, "qr-rtile")
        _recursive_qr_body(ex, a, r, options, m, n, b, info, s, scope,
                           panel_buf, r_tile, ck)
    ex.synchronize()
    if ex.health.enabled:
        info.health = ex.health.finalize()
    return info


def _recursive_qr_body(ex, a, r, options, m, n, b, info, s, scope,
                       panel_buf, r_tile, ck):
    ebytes = ex.config.element_bytes
    # panel_holds: which host columns the panel buffer currently mirrors.
    # On resume it starts empty, so the §4.2 panel-resident inner product
    # reloads Q1 before trusting the buffer (same bits as the leaf wrote).
    state = {"panel_free": None, "r_free": None, "panel_holds": None,
             "step": 0}

    def next_step() -> int:
        step = state["step"]
        state["step"] = step + 1
        return step

    def leaf(col0: int, width: int) -> tuple[DeviceView, object]:
        """OOC panel factorization of columns [col0, col0+width).

        Returns the device view still holding Q and the writeback event.
        """
        col1 = col0 + width
        step = next_step()
        if ck.should_skip(step):
            state["panel_holds"] = None
            return panel_buf.view(0, m, 0, width), None
        panel_view = panel_buf.view(0, m, 0, width)
        r_view = r_tile.view(0, width, 0, width)
        if state["panel_free"] is not None:
            ex.wait_event(s.h2d, state["panel_free"])
        ex.h2d(panel_view, a.region(0, m, col0, col1), s.h2d)
        loaded = ex.record_event(s.h2d)
        ex.wait_event(s.compute, loaded)
        if state["r_free"] is not None:
            ex.wait_event(s.compute, state["r_free"])
        # the sentinel attributes panel probes to this leaf's column range
        ex.health.note_panel(info.n_panels, col0, col1)
        ex.panel_qr(panel_view, r_view, s.compute, tag="panel")
        factored = ex.record_event(s.compute)
        ex.wait_event(s.d2h, factored)
        ex.d2h(a.region(0, m, col0, col1), panel_view, s.d2h)
        ex.d2h(r.region(col0, col1, col0, col1), r_view, s.d2h)
        written = ex.record_event(s.d2h)
        state["panel_free"] = state["r_free"] = written
        state["panel_holds"] = (col0, width)
        info.n_panels += 1
        if not options.qr_level_overlap:
            ex.synchronize()
        # Cross-panel orthogonality probe (quiesces the pipeline). When it
        # reorthogonalizes the panel on the host, the device copy is stale:
        # drop panel_holds so the §4.2 panel-resident path reloads Q1.
        if ex.health.enabled:
            ex.synchronize()
            if ex.health.probe_host_panel(
                a, r, info.n_panels - 1, col0, col1
            ):
                state["panel_holds"] = None
        ck.step_complete(step, frontier=col1)
        return panel_view, written

    def recurse(col0: int, width: int) -> None:
        if width <= b:
            leaf(col0, width)
            return
        wl = width // 2
        wr = width - wl
        mid = col0 + wl

        recurse(col0, wl)
        left_is_leaf = wl <= b
        step = next_step()
        if ck.should_skip(step):
            recurse(mid, wr)
            return

        budget = ex.allocator.free_bytes // ebytes
        # every prior writeback (Q columns, R blocks) is covered by one
        # event on the FIFO d2h stream
        host_ready = ex.record_event(s.d2h)
        r12_region = r.region(col0, mid, mid, col0 + width)
        a2_region = a.region(0, m, mid, col0 + width)
        q1_region = a.region(0, m, col0, mid)

        r12_dev = None
        panel_resident_outer = False
        if left_is_leaf and options.reuse_inner_result:
            # §4.2 small-GEMM path: Q1 is the panel still on the device
            panel_view = panel_buf.view(0, m, 0, wl)
            if state["panel_holds"] != (col0, wl):
                # resumed past the left leaf: reload Q1 into the panel
                # buffer so this update takes the same engine path (and
                # the same summation order) as an uninterrupted run
                if state["panel_free"] is not None:
                    ex.wait_event(s.h2d, state["panel_free"])
                ex.h2d(panel_view, q1_region, s.h2d)
                reloaded = ex.record_event(s.h2d)
                ex.wait_event(s.compute, reloaded)
                state["panel_holds"] = (col0, wl)
            iplan = plan_panel_inner(
                K=m,
                M=wl,
                N=wr,
                blocksize=b,
                budget_elements=budget,
                n_buffers=options.n_buffers,
                prefer_keep_c=True,
            )
            res = run_panel_inner(
                ex,
                panel_view,
                a2_region,
                r12_region,
                iplan,
                streams=s,
                pipelined=options.pipelined,
                after=host_ready,
                tag="inner",
            )
            r12_dev = scope.adopt(res.c_device)
            panel_resident_outer = r12_dev is not None
        else:
            iplan = plan_ksplit_inner(
                K=m,
                M=wl,
                N=wr,
                blocksize=streamed_chunk(b, m, wl + wr, ex.config),
                budget_elements=budget,
                n_buffers=options.n_buffers,
                gradual=options.gradual_blocksize,
            )
            keep = options.reuse_inner_result and iplan.n_panels == 1
            if keep:
                # the resident R12 must leave room for the outer pipeline
                try:
                    oplan_probe = plan_rowstream_outer(
                        M=m,
                        K=wl,
                        N=wr,
                        blocksize=options.outer_chunk(ex.config, m, wl + wr),
                        budget_elements=budget - wl * wr,
                        n_buffers=options.n_buffers,
                        staging=options.staging_buffer,
                        b_resident=True,
                    )
                    keep = oplan_probe.b_resident
                except PlanError:
                    keep = False
            res = run_ksplit_inner(
                ex,
                q1_region,
                a2_region,
                r12_region,
                iplan,
                streams=s,
                keep_on_device=keep,
                pipelined=options.pipelined,
                after=host_ready,
                tag="inner",
            )
            r12_dev = scope.adopt(res.c_device)
        info.n_inner += 1
        info.inner_flops += gemm_flops(wl, wr, m)

        if not options.qr_level_overlap:
            ex.synchronize()

        outer_budget = ex.allocator.free_bytes // ebytes
        host_ready2 = ex.record_event(s.d2h)
        if panel_resident_outer:
            # both Q1 (panel) and R12 are resident: tile-streaming update
            tplan = plan_tile_outer(
                M=m,
                K=wl,
                N=wr,
                blocksize=options.tile_chunk(ex.config, m, wr),
                budget_elements=outer_budget,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
            )
            run_tile_outer(
                ex,
                a2_region,
                panel_buf.view(0, m, 0, wl),
                r12_dev.view(0, wl, 0, wr),
                tplan,
                streams=s,
                pipelined=options.pipelined,
                after=host_ready2,
                tag="outer",
            )
            scope.free(r12_dev)
            # the panel buffer is consumed by the outer GEMMs (compute FIFO)
            state["panel_free"] = ex.record_event(s.compute)
        elif r12_dev is not None:
            oplan = plan_rowstream_outer(
                M=m,
                K=wl,
                N=wr,
                blocksize=options.outer_chunk(ex.config, m, wl + wr),
                budget_elements=outer_budget,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
                b_resident=True,
            )
            run_rowstream_outer(
                ex,
                a2_region,
                q1_region,
                r12_dev.view(0, wl, 0, wr),
                oplan,
                streams=s,
                pipelined=options.pipelined,
                after=host_ready2,
                tag="outer",
            )
            scope.free(r12_dev)
        else:
            # R12 spilled to host R; make sure it landed before streaming
            ex.synchronize()
            info.notes.append(f"level ({col0},{width}): R12 spilled to host")
            oplan = plan_rowstream_outer(
                M=m,
                K=wl,
                N=wr,
                blocksize=options.outer_chunk(ex.config, m, wl + wr),
                budget_elements=ex.allocator.free_bytes // ebytes,
                n_buffers=options.n_buffers,
                staging=options.staging_buffer,
                b_resident=False,
            )
            run_rowstream_outer(
                ex,
                a2_region,
                q1_region,
                r12_region,
                oplan,
                streams=s,
                pipelined=options.pipelined,
                tag="outer",
            )
        info.n_outer += 1
        info.outer_flops += gemm_flops(m, wr, wl)

        if not options.qr_level_overlap:
            ex.synchronize()

        ck.step_complete(step, frontier=mid)

        recurse(mid, wr)

    recurse(0, n)
