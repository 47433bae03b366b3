"""Out-of-core Cholesky factorization — the paper's §6 extension, built.

The paper closes by observing that OOC LU and Cholesky share QR's
structure ("interleaving panel factorization and trailing matrix update
... the trailing matrix update is also of outer product form, and the
recursive algorithm can definitely help this kind of GEMMs") but leaves
them as future work. This module builds both variants on the same engines:

* **blocking** — fixed-width diagonal panels; each panel (full height
  below the diagonal) is factorized in core (``panel_cholesky``), then the
  trailing square is updated with SYRK-form tile streaming, the resident
  operands being the panel itself used as both A and Bᵀ (Fig-6 pattern).
* **recursive** — halve the column range; the left half's L21 drives one
  *large* row-streamed SYRK update of the right half's columns (Fig-5
  pattern with ``b_transposed``), then recurse right. Update GEMMs double
  in size up the recursion exactly as in QR.

Storage: the host matrix must hold the full symmetric A; on return its
lower triangle is L (take ``numpy.tril``). Trailing updates write the full
rectangle (symmetric values land above the diagonal), which costs 2x the
minimal SYRK flops — the standard simplicity/optimality trade, recorded in
``FactorRunInfo.notes``.
"""

from __future__ import annotations

from repro.ckpt.session import NULL_CHECKPOINT
from repro.execution.base import Executor
from repro.factor.common import FactorRunInfo, check_cholesky_inputs
from repro.host.tiled import HostMatrix
from repro.ooc.gradual import uniform_schedule
from repro.ooc.outer import run_rowstream_outer, run_tile_outer
from repro.ooc.plan import plan_rowstream_outer, plan_tile_outer
from repro.ooc.scope import DeviceScope
from repro.ooc.streams import StreamBundle
from repro.qr.options import QrOptions
from repro.util.units import gemm_flops


def ooc_blocking_cholesky(
    ex: Executor,
    a: HostMatrix,
    options: QrOptions = QrOptions(),
    checkpoint=None,
) -> FactorRunInfo:
    """Blocking OOC Cholesky of the symmetric host matrix *a* (in place)."""
    n = check_cholesky_inputs(a, options)
    b = min(options.blocksize, n)
    info = FactorRunInfo(method="blocking")
    info.notes.append("full-rectangle trailing updates (2x SYRK flops)")
    ck = checkpoint if checkpoint is not None else NULL_CHECKPOINT
    if ck.start() > 0:
        info.notes.append(f"resumed at panel step {ck.resume_step}")
    s = StreamBundle.create(ex, "chol-blk")
    ebytes = ex.config.element_bytes

    with DeviceScope(ex) as scope, ck:
        panel_buf = scope.alloc(n, b, "chol-panel")
        _blocking_cholesky_body(ex, a, options, n, b, info, s, panel_buf, ck)
    ex.synchronize()
    return info


def _blocking_cholesky_body(ex, a, options, n, b, info, s, panel_buf, ck):
    ebytes = ex.config.element_bytes
    panel_free: object | None = None

    for p, (col0, width) in enumerate(uniform_schedule(n, b)):
        col1 = col0 + width
        height = n - col0
        if ck.should_skip(p):
            continue
        panel_view = panel_buf.view(0, height, 0, width)

        if panel_free is not None:
            ex.wait_event(s.h2d, panel_free)
        ex.h2d(panel_view, a.region(col0, n, col0, col1), s.h2d)
        loaded = ex.record_event(s.h2d)
        ex.wait_event(s.compute, loaded)
        ex.panel_cholesky(panel_view, s.compute, tag="panel")
        factored = ex.record_event(s.compute)
        ex.wait_event(s.d2h, factored)
        ex.d2h(a.region(col0, n, col0, col1), panel_view, s.d2h)
        written = ex.record_event(s.d2h)
        info.n_panels += 1

        if not options.qr_level_overlap:
            ex.synchronize()

        trailing = n - col1
        if trailing == 0:
            panel_free = written
            ck.step_complete(p, frontier=col1)
            break

        # trailing SYRK: A22 -= L21 L21ᵀ with L21 resident in the panel
        l21_view = panel_buf.view(width, height, 0, width)
        plan = plan_tile_outer(
            M=trailing,
            K=width,
            N=trailing,
            blocksize=options.tile_chunk(ex.config, trailing, trailing),
            budget_elements=ex.allocator.free_bytes // ebytes,
            n_buffers=options.n_buffers,
            staging=options.staging_buffer,
        )
        run_tile_outer(
            ex,
            a.region(col1, n, col1, n),
            l21_view,
            l21_view,           # (N, K) storage, multiplied transposed
            plan,
            streams=s,
            pipelined=options.pipelined,
            # orders this phase's H2D stream (and, by FIFO, the next panel
            # load) after the panel writeback
            after=written,
            b_transposed=True,
            tag="outer",
        )
        info.n_outer += 1
        info.outer_flops += gemm_flops(trailing, trailing, width)
        panel_free = ex.record_event(s.compute)

        if not options.qr_level_overlap:
            ex.synchronize()

        ck.step_complete(p, frontier=col1)


def ooc_recursive_cholesky(
    ex: Executor,
    a: HostMatrix,
    options: QrOptions = QrOptions(),
    checkpoint=None,
) -> FactorRunInfo:
    """Recursive OOC Cholesky of the symmetric host matrix *a* (in place)."""
    n = check_cholesky_inputs(a, options)
    b = min(options.blocksize, n)
    info = FactorRunInfo(method="recursive")
    info.notes.append("full-rectangle trailing updates (2x SYRK flops)")
    ck = checkpoint if checkpoint is not None else NULL_CHECKPOINT
    if ck.start() > 0:
        info.notes.append(f"resumed at recursion event {ck.resume_step}")
    s = StreamBundle.create(ex, "chol-rec")
    ebytes = ex.config.element_bytes

    with DeviceScope(ex) as scope, ck:
        panel_buf = scope.alloc(n, b, "chol-panel")
        _recursive_cholesky_body(ex, a, options, n, b, info, s, panel_buf, ck)
    ex.synchronize()
    return info


def _recursive_cholesky_body(ex, a, options, n, b, info, s, panel_buf, ck):
    ebytes = ex.config.element_bytes
    state = {"panel_free": None, "step": 0}

    def next_step() -> int:
        step = state["step"]
        state["step"] = step + 1
        return step

    def leaf(col0: int, width: int) -> None:
        col1 = col0 + width
        step = next_step()
        if ck.should_skip(step):
            return
        height = n - col0
        panel_view = panel_buf.view(0, height, 0, width)
        if state["panel_free"] is not None:
            ex.wait_event(s.h2d, state["panel_free"])
        ex.h2d(panel_view, a.region(col0, n, col0, col1), s.h2d)
        loaded = ex.record_event(s.h2d)
        ex.wait_event(s.compute, loaded)
        ex.panel_cholesky(panel_view, s.compute, tag="panel")
        factored = ex.record_event(s.compute)
        ex.wait_event(s.d2h, factored)
        ex.d2h(a.region(col0, n, col0, col1), panel_view, s.d2h)
        state["panel_free"] = ex.record_event(s.d2h)
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

        # this node's trailing SYRK: A[mid:, mid:col1] -= L21 L21(top)ᵀ
        host_ready = ex.record_event(s.d2h)
        plan = plan_rowstream_outer(
            M=n - mid,
            K=wl,
            N=wr,
            blocksize=options.outer_chunk(ex.config, n - mid, wl + wr),
            budget_elements=ex.allocator.free_bytes // ebytes,
            n_buffers=options.n_buffers,
            staging=options.staging_buffer,
            b_resident=False,
        )
        run_rowstream_outer(
            ex,
            a.region(mid, n, mid, col1),
            a.region(mid, n, col0, mid),
            a.region(mid, col1, col0, mid),   # (N, K): L21's top rows
            plan,
            streams=s,
            pipelined=options.pipelined,
            after=host_ready,
            b_transposed=True,
            tag="outer",
        )
        info.n_outer += 1
        info.outer_flops += gemm_flops(n - mid, wr, wl)
        if not options.qr_level_overlap:
            ex.synchronize()

        ck.step_complete(step, frontier=mid)

        recurse(mid, wr)

    recurse(0, n)
