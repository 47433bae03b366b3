"""Out-of-core triangular solve: ``X = op(L)^{-1} B`` with a host triangle.

Needed by the recursive OOC LU factorization (§6 future work): at each
recursion level, ``U12 = L11^{-1} A12`` where L11 is the *whole left
half's* unit-lower triangle — far larger than the b-by-b triangles the
blocking algorithm solves on device.

Strategy (mirrors the k-split inner product's residency logic): the
solution X stays device-resident (panel-split over its columns when too
large) while row strips of the triangle stream through double buffers.
Row block i of X needs

    X_i = T_ii^{-1} (B_i - L[i, :i] X[:i])

— one streamed GEMM against all previously solved rows (growing, GEMM-rich,
TensorCore-friendly) plus a b-by-b on-device triangular solve. The
triangle is read once per X panel (K^2/2 words); B and X move once each.

Like the other engines, work is issued in a sequentially correct order
(numeric executors compute exact results) with CUDA-style events carrying
the pipeline structure for the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PlanError, ShapeError
from repro.execution.base import DeviceBuffer, Executor
from repro.host.tiled import HostRegion
from repro.ooc.gradual import uniform_schedule
from repro.ooc.plan import DEFAULT_BUFFERS, split_even
from repro.ooc.scope import DeviceScope
from repro.ooc.streams import StreamBundle
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ooc.inner import InnerProductResult
from repro.util.validation import positive_int


@dataclass(frozen=True)
class TrsmPlan:
    """Layout for one OOC triangular solve."""

    K: int                           # triangle dimension
    N: int                           # right-hand-side columns
    blocksize: int                   # row-block height of X
    n_buffers: int
    panels: list[tuple[int, int]]    # (col offset, width) of X/B panels
    blocks: list[tuple[int, int]]    # (row offset, height) of X row blocks

    @property
    def n_panels(self) -> int:
        return len(self.panels)

    @property
    def max_panel_width(self) -> int:
        return max(w for _, w in self.panels)

    def working_set_elements(self) -> int:
        wp = self.max_panel_width
        return self.K * wp + self.n_buffers * self.blocksize * self.K

    def h2d_elements(self) -> int:
        """Triangle strips once per panel + B once."""
        strip_total = 0
        for row0, height in self.blocks:
            strip_total += height * (row0 + height)
        return self.n_panels * strip_total + self.K * self.N

    def d2h_elements(self) -> int:
        return self.K * self.N


def plan_ooc_trsm(
    K: int,
    N: int,
    blocksize: int,
    budget_elements: int,
    *,
    n_buffers: int = DEFAULT_BUFFERS,
) -> TrsmPlan:
    """Plan an OOC triangular solve within *budget_elements*."""
    K, N = positive_int(K, "K"), positive_int(N, "N")
    blocksize = min(positive_int(blocksize, "blocksize"), K)
    n_buffers = max(2, positive_int(n_buffers, "n_buffers"))
    for n_panels in range(1, N + 1):
        wp = math.ceil(N / n_panels)
        b = blocksize
        while b >= 1:
            need = K * wp + n_buffers * b * K
            if need <= budget_elements:
                return TrsmPlan(
                    K=K,
                    N=N,
                    blocksize=b,
                    n_buffers=n_buffers,
                    panels=split_even(N, n_panels),
                    blocks=uniform_schedule(K, b),
                )
            b //= 2
    raise PlanError(
        f"OOC trsm with K={K}, N={N} cannot fit in {budget_elements} "
        "device elements"
    )


@dataclass(frozen=True)
class PanelTrsmPlan:
    """Layout for blocking LU's U12 solve: the K-by-K triangle is already
    resident; B streams in column blocks into X, which is one resident
    K-by-N buffer (``keep_x``) or ``n_buffers`` rotating K-by-block ones.
    """

    K: int
    N: int
    n_buffers: int
    blocks: list[tuple[int, int]]    # (col offset, width) of B/X blocks
    keep_x: bool

    @property
    def max_block(self) -> int:
        return max(w for _, w in self.blocks)

    def working_set_elements(self) -> int:
        """Device elements beyond the resident triangle: exactly the X
        buffers :func:`run_panel_trsm` allocates."""
        if self.keep_x:
            return self.K * self.N
        return self.n_buffers * self.K * self.max_block


def plan_panel_trsm(
    K: int,
    N: int,
    blocksize: int,
    budget_elements: int,
    *,
    n_buffers: int = DEFAULT_BUFFERS,
    keep_x: bool = True,
) -> PanelTrsmPlan:
    """Plan a panel TRSM within *budget_elements* (which excludes the
    triangle): X stays resident when *keep_x* and it fits, else X blocks
    stream at the widest width up to *blocksize* that fits."""
    K, N = positive_int(K, "K"), positive_int(N, "N")
    blocksize = min(positive_int(blocksize, "blocksize"), N)
    n_buffers = max(2, positive_int(n_buffers, "n_buffers"))
    if keep_x and K * N <= budget_elements:
        return PanelTrsmPlan(K, N, n_buffers, uniform_schedule(N, blocksize), True)
    b = blocksize
    while b >= 1:
        if n_buffers * K * b <= budget_elements:
            return PanelTrsmPlan(K, N, n_buffers, uniform_schedule(N, b), False)
        b //= 2
    raise PlanError(
        f"panel trsm with K={K}, N={N} cannot fit in {budget_elements} "
        "device elements"
    )


def run_ooc_trsm(
    ex: Executor,
    l_host: HostRegion,
    b_host: HostRegion,
    x_out: HostRegion | None,
    plan: TrsmPlan,
    *,
    streams: StreamBundle | None = None,
    unit_diag: bool = True,
    keep_on_device: bool = False,
    pipelined: bool = True,
    after: object | None = None,
    tag: str = "trsm",
) -> DeviceBuffer | None:
    """Solve ``L X = B`` out of core; writes X to *x_out* (may alias
    *b_host*) and/or leaves it device-resident.

    Parameters
    ----------
    l_host
        (K, K) host region whose lower triangle is L (upper part ignored).
    b_host
        (K, N) host right-hand side.
    x_out
        Host destination; ``None`` only with ``keep_on_device``.
    keep_on_device
        Return the device buffer holding X (single-panel plans only) for
        reuse as the trailing update's resident operand.
    """
    if l_host.shape != (plan.K, plan.K):
        raise ShapeError(f"L is {l_host.shape}, plan expects {(plan.K, plan.K)}")
    if b_host.shape != (plan.K, plan.N):
        raise ShapeError(f"B is {b_host.shape}, plan expects {(plan.K, plan.N)}")
    if x_out is not None and x_out.shape != (plan.K, plan.N):
        raise ShapeError(f"X is {x_out.shape}, plan expects {(plan.K, plan.N)}")
    if keep_on_device and plan.n_panels != 1:
        raise PlanError("keep_on_device requires a single-panel trsm plan")
    if x_out is None and not keep_on_device:
        raise PlanError("ooc trsm must either write x_out or keep X on device")

    s = streams or StreamBundle.create(ex, tag)
    if after is not None:
        ex.wait_event(s.h2d, after)
    nb = plan.n_buffers
    bmax = plan.blocksize
    wp = plan.max_panel_width

    scope = DeviceScope(ex)
    with scope:
        x_dev = scope.alloc(plan.K, wp, f"{tag}-X")
        strips = [scope.alloc(bmax, plan.K, f"{tag}-Lstrip{i}") for i in range(nb)]
        return _ooc_trsm_body(
            ex, l_host, b_host, x_out, plan, s, scope, x_dev, strips,
            unit_diag, keep_on_device, pipelined, tag,
        )


def _ooc_trsm_body(
    ex, l_host, b_host, x_out, plan, s, scope, x_dev, strips,
    unit_diag, keep_on_device, pipelined, tag,
):
    nb = plan.n_buffers
    slot_busy: list[object | None] = [None] * nb
    panel_flushed: object | None = None
    for col0, width in plan.panels:
        last_compute: object | None = None
        for i, (row0, height) in enumerate(plan.blocks):
            slot = i % nb
            if slot_busy[slot] is not None:
                ex.wait_event(s.h2d, slot_busy[slot])
            if i == 0 and panel_flushed is not None:
                # previous panel's X must be flushed before overwriting
                ex.wait_event(s.h2d, panel_flushed)
            strip_view = strips[slot].view(0, height, 0, row0 + height)
            ex.h2d(strip_view, l_host.sub(row0, row0 + height, 0, row0 + height), s.h2d)
            x_i = x_dev.view(row0, row0 + height, 0, width)
            ex.h2d(x_i, b_host.sub(row0, row0 + height, col0, col0 + width), s.h2d)
            loaded = ex.record_event(s.h2d)
            ex.wait_event(s.compute, loaded)
            if row0 > 0:
                # X_i -= L[i, :i] X[:i]
                ex.gemm(
                    x_i,
                    strips[slot].view(0, height, 0, row0),
                    x_dev.view(0, row0, 0, width),
                    s.compute,
                    alpha=-1.0,
                    beta=1.0,
                    tag=tag,
                )
            ex.trsm(
                strips[slot].view(0, height, row0, row0 + height),
                x_i,
                s.compute,
                lower=True,
                unit_diag=unit_diag,
                tag=tag,
            )
            last_compute = slot_busy[slot] = ex.record_event(s.compute)
            if x_out is not None:
                ex.wait_event(s.d2h, last_compute)
                ex.d2h(x_out.sub(row0, row0 + height, col0, col0 + width), x_i, s.d2h)
            if not pipelined:
                ex.synchronize()
        if x_out is not None:
            panel_flushed = ex.record_event(s.d2h)

    if keep_on_device:
        return scope.release(x_dev)
    return None


def run_panel_trsm(
    ex: Executor,
    l_dev,
    b_host: HostRegion,
    x_out: HostRegion | None,
    plan: PanelTrsmPlan,
    *,
    streams: StreamBundle | None = None,
    unit_diag: bool = True,
    pipelined: bool = True,
    after: object | None = None,
    tag: str = "trsm-blk",
) -> "InnerProductResult":
    """Blocking-LU's U12 solve: the b-by-b triangle is already resident
    (inside the factorized panel); the right-hand side streams in column
    blocks — the TRSM analogue of the Fig-4 panel-resident inner product.

    When ``plan.keep_x`` the solved X stays resident and its buffer is
    returned (for reuse as the trailing update's B operand).
    """
    from repro.execution.base import as_view

    l_dev = as_view(l_dev)
    k = l_dev.rows
    if l_dev.shape != (k, k) or plan.K != k:
        raise ShapeError(
            f"panel trsm: triangle {l_dev.shape} does not match plan K={plan.K}"
        )
    if b_host.shape != (k, plan.N):
        raise ShapeError(f"B is {b_host.shape}, plan expects {(k, plan.N)}")
    if x_out is None and not plan.keep_x:
        raise PlanError("panel trsm must write x_out or keep X resident")

    s = streams or StreamBundle.create(ex, tag)
    if after is not None:
        ex.wait_event(s.h2d, after)
    nb = plan.n_buffers
    bmax = plan.max_block

    scope = DeviceScope(ex)
    with scope:
        if plan.keep_x:
            x_dev = scope.alloc(k, plan.N, f"{tag}-X")
            blocks_dev = None
        else:
            x_dev = None
            blocks_dev = [
                scope.alloc(k, bmax, f"{tag}-Xblk{i}") for i in range(nb)
            ]
        return _panel_trsm_body(
            ex, l_dev, b_host, x_out, plan, s, scope, x_dev, blocks_dev,
            unit_diag, pipelined, tag,
        )


def _panel_trsm_body(
    ex, l_dev, b_host, x_out, plan, s, scope, x_dev, blocks_dev,
    unit_diag, pipelined, tag,
):
    from repro.ooc.inner import InnerProductResult

    k = l_dev.rows
    nb = plan.n_buffers
    consumed: dict[int, object] = {}
    for j, (col0, width) in enumerate(plan.blocks):
        slot = j % nb
        if j >= nb:
            ex.wait_event(s.h2d, consumed[j - nb])
        if plan.keep_x:
            x_view = x_dev.view(0, k, col0, col0 + width)
        else:
            x_view = blocks_dev[slot].view(0, k, 0, width)
        ex.h2d(x_view, b_host.sub(0, k, col0, col0 + width), s.h2d)
        loaded = ex.record_event(s.h2d)
        ex.wait_event(s.compute, loaded)
        ex.trsm(l_dev, x_view, s.compute, lower=True, unit_diag=unit_diag, tag=tag)
        done = ex.record_event(s.compute)
        if x_out is not None:
            ex.wait_event(s.d2h, done)
            ex.d2h(x_out.sub(0, k, col0, col0 + width), x_view, s.d2h)
            if not plan.keep_x:
                done = ex.record_event(s.d2h)
        consumed[j] = done
        if not pipelined:
            ex.synchronize()

    if plan.keep_x:
        return InnerProductResult(
            scope.release(x_dev), len(plan.blocks), "panel-trsm"
        )
    return InnerProductResult(None, len(plan.blocks), "panel-trsm")
