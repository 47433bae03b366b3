"""Tiling plans for the out-of-core GEMM engines (§3.3 of the paper).

A *plan* decides, before any data moves, how an OOC GEMM is decomposed:
which operand stays device-resident, how the streamed operand is chunked,
whether the output needs panel-splitting to fit, and how many staging
buffers the pipeline uses. Plans are pure (shape + byte-budget in, layout
out) so they are cheap to property-test; the engines then execute them.

Four plans mirror the paper's four tiling figures:

* :func:`plan_ksplit_inner`  — Fig 3: recursive QR's inner product
  ``C = AᵀB`` with the reduction (k) dimension streamed and C resident;
  A and B are each read exactly once (when C fits without panel splits).
* :func:`plan_panel_inner`   — Fig 4: blocking QR's inner product with the
  panel Q device-resident and B streamed in column blocks.
* :func:`plan_rowstream_outer` — Fig 5: recursive QR's trailing update
  ``C -= A B`` with B resident and A/C streamed in row blocks.
* :func:`plan_tile_outer`    — Fig 6: blocking QR's trailing update with
  A and B resident and C streamed tile by tile.

Streamed-chunk height
---------------------
The §3.3 condition for hiding a GEMM's transfers behind its compute
(``m > 4 R_g/R_m``) is about the GEMM's *resident* dimensions: they set
the flops each streamed element buys. The height of the streamed chunk
does not enter it. Chunk height only trades pipeline fill/drain against
the fixed cost every chunk pays (one transfer latency plus one kernel
launch, :func:`op_latency_s`). Streaming ``extent`` rows of
``row_elements`` elements in chunks of ``h`` rows costs about

    T(h) = (extent / h) * L  +  h * row_elements * e / BW

(per-op latency ``L``, element bytes ``e``, H2D bandwidth ``BW``): the
first term is the per-op cost, the second the never-overlapped first
move-in. T is smallest at

    h* = sqrt(extent * L * BW / (row_elements * e))

:func:`streamed_chunk` rounds h* up to a power of two, clamps it to
``extent`` and never returns less than the driver's own chunk (the QR
panel width ``b``, ``b/2`` or the tile edge). The plans' halving loops
still shrink the result to fit the byte budget. At paper scale h* is a
few hundred rows, far below ``b`` = 8192-16384, so paper-scale plans are
unchanged; at small panel widths it cuts the op count by an order of
magnitude (a 16384x256 QR with ``b=64`` on an 8 MiB device with 25 us
per op drops from 1,288 GEMM ops to 56).

The rejected alternative, "the largest chunk that fits the budget",
streams whole extents: nothing is left to overlap the first move-in
with. Under it F12-F15 move and the Table 4 65536x65536
recursive-over-blocking speedup falls from 1.17x to 1.04x, failing two
of the Table 4 benchmark's checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.errors import PlanError
from repro.hw.specs import GpuSpec
from repro.ooc.gradual import gradual_schedule, uniform_schedule
from repro.util.validation import positive_int

#: Double-buffer depth used by every pipeline (one tile in flight, one in use).
DEFAULT_BUFFERS = 2


def op_latency_s(gpu: GpuSpec) -> float:
    """Fixed cost one streamed chunk pays besides its bytes: one transfer
    latency plus one kernel launch."""
    return gpu.pcie_latency_s + gpu.kernel_launch_s


def streamed_chunk(
    floor: int, extent: int, row_elements: int, config: SystemConfig
) -> int:
    """Streamed-chunk height of one OOC GEMM pipeline: ``max(floor, h*)``.

    *extent* is the streamed dimension, *row_elements* the elements one
    streamed row carries across every streamed operand (``M+N`` for the
    k-split inner product, ``K+N`` for the row-streaming outer product,
    ``N`` for the tiled outer product) and *floor* the driver's own chunk.
    h* balances per-op latency against pipeline fill (see the module
    docstring); with zero latency it is 0 and *floor* comes back as is.
    """
    floor = positive_int(floor, "floor")
    extent = positive_int(extent, "extent")
    row_elements = positive_int(row_elements, "row_elements")
    gpu = config.gpu
    h_sq = (
        extent * op_latency_s(gpu) * gpu.h2d_bytes_per_s
        / (row_elements * config.element_bytes)
    )
    if h_sq <= 0:
        return floor
    h = math.ceil(math.sqrt(h_sq))
    return max(floor, min(1 << (h - 1).bit_length(), extent))


def split_even(extent: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, extent)`` into *parts* near-equal (offset, size) ranges."""
    extent = positive_int(extent, "extent")
    parts = positive_int(parts, "parts")
    if parts > extent:
        raise PlanError(f"cannot split extent {extent} into {parts} parts")
    base, rem = divmod(extent, parts)
    ranges = []
    offset = 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        ranges.append((offset, size))
        offset += size
    return ranges


@dataclass(frozen=True)
class KSplitInnerPlan:
    """Layout for the recursive (Fig 3) inner product ``C(M,N) = AᵀB``.

    ``n_panels`` column panels of C/B are processed one after another; each
    panel accumulates over the k-chunks listed in ``chunks``. A is re-read
    once per panel (``n_panels == 1`` gives the paper's read-each-once
    optimum).
    """

    K: int
    M: int
    N: int
    blocksize: int
    n_buffers: int
    panels: list[tuple[int, int]]          # (col offset, width) of C/B panels
    chunks: list[tuple[int, int]]          # (row offset, height) k-chunks
    gradual: bool

    @property
    def n_panels(self) -> int:
        return len(self.panels)

    @property
    def max_chunk(self) -> int:
        return max(h for _, h in self.chunks)

    @property
    def max_panel_width(self) -> int:
        return max(w for _, w in self.panels)

    def working_set_elements(self) -> int:
        """Peak device elements: resident C panel + chunk buffers."""
        wp = self.max_panel_width
        return self.M * wp + self.n_buffers * self.max_chunk * (self.M + wp)

    def h2d_elements(self) -> int:
        """Host-to-device traffic in elements (A re-read per panel)."""
        return self.n_panels * self.K * self.M + self.K * self.N

    def d2h_elements(self) -> int:
        """Device-to-host traffic in elements (C written once)."""
        return self.M * self.N


def plan_ksplit_inner(
    K: int,
    M: int,
    N: int,
    blocksize: int,
    budget_elements: int,
    *,
    n_buffers: int = DEFAULT_BUFFERS,
    gradual: bool = False,
) -> KSplitInnerPlan:
    """Plan a Fig-3 inner product within *budget_elements* device elements."""
    K, M, N = positive_int(K, "K"), positive_int(M, "M"), positive_int(N, "N")
    blocksize = min(positive_int(blocksize, "blocksize"), K)
    n_buffers = max(2, positive_int(n_buffers, "n_buffers"))
    budget_elements = positive_int(budget_elements, "budget_elements")

    for n_panels in range(1, N + 1):
        wp = math.ceil(N / n_panels)
        b = blocksize
        # shrink the k-chunk if even one panel with full chunks won't fit
        while b >= 1:
            need = M * wp + n_buffers * b * (M + wp)
            if need <= budget_elements:
                break
            b //= 2
        if b >= 1:
            chunks = (
                gradual_schedule(K, b) if gradual else uniform_schedule(K, b)
            )
            return KSplitInnerPlan(
                K=K,
                M=M,
                N=N,
                blocksize=b,
                n_buffers=n_buffers,
                panels=split_even(N, n_panels),
                chunks=chunks,
                gradual=gradual,
            )
    raise PlanError(
        f"inner product C({M}x{N}) = AᵀB with K={K} cannot fit in "
        f"{budget_elements} device elements under any panel split"
    )


@dataclass(frozen=True)
class PanelInnerPlan:
    """Layout for the blocking (Fig 4) inner product with resident panel Q.

    The M-by-K panel (Q1ᵀ, stored K-by-M) is device-resident; B streams in
    column blocks; each C block is produced and streamed out through
    ``n_buffers`` rotating block buffers. ``keep_c`` is whether the full C
    stays resident instead, for reuse by the outer product (the §4.2
    QR-level optimization).
    """

    K: int
    M: int            # panel width b_qr (rows of C)
    N: int
    blocksize: int
    n_buffers: int
    blocks: list[tuple[int, int]]   # (col offset, width) of B/C blocks
    keep_c: bool

    @property
    def max_block(self) -> int:
        return max(w for _, w in self.blocks)

    def working_set_elements(self) -> int:
        """Device elements beyond the already-resident panel."""
        wb = self.max_block
        c = self.M * self.N if self.keep_c else self.n_buffers * self.M * wb
        return c + self.n_buffers * self.K * wb

    def h2d_elements(self) -> int:
        """B streams in once (the resident panel is accounted by the caller)."""
        return self.K * self.N

    def d2h_elements(self) -> int:
        return self.M * self.N


def plan_panel_inner(
    K: int,
    M: int,
    N: int,
    blocksize: int,
    budget_elements: int,
    *,
    n_buffers: int = DEFAULT_BUFFERS,
    prefer_keep_c: bool = True,
) -> PanelInnerPlan:
    """Plan a Fig-4 inner product. *budget_elements* excludes the panel."""
    K, M, N = positive_int(K, "K"), positive_int(M, "M"), positive_int(N, "N")
    blocksize = min(positive_int(blocksize, "blocksize"), N)
    n_buffers = max(2, positive_int(n_buffers, "n_buffers"))

    # Prefer keeping the whole C resident (the §4.2 reuse that feeds the
    # outer product) even at the cost of a smaller streamed blocksize —
    # that is the paper's small-memory configuration — before giving up
    # and streaming C blocks out.
    passes = ((True, False) if prefer_keep_c else (False,))
    for keep_c in passes:
        b = blocksize
        while b >= 1:
            c = M * N if keep_c else n_buffers * M * b
            need = c + n_buffers * K * b
            if need <= budget_elements:
                return PanelInnerPlan(
                    K=K,
                    M=M,
                    N=N,
                    blocksize=b,
                    n_buffers=n_buffers,
                    blocks=uniform_schedule(N, b),
                    keep_c=keep_c,
                )
            b //= 2
    raise PlanError(
        f"panel inner product C({M}x{N}), K={K} cannot fit in "
        f"{budget_elements} device elements"
    )


@dataclass(frozen=True)
class RowStreamOuterPlan:
    """Layout for the recursive (Fig 5) outer product ``C(M,N) -= A B``.

    B (K-by-N) is device-resident (possibly panel-split over N when it is
    too large); row blocks of A and C stream through double buffers; an
    optional staging buffer decouples C move-out from the next move-in
    (§4.1.2 / Fig 10).
    """

    M: int
    K: int
    N: int
    blocksize: int
    n_buffers: int
    panels: list[tuple[int, int]]      # (col offset, width) of B/C panels
    blocks: list[tuple[int, int]]      # (row offset, height) of A/C blocks
    staging: bool
    b_resident: bool                   # B already on device (reuse from inner)

    @property
    def n_panels(self) -> int:
        return len(self.panels)

    @property
    def max_block(self) -> int:
        return max(h for _, h in self.blocks)

    @property
    def max_panel_width(self) -> int:
        return max(w for _, w in self.panels)

    def working_set_elements(self) -> int:
        wp = self.max_panel_width
        bb = self.max_block
        stage = bb * wp if self.staging else 0
        b_cost = 0 if self.b_resident and self.n_panels == 1 else self.K * wp
        return b_cost + self.n_buffers * bb * (self.K + wp) + stage

    def h2d_elements(self) -> int:
        # B panels partition N, so B moves in once total (or not at all when
        # it was left on device by the inner product); A is re-read once per
        # panel; every C row-block is read once.
        b_in = 0 if self.b_resident else self.K * self.N
        return b_in + self.n_panels * self.M * self.K + self.M * self.N

    def d2h_elements(self) -> int:
        return self.M * self.N


def plan_rowstream_outer(
    M: int,
    K: int,
    N: int,
    blocksize: int,
    budget_elements: int,
    *,
    n_buffers: int = DEFAULT_BUFFERS,
    staging: bool = True,
    b_resident: bool = False,
) -> RowStreamOuterPlan:
    """Plan a Fig-5 outer product within *budget_elements* device elements.

    When ``b_resident`` is set the K-by-N B operand is already on the
    device (reused from the inner product) and must survive the whole run;
    a panel split is then impossible, so the plan falls back to streaming B
    (the caller handles the spill) if a single resident panel cannot fit.
    """
    M, K, N = positive_int(M, "M"), positive_int(K, "K"), positive_int(N, "N")
    blocksize = min(positive_int(blocksize, "blocksize"), M)
    n_buffers = max(2, positive_int(n_buffers, "n_buffers"))

    for n_panels in range(1, N + 1):
        if b_resident and n_panels > 1:
            # a reused device-resident B cannot be panel-split; give up on
            # residency and re-plan as if B streamed from host
            return plan_rowstream_outer(
                M,
                K,
                N,
                blocksize,
                budget_elements,
                n_buffers=n_buffers,
                staging=staging,
                b_resident=False,
            )
        wp = math.ceil(N / n_panels)
        b = blocksize
        while b >= 1:
            stage = b * wp if staging else 0
            # a reused resident B was allocated by the caller and is not
            # charged against this budget
            b_cost = 0 if b_resident else K * wp
            need = b_cost + n_buffers * b * (K + wp) + stage
            if need <= budget_elements:
                return RowStreamOuterPlan(
                    M=M,
                    K=K,
                    N=N,
                    blocksize=b,
                    n_buffers=n_buffers,
                    panels=split_even(N, n_panels),
                    blocks=uniform_schedule(M, b),
                    staging=staging,
                    b_resident=b_resident and n_panels == 1,
                )
            b //= 2
    raise PlanError(
        f"outer product C({M}x{N}) -= A B with K={K} cannot fit in "
        f"{budget_elements} device elements under any panel split"
    )


@dataclass(frozen=True)
class TileOuterPlan:
    """Layout for the blocking (Fig 6) outer product with resident A and B.

    Only C moves: tiles of b1-by-b2 stream through double buffers (plus an
    optional staging buffer). A (M-by-K) and B (K-by-N) residency is the
    caller's responsibility (they are the panel Q and R12 of blocking QR).
    """

    M: int
    K: int
    N: int
    b1: int
    b2: int
    n_buffers: int
    row_blocks: list[tuple[int, int]]
    col_blocks: list[tuple[int, int]]
    staging: bool

    @property
    def n_tiles(self) -> int:
        return len(self.row_blocks) * len(self.col_blocks)

    def working_set_elements(self) -> int:
        """Device elements beyond the resident A and B."""
        stage = self.b1 * self.b2 if self.staging else 0
        return self.n_buffers * self.b1 * self.b2 + stage

    def h2d_elements(self) -> int:
        return self.M * self.N

    def d2h_elements(self) -> int:
        return self.M * self.N


def plan_tile_outer(
    M: int,
    K: int,
    N: int,
    blocksize: int,
    budget_elements: int,
    *,
    n_buffers: int = DEFAULT_BUFFERS,
    staging: bool = True,
) -> TileOuterPlan:
    """Plan a Fig-6 outer product; *budget_elements* excludes A and B."""
    M, K, N = positive_int(M, "M"), positive_int(K, "K"), positive_int(N, "N")
    b1 = min(positive_int(blocksize, "blocksize"), M)
    b2 = min(blocksize, N)
    n_buffers = max(2, positive_int(n_buffers, "n_buffers"))

    while b1 >= 1 and b2 >= 1:
        n_stage = 1 if staging else 0
        need = (n_buffers + n_stage) * b1 * b2
        if need <= budget_elements:
            return TileOuterPlan(
                M=M,
                K=K,
                N=N,
                b1=b1,
                b2=b2,
                n_buffers=n_buffers,
                row_blocks=uniform_schedule(M, b1),
                col_blocks=uniform_schedule(N, b2),
                staging=staging,
            )
        # shrink the larger tile dimension first
        if b1 >= b2 and b1 > 1:
            b1 //= 2
        elif b2 > 1:
            b2 //= 2
        else:
            break
    raise PlanError(
        f"tiled outer product C({M}x{N}) cannot fit tiles in "
        f"{budget_elements} device elements"
    )
