"""Options controlling the OOC QR drivers and their optimizations.

Every §4 optimization in the paper is an independent toggle so the
benchmark harness can ablate them:

* ``pipelined``         — async pipelines vs fully synchronous execution
  (the Synchronous/Asynchronous rows of Tables 1-2).
* ``qr_level_overlap``  — §4.2: let panel writebacks, R12 move-outs and the
  next phase's move-ins overlap (no device barriers between phases).
* ``reuse_inner_result``— §4.2: keep R12 on the device between the inner
  and outer product instead of a round trip through host memory.
* ``staging_buffer``    — §4.1.2: device-side staging copy so C move-outs
  stop blocking the next move-in.
* ``gradual_blocksize`` — §4.1.3: ramp the first streamed chunks up from a
  smaller size so the first (never-overlapped) move-in shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SystemConfig
from repro.errors import ValidationError
from repro.health.options import HealthOptions
from repro.ooc.plan import streamed_chunk
from repro.util.validation import positive_int


@dataclass(frozen=True)
class QrOptions:
    """Tuning knobs for :func:`repro.qr.api.ooc_qr` and the drivers."""

    #: QR panel width b (the paper's "QR blocksize": 16384 or 8192 at scale).
    blocksize: int = 16384
    #: Streamed-chunk height of the row-streaming outer product, taken
    #: exactly when set. Unset, each plan streams
    #: :func:`~repro.ooc.plan.streamed_chunk` rows: at least blocksize / 2
    #: (the paper pairs QR blocksize 16384 with outer blocksize 8192), more
    #: when per-op latency dominates that chunk.
    outer_blocksize: int | None = None
    #: Tile edge of the tiled outer product, taken exactly when set. Unset,
    #: tiles are :func:`~repro.ooc.plan.streamed_chunk` rows high: at least
    #: the blocksize, more when per-op latency dominates.
    tile_blocksize: int | None = None
    #: Double-buffer depth of every streaming pipeline.
    n_buffers: int = 2
    pipelined: bool = True
    qr_level_overlap: bool = True
    reuse_inner_result: bool = True
    staging_buffer: bool = True
    gradual_blocksize: bool = False
    #: Numerical-health sentinel configuration (off by default). Being an
    #: options field, it is hashed into checkpoint fingerprints and serve
    #: cache keys automatically.
    health: HealthOptions = HealthOptions()

    def __post_init__(self) -> None:
        positive_int(self.blocksize, "blocksize")
        if self.outer_blocksize is not None:
            positive_int(self.outer_blocksize, "outer_blocksize")
        if self.tile_blocksize is not None:
            positive_int(self.tile_blocksize, "tile_blocksize")
        if self.n_buffers < 2:
            raise ValidationError("n_buffers must be at least 2 (double buffering)")
        if not isinstance(self.health, HealthOptions):
            raise ValidationError(
                f"health must be a HealthOptions, got {type(self.health).__name__}"
            )

    @property
    def effective_outer_blocksize(self) -> int:
        """Row-block height floor of the row-streaming outer product: the
        explicit ``outer_blocksize``, else blocksize / 2."""
        return (
            self.outer_blocksize
            if self.outer_blocksize is not None
            else max(1, self.blocksize // 2)
        )

    @property
    def effective_tile_blocksize(self) -> int:
        """Tile-edge floor of the tiled outer product: the explicit
        ``tile_blocksize``, else the blocksize."""
        return (
            self.tile_blocksize
            if self.tile_blocksize is not None
            else self.blocksize
        )

    def outer_chunk(self, config: SystemConfig, extent: int, row_elements: int) -> int:
        """Row-block height a row-streaming outer product plans with."""
        if self.outer_blocksize is not None:
            return self.outer_blocksize
        return streamed_chunk(
            self.effective_outer_blocksize, extent, row_elements, config
        )

    def tile_chunk(self, config: SystemConfig, extent: int, row_elements: int) -> int:
        """Tile edge a tiled outer product plans with."""
        if self.tile_blocksize is not None:
            return self.tile_blocksize
        return streamed_chunk(
            self.effective_tile_blocksize, extent, row_elements, config
        )

    def all_optimizations_off(self) -> "QrOptions":
        """The unoptimized baseline used by the §4.2 ablation (~15%)."""
        return replace(
            self,
            qr_level_overlap=False,
            reuse_inner_result=False,
            staging_buffer=False,
            gradual_blocksize=False,
        )


def with_blocksize(options: QrOptions | None, blocksize: int | None) -> QrOptions:
    """*options* (default :class:`QrOptions`) with the entry points'
    ``blocksize=`` convenience override applied."""
    options = options or QrOptions()
    return options if blocksize is None else replace(options, blocksize=blocksize)
