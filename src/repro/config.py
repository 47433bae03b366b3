"""System configuration: one GPU spec plus the derived performance models.

A :class:`SystemConfig` is the single object threaded through executors,
OOC engines and QR drivers. It owns the element size of host/device storage
(the paper stores matrices in fp32 — 4 bytes — and down-converts to fp16
inside the TensorCore GEMM), the pinned-memory flag, and a safety reserve
of device memory that real allocators (cuBLAS workspaces, contexts) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError
from repro.hw.gemm import GemmModel, Precision
from repro.hw.panel import PanelModel
from repro.hw.specs import GpuSpec, V100_16GB, V100_32GB
from repro.hw.transfer import TransferModel


@dataclass(frozen=True)
class SystemConfig:
    """Everything the library needs to know about the machine being
    simulated (or, at small scale, numerically emulated)."""

    gpu: GpuSpec
    element_bytes: int = 4          # fp32 storage, as in the paper
    pinned: bool = True
    precision: Precision = Precision.TC_FP16
    #: Host (CPU) memory capacity in bytes; ``None`` disables the check.
    #: The paper's testbed has 128 GB, which capped its §5.2 matrix sizes.
    host_mem_bytes: int | None = None
    #: In-core panel factorization algorithm. "cholqr2" (the default) runs
    #: CholQR2 — four BLAS-3 calls — and falls back by rule, per panel, to
    #: the paper's recursive CGS when the panel is too ill-conditioned
    #: (``repro.qr.incore.cholqr2``; each fallback is a ``panel-fallback``
    #: obs event). "recursive-cgs" always runs the paper's panel
    #: (LATER-style); "tsqr" and "householder" are unconditionally stable
    #: alternatives. Simulated timing uses the same calibrated panel model
    #: for all four.
    panel_algorithm: str = "cholqr2"
    #: Fraction of device memory held back from the allocator (driver,
    #: cuBLAS workspace). The paper's 32 GB card realistically exposes ~31.
    mem_reserve_fraction: float = 0.03

    PANEL_ALGORITHMS = ("cholqr2", "recursive-cgs", "tsqr", "householder")

    def __post_init__(self) -> None:
        if self.element_bytes not in (2, 4, 8):
            raise ConfigError(
                f"element_bytes must be 2, 4 or 8, got {self.element_bytes}"
            )
        if not (0.0 <= self.mem_reserve_fraction < 1.0):
            raise ConfigError("mem_reserve_fraction must be in [0, 1)")
        if self.host_mem_bytes is not None and self.host_mem_bytes <= 0:
            raise ConfigError("host_mem_bytes must be positive or None")
        if self.panel_algorithm not in self.PANEL_ALGORITHMS:
            raise ConfigError(
                f"panel_algorithm must be one of {self.PANEL_ALGORITHMS}, "
                f"got {self.panel_algorithm!r}"
            )

    # -- derived models (constructed on demand; frozen dataclass keeps the
    #    config hashable and safe to share across threads) ------------------

    @property
    def transfer(self) -> TransferModel:
        """PCIe transfer-time model for this system."""
        return TransferModel(self.gpu, pinned=self.pinned)

    @property
    def gemm(self) -> GemmModel:  # lint: allow[op-vocabulary] - a model, not an op
        """In-core GEMM time model for this system."""
        return GemmModel(self.gpu)

    @property
    def panel(self) -> PanelModel:
        """In-core panel-factorization time model for this system."""
        return PanelModel(self.gpu)

    @property
    def usable_device_bytes(self) -> int:
        """Device bytes available to the allocator after the reserve."""
        return int(self.gpu.mem_bytes * (1.0 - self.mem_reserve_fraction))

    def elements_fit(self, n_elements: int) -> bool:
        """Whether *n_elements* matrix elements fit in usable device memory."""
        return n_elements * self.element_bytes <= self.usable_device_bytes

    def bytes_of(self, *dims: int) -> int:
        """Storage bytes of a matrix with the given dimensions."""
        total = self.element_bytes
        for d in dims:
            total *= int(d)
        return total

    def with_gpu(self, gpu: GpuSpec) -> "SystemConfig":
        """This configuration on a different GPU."""
        return replace(self, gpu=gpu)

    def check_host_capacity(self, n_elements: int, what: str = "") -> None:
        """Raise :class:`~repro.errors.OutOfHostMemoryError` if *n_elements*
        matrix elements exceed the configured host memory (no-op when the
        capacity is unset)."""
        from repro.errors import OutOfHostMemoryError

        if self.host_mem_bytes is None:
            return
        required = n_elements * self.element_bytes
        if required > self.host_mem_bytes:
            raise OutOfHostMemoryError(required, self.host_mem_bytes, what)


#: The paper's testbed.
PAPER_SYSTEM = SystemConfig(gpu=V100_32GB)
#: §5.2's memory-capped variant.
PAPER_SYSTEM_16GB = SystemConfig(gpu=V100_16GB)
