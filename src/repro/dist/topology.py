"""Device-pool topology: N devices, per-link bandwidth/latency, host staging.

The paper's model treats one GPU's HBM as the cache for host memory; a
:class:`DeviceTopology` lifts the same picture one level up. Each device
is an instance of the single-GPU hardware model (:class:`~repro.config
.SystemConfig` — transfer/GEMM/panel models), and devices exchange data
either through **host staging** (the realistic no-NVLink PCIe path: a
D2H on the source link followed by an H2D on the destination link) or
over an optional direct peer link.

Links are per-device: with ``shared_host_link=False`` (the default)
every device owns its PCIe lanes, which is what makes near-linear
scaling possible; with ``shared_host_link=True`` all devices contend
for one root complex and each link's bandwidth is derated by the device
count. :meth:`DeviceTopology.symmetric` is the one place that derating
is modelled; study S13 runs its per-device GEMMs on the derated config.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import SystemConfig
from repro.errors import DeviceLostError, ValidationError
from repro.hw.transfer import Direction
from repro.util.validation import positive_int

#: Pseudo-device id for the host in transfer endpoints.
HOST = -1


@dataclass(frozen=True)
class LinkSpec:
    """One directed interconnect link: fixed latency + linear bandwidth."""

    bytes_per_s: float
    latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.bytes_per_s <= 0:
            raise ValidationError(
                f"link bandwidth must be positive, got {self.bytes_per_s}"
            )
        if self.latency_s < 0:
            raise ValidationError(
                f"link latency must be non-negative, got {self.latency_s}"
            )

    def time(self, nbytes: int) -> float:
        """Seconds to move *nbytes* over this link (0 bytes -> 0 s)."""
        if nbytes < 0:
            raise ValidationError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / self.bytes_per_s


@dataclass(frozen=True)
class DeviceTopology:
    """A pool of identical devices around one host.

    Parameters
    ----------
    config
        Per-device system configuration (one GPU's calibrated models).
        Every device in the pool is an instance of this config; use
        :meth:`device_config` to read the effective (possibly derated)
        per-device config.
    n_devices
        Pool size (>= 1).
    host_links
        One :class:`LinkSpec` per device for the device<->host path
        (symmetric: the same spec prices both directions; the underlying
        per-direction PCIe asymmetry stays inside ``config.transfer``
        for intra-device pipelines).
    peer_link
        Optional direct device<->device link (NVLink-style). ``None``
        (default) means no peer path exists and every inter-device
        transfer stages through the host.
    shared_host_link
        Whether the host links contend for one root complex (recorded
        for reporting; :meth:`symmetric` already folds the derating into
        the link specs and the device config).
    """

    config: SystemConfig
    n_devices: int
    host_links: tuple[LinkSpec, ...]
    peer_link: LinkSpec | None = None
    shared_host_link: bool = False
    #: Devices that dropped out of the pool (device-loss recovery,
    #: docs/robustness.md). Ids stay stable — the pool keeps its
    #: numbering so shard ownership and remaps stay meaningful — but a
    #: lost device prices no transfers and may receive no work.
    lost: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        positive_int(self.n_devices, "n_devices")
        if len(self.host_links) != self.n_devices:
            raise ValidationError(
                f"need one host link per device: {self.n_devices} devices, "
                f"{len(self.host_links)} links"
            )
        if not isinstance(self.lost, frozenset):
            object.__setattr__(self, "lost", frozenset(self.lost))
        for d in self.lost:
            if not 0 <= d < self.n_devices:
                raise ValidationError(
                    f"lost device {d} outside 0..{self.n_devices - 1}"
                )
        if len(self.lost) >= self.n_devices:
            raise ValidationError(
                f"all {self.n_devices} devices lost; no survivors to "
                f"build a topology over"
            )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def symmetric(
        cls,
        config: SystemConfig,
        n_devices: int,
        *,
        shared_host_link: bool = False,
        peer_link: LinkSpec | None = None,
    ) -> "DeviceTopology":
        """*n_devices* copies of *config*'s GPU around one host.

        Each device's host link takes the config's H2D bandwidth and
        PCIe latency. With ``shared_host_link=True`` both the links and
        the per-device config's PCIe bandwidths are divided by the
        device count (one contended root complex).
        """
        n_devices = positive_int(n_devices, "n_devices")
        if shared_host_link and n_devices > 1:
            gpu = config.gpu
            config = config.with_gpu(
                replace(
                    gpu,
                    name=f"{gpu.name}/shared-x{n_devices}",
                    h2d_bytes_per_s=gpu.h2d_bytes_per_s / n_devices,
                    d2h_bytes_per_s=gpu.d2h_bytes_per_s / n_devices,
                )
            )
        bw = config.transfer.bandwidth(Direction.H2D)
        link = LinkSpec(bytes_per_s=bw, latency_s=config.gpu.pcie_latency_s)
        return cls(
            config=config,
            n_devices=n_devices,
            host_links=(link,) * n_devices,
            peer_link=peer_link,
            shared_host_link=shared_host_link,
        )

    def without(self, lost) -> "DeviceTopology":
        """The surviving topology after losing *lost* devices (ids are
        preserved; the lost members are marked, not renumbered)."""
        return replace(self, lost=self.lost | frozenset(lost))

    # -- queries ----------------------------------------------------------------

    @property
    def surviving(self) -> tuple[int, ...]:
        """Device ids still in the pool, ascending."""
        return tuple(
            d for d in range(self.n_devices) if d not in self.lost
        )

    def _check_device(self, device: int, what: str) -> int:
        if device == HOST:
            return device
        if not 0 <= device < self.n_devices:
            raise ValidationError(
                f"{what} must be HOST or 0..{self.n_devices - 1}, got {device}"
            )
        return device

    def device_config(self, device: int) -> SystemConfig:
        """The effective single-device config for *device*."""
        self._check_device(device, "device")
        return self.config

    def host_link(self, device: int) -> LinkSpec:
        """The device<->host link of *device*."""
        self._check_device(device, "device")
        return self.host_links[device]

    def transfer_time(self, src: int, dst: int, nbytes: int) -> float:
        """Seconds to move *nbytes* from *src* to *dst* (either may be
        :data:`HOST`). Without a peer link, device-to-device transfers
        stage through the host: D2H on the source link plus H2D on the
        destination link."""
        self._check_device(src, "src")
        self._check_device(dst, "dst")
        for end in (src, dst):
            if end in self.lost:
                raise DeviceLostError(
                    end, detail="no link to a device that left the pool"
                )
        if src == dst:
            return 0.0
        if src == HOST:
            return self.host_links[dst].time(nbytes)
        if dst == HOST:
            return self.host_links[src].time(nbytes)
        if self.peer_link is not None:
            return self.peer_link.time(nbytes)
        return self.host_links[src].time(nbytes) + self.host_links[dst].time(
            nbytes
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        link = self.host_links[0]
        kind = "shared" if self.shared_host_link else "independent"
        peer = ", peer" if self.peer_link is not None else ""
        gone = f", {len(self.lost)} lost" if self.lost else ""
        return (
            f"{self.n_devices}x {self.config.gpu.name} "
            f"({kind} host links @ {link.bytes_per_s / 1e9:.1f} GB/s{peer}"
            f"{gone})"
        )


__all__ = ["HOST", "DeviceTopology", "LinkSpec"]
