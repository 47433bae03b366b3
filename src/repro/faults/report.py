"""What the fault plane observed and what recovery did about it."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.inject import FaultEvent


@dataclass(frozen=True)
class FaultReport:
    """Provenance of one run under fault injection.

    Attached to :class:`repro.dist.numeric.DistNumericResult` /
    :class:`repro.dist.sim.DistSimResult` (``faults``) and summarized
    into :class:`repro.serve.job.JobResult` so callers can see exactly
    which faults fired and what it cost to absorb them. ``None`` on a
    result means no injector was active — the fault-free fast path.
    """

    #: Identity of the schedule that ran (``FaultPlan.seed``).
    plan_seed: int | None
    #: Every fault that fired, in firing order.
    events: tuple[FaultEvent, ...] = ()
    #: Backoff re-executions of guarded steps after transient faults.
    retries: int = 0
    #: Device-loss recoveries performed (lineage replays).
    recoveries: int = 0
    #: Devices lost over the run, in loss order.
    devices_lost: tuple[int, ...] = ()
    #: Re-placed per-device programs that passed ``verify_program``
    #: across all recoveries (recovery refuses to resume otherwise).
    replacements_verified: int = 0
    #: Extra metadata (e.g. the final device remap), JSON-able.
    details: dict = field(default_factory=dict)

    @property
    def n_injected(self) -> int:
        return len(self.events)

    @property
    def clean(self) -> bool:
        """True when nothing fired — the run was effectively fault-free."""
        return not self.events

    def summary(self) -> str:
        """One line for CLI tables and loadgen's per-job provenance."""
        if self.clean:
            return "no faults"
        kinds = ", ".join(ev.describe() for ev in self.events[:4])
        more = "" if len(self.events) <= 4 else f" (+{len(self.events) - 4})"
        bits = [f"{self.n_injected} injected ({kinds}{more})"]
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.recoveries:
            lost = ",".join(str(d) for d in self.devices_lost)
            bits.append(
                f"{self.recoveries} recoveries (lost dev {lost}; "
                f"{self.replacements_verified} programs re-verified)"
            )
        return "; ".join(bits)


__all__ = ["FaultReport"]
