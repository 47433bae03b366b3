"""S15 — multi-device CAQR scaling bench and ``BENCH_dist.json``.

Sweeps the ``repro.dist`` simulated device pool over 1..64 devices on a
paper-size tall-skinny panel (the Table 4 regime: m in the millions,
b-width columns), records modeled makespan / speedup / per-device peak
memory / communication against the Demmel et al. lower bound, and
persists a fixed-key-order JSON document for CI trend tracking::

    PYTHONPATH=src python -m repro.bench.dist    # writes ./BENCH_dist.json

The binomial tree is the headline (meets the CAQR bound within the
documented 1.25x packed-triangle slack and gives >= 6x at 8 devices);
the flat tree rides along as the instructive bound-violating baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.bench.report import ExperimentResult, fmt_s
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.dist.sim import DistSimResult, dist_scaling_sweep
from repro.dist.tree import CAQR_SLACK
from repro.errors import ValidationError
from repro.util.tables import render_kv

#: Bumped whenever the BENCH_dist.json layout changes shape.
SCHEMA_VERSION = 1

#: Device counts of the standard sweep (1 is the speedup baseline).
DEVICE_COUNTS = (1, 8, 16, 32, 64)

#: Paper-size tall-skinny panel: 2^20 rows, b = 1024 columns. Large
#: enough that per-device slab traffic dominates fixed costs — the shape
#: where the >= 6x-at-8-devices acceptance bar is measured.
PAPER_TS_SHAPE = (1_048_576, 1_024)

#: Keys of each per-device-count row, in emitted order.
ROW_KEYS = (
    "n_devices",
    "makespan_s",
    "speedup",
    "verified",
    "peak_bytes_per_device",
    "transfer_bytes",
    "caqr_ratio",
    "meets_bound",
)


@dataclass
class DistBenchResult:
    """One scaling sweep, JSON-able with a fixed key order."""

    params: dict[str, Any]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "bench": "dist-scaling",
            "schema_version": SCHEMA_VERSION,
            "generated_by": "repro.bench.dist",
            "params": dict(self.params),
            "caqr_slack": CAQR_SLACK,
            "rows": [{k: row[k] for k in ROW_KEYS} for row in self.rows],
        }

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def row_for(self, n_devices: int) -> dict[str, Any]:
        for row in self.rows:
            if row["n_devices"] == n_devices:
                return row
        raise ValidationError(f"no sweep row for {n_devices} devices")

    def render(self) -> str:
        pairs = []
        for row in self.rows:
            pairs.append(
                (
                    f"{row['n_devices']} device"
                    + ("s" if row["n_devices"] > 1 else ""),
                    f"{fmt_s(row['makespan_s'])} ({row['speedup']:.2f}x, "
                    f"caqr {row['caqr_ratio']:.3f})",
                )
            )
        return render_kv(
            pairs,
            title=f"dist sweep: {self.params['m']}x{self.params['n']} "
            f"{self.params['tree']} tree",
        )


def _row(result: DistSimResult, baseline: DistSimResult) -> dict[str, Any]:
    return {
        "n_devices": result.n_devices,
        "makespan_s": result.makespan,
        "speedup": result.speedup_over(baseline),
        "verified": result.all_verified,
        "peak_bytes_per_device": result.peak_bytes,
        "transfer_bytes": result.transfer_bytes,
        "caqr_ratio": result.comm.caqr_ratio,
        "meets_bound": result.comm.meets_bound,
    }


def sweep_document(
    config: SystemConfig, sweep: dict[int, DistSimResult]
) -> DistBenchResult:
    """The persisted document of an already-run sweep ({P: result}).

    ``shared_host_link`` enters the params only when the sweep ran
    behind one shared host link, so default sweeps keep their layout.
    """
    baseline = sweep[min(sweep)]
    params = {
        "m": baseline.m,
        "n": baseline.n,
        "tree": baseline.tree.kind,
        "device_counts": list(sweep),
        "gpu": config.gpu.name,
    }
    if baseline.topology.shared_host_link:
        params["shared_host_link"] = True
    result = DistBenchResult(params=params)
    for p in sorted(sweep):
        result.rows.append(_row(sweep[p], baseline))
    return result


def run_dist_bench(
    config: SystemConfig = PAPER_SYSTEM,
    *,
    m: int = PAPER_TS_SHAPE[0],
    n: int = PAPER_TS_SHAPE[1],
    device_counts: tuple[int, ...] = DEVICE_COUNTS,
    tree: str = "binomial",
) -> DistBenchResult:
    """Run the scaling sweep and assemble the persisted document."""
    sweep = dist_scaling_sweep(
        config, m=m, n=n, device_counts=device_counts, tree=tree
    )
    return sweep_document(config, sweep)


def exp_dist_scaling(config: SystemConfig = PAPER_SYSTEM) -> ExperimentResult:
    """S15: multi-device CAQR scaling on a paper-size tall-skinny panel.

    The acceptance bar of the ``repro.dist`` tentpole: every per-device
    program verifies clean, the binomial tree's measured panel
    communication stays within :data:`~repro.dist.tree.CAQR_SLACK` of
    the Demmel et al. lower bound, and 8 devices deliver at least 6x
    over one.
    """
    bench = run_dist_bench(config)
    res = ExperimentResult(
        "S15", "Multi-device CAQR scaling (repro.dist, binomial tree)"
    )
    for row in bench.rows:
        res.add_row(
            f"{row['n_devices']} device" + ("s" if row["n_devices"] > 1 else ""),
            "comm-optimal tree scaling",
            f"{fmt_s(row['makespan_s'])} ({row['speedup']:.2f}x)",
            f"caqr {row['caqr_ratio']:.3f}, "
            f"peak {row['peak_bytes_per_device'] / 1e9:.2f} GB/dev",
        )
    res.add_check(
        "every per-device program verifies clean (races, lifetimes, budget)",
        all(row["verified"] for row in bench.rows),
    )
    res.add_check(
        "8 devices give >= 6x over one on the paper-size panel",
        bench.row_for(8)["speedup"] >= 6.0,
    )
    res.add_check(
        f"binomial panel communication within {CAQR_SLACK}x of the CAQR "
        "lower bound at every device count",
        all(row["meets_bound"] for row in bench.rows if row["n_devices"] > 1),
    )
    res.add_check(
        "speedup keeps growing through 64 devices",
        bench.row_for(64)["speedup"] > bench.row_for(8)["speedup"],
    )
    flat = run_dist_bench(config, device_counts=(1, 8), tree="flat")
    res.add_row(
        "flat tree, 8 devices",
        "violates bound (root hotspot)",
        f"caqr {flat.row_for(8)['caqr_ratio']:.3f}",
        "the non-optimal baseline",
    )
    res.add_check(
        "flat tree exceeds the bound at 8 devices (negative control)",
        not flat.row_for(8)["meets_bound"],
    )
    return res


def main(out: str = "BENCH_dist.json") -> DistBenchResult:
    """Run the standard sweep, print it, and persist *out*."""
    result = run_dist_bench()
    print(result.render())
    print(f"wrote {result.write(out)}")
    return result


if __name__ == "__main__":
    main()


__all__ = [
    "DEVICE_COUNTS",
    "DistBenchResult",
    "PAPER_TS_SHAPE",
    "ROW_KEYS",
    "SCHEMA_VERSION",
    "exp_dist_scaling",
    "main",
    "run_dist_bench",
    "sweep_document",
]
