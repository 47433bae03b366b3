"""Benchmark/experiment harness: regenerates every table and figure of the
paper's evaluation section plus the ablations and §6 projections."""

from functools import partial
from typing import Callable

from repro.bench.experiments import (
    PAPER,
    exp_gemm_timeline,
    exp_headline,
    exp_qr_timeline,
    exp_table1,
    exp_table2,
    exp_table3,
    exp_table4,
)
from repro.bench.numerics import exp_numerics_study, exp_precision_tradeoff
from repro.bench.report import Check, ExperimentResult, Row
from repro.bench.studies import (
    exp_blocksize_sensitivity,
    exp_communication_analysis,
    exp_future_hardware,
    exp_lu_cholesky_extension,
    exp_gradual_blocksize,
    exp_movement_validation,
    exp_multi_gpu_panel,
    exp_multi_gpu_scaling,
    exp_overlap_crossover,
    exp_qr_level_opt,
)


def _exp_dist_scaling() -> ExperimentResult:
    """S15. The dist stack is imported only when it runs, so importing
    ``repro.bench`` (which perfbench does for ``bench_spec``) stays light."""
    from repro.bench.dist import exp_dist_scaling

    return exp_dist_scaling()


#: Every experiment id, in report order, mapped to its zero-argument
#: runner. ``run_all``, ``repro experiments`` and the EXPERIMENTS.md
#: writeup all read this one table.
EXPERIMENTS: dict[str, Callable[[], ExperimentResult]] = {
    "T1": exp_table1,
    "T2": exp_table2,
    "T3": exp_table3,
    "T4": exp_table4,
    "S1": exp_headline,
    **{f"F{f}": partial(exp_gemm_timeline, f) for f in range(7, 12)},
    **{f"F{f}": partial(exp_qr_timeline, f) for f in range(12, 16)},
    "S2": exp_gradual_blocksize,
    "S3": exp_qr_level_opt,
    "S4": exp_movement_validation,
    "S5": exp_overlap_crossover,
    "S6": exp_future_hardware,
    "S8": exp_lu_cholesky_extension,
    "S10": exp_communication_analysis,
    "S11": exp_blocksize_sensitivity,
    "S13": exp_multi_gpu_scaling,
    "S14": exp_multi_gpu_panel,
    "S9": exp_numerics_study,
    "S12": exp_precision_tradeoff,
    "S15": _exp_dist_scaling,
}

__all__ = [
    "Check",
    "EXPERIMENTS",
    "ExperimentResult",
    "PAPER",
    "Row",
    "exp_blocksize_sensitivity",
    "exp_communication_analysis",
    "exp_future_hardware",
    "exp_lu_cholesky_extension",
    "exp_gemm_timeline",
    "exp_gradual_blocksize",
    "exp_headline",
    "exp_movement_validation",
    "exp_multi_gpu_panel",
    "exp_multi_gpu_scaling",
    "exp_numerics_study",
    "exp_precision_tradeoff",
    "exp_overlap_crossover",
    "exp_qr_level_opt",
    "exp_qr_timeline",
    "exp_table1",
    "exp_table2",
    "exp_table3",
    "exp_table4",
    "run_all",
]


def run_all() -> list[ExperimentResult]:
    """Every experiment of :data:`EXPERIMENTS`, in report order."""
    return [run() for run in EXPERIMENTS.values()]
