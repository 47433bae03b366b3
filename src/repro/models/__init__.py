"""Analytic models from the paper's §3: every OOC factorization engine's
data-movement law, overlap crossovers and the communication lower bound.
Time is the event simulator's alone (:mod:`repro.sim`)."""

from repro.models.bounds import (
    communication_lower_bound_words,
    movement_optimality_ratio,
    qr_flops_total,
    qr_lower_bound_bytes,
)
from repro.models.movement import (
    VOLUME_LAWS,
    MovementComparison,
    blocking_d2h_exact,
    blocking_d2h_words,
    blocking_h2d_exact,
    blocking_h2d_words,
    compare_movement,
    recursive_d2h_exact,
    recursive_d2h_words,
    recursive_h2d_exact,
    recursive_h2d_words,
)
from repro.models.overlap import (
    OverlapCase,
    all_cases,
    blocking_inner_overlap,
    blocking_outer_overlap,
    machine_balance,
    overlap_threshold,
    recursive_inner_overlap,
    recursive_outer_overlap,
)

__all__ = [
    "VOLUME_LAWS",
    "MovementComparison",
    "OverlapCase",
    "all_cases",
    "blocking_d2h_exact",
    "communication_lower_bound_words",
    "movement_optimality_ratio",
    "qr_flops_total",
    "qr_lower_bound_bytes",
    "blocking_d2h_words",
    "blocking_h2d_exact",
    "blocking_h2d_words",
    "blocking_inner_overlap",
    "blocking_outer_overlap",
    "compare_movement",
    "machine_balance",
    "overlap_threshold",
    "recursive_d2h_exact",
    "recursive_d2h_words",
    "recursive_h2d_exact",
    "recursive_h2d_words",
    "recursive_inner_overlap",
    "recursive_outer_overlap",
]
