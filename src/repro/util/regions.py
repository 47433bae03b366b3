"""Shared rectangle/interval overlap predicates.

One definition of "two regions overlap" serves every consumer — the
dynamic race detector (:mod:`repro.sim.race`), the task graph's
host-coherence edges (:mod:`repro.runtime.task`) and the static plan
verifier (:mod:`repro.analysis.verify`) — so the three can never
disagree about what constitutes a conflict.

The predicates are strict about degenerate regions: a zero-size interval
(``lo == hi``) occupies no elements and therefore overlaps nothing, and
adjacent tiles (``a1 == b0``) share no elements either. The naive
``a0 < b1 and b0 < a1`` test gets the adjacent case right but wrongly
reports an empty interval sitting strictly inside a non-empty one as an
overlap; requiring both intervals to be non-empty fixes that.
"""

from __future__ import annotations


def intervals_overlap(a0: int, a1: int, b0: int, b1: int) -> bool:
    """Whether half-open ``[a0, a1)`` and ``[b0, b1)`` share any point.

    Empty intervals (``a0 >= a1`` or ``b0 >= b1``) never overlap anything;
    adjacent intervals (``a1 == b0``) do not overlap.
    """
    return a0 < a1 and b0 < b1 and a0 < b1 and b0 < a1


def rects_overlap(
    a_rows: tuple[int, int],
    a_cols: tuple[int, int],
    b_rows: tuple[int, int],
    b_cols: tuple[int, int],
) -> bool:
    """Whether two half-open rectangles share any element.

    Each rectangle is ``(row0, row1), (col0, col1)``; a rectangle empty in
    either axis overlaps nothing.
    """
    return intervals_overlap(*a_rows, *b_rows) and intervals_overlap(
        *a_cols, *b_cols
    )
