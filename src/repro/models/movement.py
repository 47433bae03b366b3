"""Closed-form data-movement models of §3.2.

The paper derives, for an m-by-n matrix factorized with panel width b
(k = n / b panels), the worst-case (no-reuse) transfer volumes in *words*:

Blocking (summing its per-iteration traffic over k iterations):

    H2D:  sum_i [3mb + (2m + b)(n - ib)] = (k + 2) m n + n^2/2 - n b/2
    D2H:  sum_i [mb + b^2 + (m + b)(n - ib)] = ((k + 1) m n + n^2 + n b) / 2

Recursive (log2 k levels of GEMMs + the leaf factorizations):

    H2D:  2 (log2 k + 1) m n + m n / 2 - n b / 2
    D2H:  (log2 k) m n / 2 + n^2 / 2

(The paper's recursive H2D formula prints "mn/2 − nb/2" where its own
derivation gives the leaf-level term; we implement the formulas exactly as
printed, plus independently-derived reference counts — see
:func:`blocking_h2d_exact` etc. — that agree with the printed closed forms
for the blocking case and are hypothesis-tested against brute-force
summation.)

The headline: blocking traffic grows *linearly* in k, recursive only
*logarithmically* — so the recursive advantage widens as device memory
shrinks (larger k).

The same no-reuse accounting applied to the §6 LU and Cholesky engines
(n-by-n, see :func:`blocking_lu_exact` and its siblings) gives each
factorization its own law with the same linear-vs-logarithmic story;
:data:`VOLUME_LAWS` names every engine's law for the static verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import ValidationError
from repro.util.validation import check_divisible, positive_int


def _check(
    m: int, n: int, b: int, *, power_of_two: bool = False
) -> tuple[int, int, int, int]:
    m = positive_int(m, "m")
    n = positive_int(n, "n")
    b = positive_int(b, "b")
    check_divisible(n, b, "n")
    k = n // b
    if power_of_two and k & (k - 1):
        raise ValidationError("recursive model requires k = n/b to be a power of two")
    return m, n, b, k


# -- the paper's printed closed forms (words) ---------------------------------


def blocking_h2d_words(m: int, n: int, b: int) -> float:
    """Paper §3.2.1 host-to-device volume of blocking OOC QR (words)."""
    m, n, b, k = _check(m, n, b)
    return (k + 2) * m * n + n * n / 2 - n * b / 2


def blocking_d2h_words(m: int, n: int, b: int) -> float:
    """Paper §3.2.1 device-to-host volume of blocking OOC QR (words)."""
    m, n, b, k = _check(m, n, b)
    return ((k + 1) * m * n + n * n + n * b) / 2


def recursive_h2d_words(m: int, n: int, b: int) -> float:
    """Paper §3.2.2 host-to-device volume of recursive OOC QR (words),
    exactly as printed."""
    m, n, b, k = _check(m, n, b)
    return 2 * (math.log2(k) + 1) * m * n + m * n / 2 - n * b / 2


def recursive_d2h_words(m: int, n: int, b: int) -> float:
    """Paper §3.2.2 device-to-host volume of recursive OOC QR (words)."""
    m, n, b, k = _check(m, n, b)
    return math.log2(k) * m * n / 2 + n * n / 2


# -- independently derived exact sums (words) ----------------------------------
#
# These re-derive the per-iteration costs the paper sums, term by term, so
# tests can verify the printed closed forms against brute force and so the
# engines' measured counters have a reference with explicit assumptions.


def blocking_h2d_exact(m: int, n: int, b: int) -> int:
    """Brute-force sum of the paper's §3.2.1 per-iteration H2D terms.

    Iteration i in 1..k moves (words, no reuse):
      mb  (panel in)  +  mb (Q1 for inner)  +  m(n - ib) (A_rest for inner)
      + mb (Q1 for outer) + b(n - ib) (R12 for outer) + m(n - ib) (A_rest
      for outer).
    """
    m, n, b, k = _check(m, n, b)
    total = 0
    for i in range(1, k + 1):
        rest = n - i * b
        total += 3 * m * b + (2 * m + b) * rest
    return total


def blocking_d2h_exact(m: int, n: int, b: int) -> int:
    """Brute-force sum of the paper's §3.2.1 per-iteration D2H terms:
    mb (Q1 out) + b^2 (R11) + b(n - ib) (R12) + m(n - ib) (updated rest)."""
    m, n, b, k = _check(m, n, b)
    total = 0
    for i in range(1, k + 1):
        rest = n - i * b
        total += m * b + b * b + (m + b) * rest
    return total


def recursive_h2d_exact(m: int, n: int, b: int) -> int:
    """Recursion-tree H2D count matching the paper's §3.2.2 accounting.

    The deepest level moves the k leaf panels in (mn words total); each of
    the log2 k GEMM levels moves Q1, A2 and R12 in: at level j (counting
    the widest split as j = log2 k - 1 downward) there are 2^i updates of
    half-width n / 2^(i+1), costing 2mn + (level R12 words) overall —
    the paper writes the level cost as 2mn + 2^(i-1) b^2 summed over
    levels.
    """
    m, n, b, k = _check(m, n, b, power_of_two=True)
    total = m * n  # leaf panel move-ins
    levels = int(math.log2(k))
    for i in range(1, levels + 1):
        total += 2 * m * n + (2 ** (i - 1)) * b * b
    return total


def recursive_d2h_exact(m: int, n: int, b: int) -> int:
    """Recursion-tree D2H count: every level writes its R12 blocks
    (mn/2 per level in the paper's estimate... exactly: each level's
    updated A2 stays counted on the H2D side; what returns is Q leaves
    (mn), R12 blocks (n^2/2 total over levels) and updated halves."""
    m, n, b, k = _check(m, n, b, power_of_two=True)
    levels = int(math.log2(k))
    return levels * m * n // 2 + n * n // 2


@dataclass(frozen=True)
class MovementComparison:
    """Blocking-vs-recursive predicted volumes for one problem."""

    m: int
    n: int
    b: int
    blocking_h2d: float
    blocking_d2h: float
    recursive_h2d: float
    recursive_d2h: float

    @property
    def k(self) -> int:
        return self.n // self.b

    @property
    def h2d_ratio(self) -> float:
        """Blocking / recursive H2D volume (> 1 means recursion moves less)."""
        return self.blocking_h2d / self.recursive_h2d

    @property
    def total_ratio(self) -> float:
        return (self.blocking_h2d + self.blocking_d2h) / (
            self.recursive_h2d + self.recursive_d2h
        )


def compare_movement(m: int, n: int, b: int) -> MovementComparison:
    """Evaluate the paper's four §3.2 closed forms for one problem."""
    return MovementComparison(
        m=m,
        n=n,
        b=b,
        blocking_h2d=blocking_h2d_words(m, n, b),
        blocking_d2h=blocking_d2h_words(m, n, b),
        recursive_h2d=recursive_h2d_words(m, n, b),
        recursive_d2h=recursive_d2h_words(m, n, b),
    )


# -- the §6 extensions: LU and Cholesky on an n-by-n matrix (words) ----------
#
# Explicit per-iteration sums with panel width b, k = n/b panels. Blocking
# iteration i has panel height h = n - (i-1)b and trailing width
# t = n - ib; recursive level j (0 = widest) runs 2^j updates of
# half-width w = n / 2^(j+1). Cholesky touches only the lower trapezoid.


def blocking_lu_exact(n: int, b: int) -> int:
    """Worst-case H2D words of blocking OOC LU: per iteration the panel
    (h b), A12 for the TRSM (b t) and the trailing tiles ((h - b) t). The
    packed panel, U12 and the updated tiles go back out, so this is its
    D2H count too."""
    n, _, b, k = _check(n, n, b)
    return sum(
        (n - (i - 1) * b) * b + (b + n - i * b) * (n - i * b)
        for i in range(1, k + 1)
    )


def recursive_lu_h2d_exact(n: int, b: int) -> int:
    """Worst-case H2D words of recursive OOC LU (k a power of two): the
    leaf panels (n^2) plus, per update, the TRSM triangle (w^2/2), A12
    (w^2), the L21 rows and the C rows (n w each)."""
    n, _, b, k = _check(n, n, b, power_of_two=True)
    return n * n + sum(
        2**j * (w * w // 2 + w * w + 2 * n * w)
        for j, w in _levels(n, k)
    )


def recursive_lu_d2h_exact(n: int, b: int) -> int:
    """Worst-case D2H words of recursive OOC LU: the leaf panels (n^2)
    plus, per update, U12 (w^2) and the updated C rows (n w)."""
    n, _, b, k = _check(n, n, b, power_of_two=True)
    return n * n + sum(2**j * (w * w + n * w) for j, w in _levels(n, k))


def blocking_cholesky_h2d_exact(n: int, b: int) -> int:
    """Worst-case H2D words of blocking OOC Cholesky: per iteration the
    panel (h b) and the full trailing square (t^2, as implemented)."""
    n, _, b, k = _check(n, n, b)
    return sum(
        (n - (i - 1) * b) * b + (n - i * b) ** 2 for i in range(1, k + 1)
    )


def recursive_cholesky_h2d_exact(n: int, b: int) -> int:
    """Worst-case H2D words of recursive OOC Cholesky (k a power of two):
    the leaf trapezoids plus, per update, the L21 rows (n w), its top
    rows (w^2) and C (n w)."""
    n, _, b, k = _check(n, n, b, power_of_two=True)
    leaves = (n * n + n * b) // 2   # sum of the k panel trapezoids (n - ib) b
    return leaves + sum(2**j * (2 * n * w + w * w) for j, w in _levels(n, k))


def _levels(n: int, k: int) -> list[tuple[int, int]]:
    """``(j, w)`` per recursion level: level j has 2^j half-width-w updates."""
    return [(j, n // 2 ** (j + 1)) for j in range(int(math.log2(k)))]


def _square(law: Callable[[int, int], int]) -> Callable[[int, int, int], int]:
    """Lift an n-by-n law to the (m, n, b) signature of the QR forms."""
    return lambda m, n, b: law(n, b)


def _recursive_qr_d2h(m: int, n: int, b: int) -> float:
    """The paper's recursive D2H form counts only the per-level R12 and
    update writebacks; the one-time A <- Q leaf writeback (mn words, which
    any correct engine must perform) is omitted from its accounting, so
    the verifier's bound restores it (docs/analysis.md)."""
    return recursive_d2h_words(m, n, b) + m * n


#: The transfer-volume law of every OOC factorization engine, by engine
#: name: ``(H2D words, D2H words)``, each a function of ``(m, n, b)``.
#: QR answers to the paper's printed §3.2 forms. Cholesky has no D2H law
#: of its own: every word it writes back was read in, so its H2D law
#: bounds its D2H too (blocking LU's two counts coincide).
VOLUME_LAWS: dict[str, tuple[Callable[[int, int, int], float], ...]] = {
    "qr-blocking": (blocking_h2d_words, blocking_d2h_words),
    "qr-recursive": (recursive_h2d_words, _recursive_qr_d2h),
    "lu-blocking": (_square(blocking_lu_exact),) * 2,
    "lu-recursive": (
        _square(recursive_lu_h2d_exact), _square(recursive_lu_d2h_exact)
    ),
    "chol-blocking": (_square(blocking_cholesky_h2d_exact),) * 2,
    "chol-recursive": (_square(recursive_cholesky_h2d_exact),) * 2,
}
