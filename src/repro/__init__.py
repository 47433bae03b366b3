"""repro: reproduction of "Recursion Brings Speedup to Out-of-Core
TensorCore-based Linear Algebra Algorithms" (Zhang & Wu, ICPP 2021).

Public API highlights
---------------------
* :func:`repro.qr.api.ooc_qr` — out-of-core QR (blocking or recursive).
* :mod:`repro.config` — system configurations (V100 32/16 GB, A100, ...).
* :mod:`repro.execution` — numeric / simulated executors and the shared run path.
* :mod:`repro.bench.experiments` — regenerate every table and figure of
  the paper's evaluation section.
"""

__version__ = "1.0.0"

from repro.config import PAPER_SYSTEM, PAPER_SYSTEM_16GB, SystemConfig

__all__ = ["PAPER_SYSTEM", "PAPER_SYSTEM_16GB", "SystemConfig", "__version__"]
