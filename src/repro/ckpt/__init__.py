"""repro.ckpt — crash-consistent checkpoint/restart for OOC factorizations.

Public surface:

* :class:`CheckpointConfig` / :class:`CheckpointPolicy` — what users pass
  as ``checkpoint=`` to :func:`repro.qr.api.ooc_qr`,
  :func:`repro.factor.api.ooc_lu` and :func:`repro.factor.api.ooc_cholesky`;
* :class:`CheckpointManager` — atomic save/load/restore of progress
  (``snapshot`` copies a step's state out, ``save`` commits it);
* :class:`CheckpointSession` — the driver-facing protocol binding a
  manager to one run (executor + host matrices);
* :func:`run_fingerprint` — the run-identity digest a manifest is bound to;
* :class:`CheckpointStats` — counters a checkpointed run reports.

See docs/checkpoint.md for format, atomicity and resume semantics.
"""

from repro.ckpt.manager import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointPolicy,
    CheckpointStats,
    run_fingerprint,
)
from repro.ckpt.session import NULL_CHECKPOINT, CheckpointSession

__all__ = [
    "CheckpointConfig",
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointSession",
    "CheckpointStats",
    "NULL_CHECKPOINT",
    "run_fingerprint",
]
