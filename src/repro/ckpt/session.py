"""Driver-facing checkpoint protocol.

The factorization drivers see checkpointing as three calls at their
natural boundaries (one per blocking panel step / recursive node), inside
a ``with`` block that drains the session on every exit path:

    ck.start()                      # restore host state, learn resume point
    with ck:
        if ck.should_skip(step): ...    # completed in a previous session
        ck.step_complete(step, frontier)  # maybe persist (policy-driven)

:class:`CheckpointSession` implements them against a
:class:`~repro.ckpt.manager.CheckpointManager`; :data:`NULL_CHECKPOINT`
is the no-op used when checkpointing is off, so drivers never branch on
None. ``step_complete`` quiesces the executor (``synchronize``) before
persisting, which is what makes the saved host state a consistent cut:
every op of steps ``<= step`` has retired, no op of a later step has been
issued.

Persisting is write-behind. At the boundary the driver thread only
copies the snapshot into staging memory; one writer thread runs the
durable commit (:meth:`CheckpointManager.save`) while the factorization
goes on. At most one commit is in flight: the next snapshot first waits
for it, and a commit that failed raises there, or when the session
drains. Leaving the ``with`` block drains, so when a driver returns or
raises, every checkpoint the policy took is durable. A killed process
may therefore resume one step earlier than the last snapshot.
"""

from __future__ import annotations

import mmap
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.ckpt.manager import CheckpointManager, CheckpointStats, Snapshot
from repro.errors import CheckpointError
from repro.host.tiled import HostMatrix
from repro.obs.clock import monotonic as _monotonic


class CheckpointSession:
    """Binds a manager to one run: its executor and host matrices.

    Parameters
    ----------
    manager
        Storage and policy (the manager's config carries both).
    ex
        The executor driving the run; synchronized before every save.
    matrices
        Role-keyed host matrices (``{"a": ..., "r": ...}`` for QR,
        ``{"a": ...}`` for LU/Cholesky). The frontier-incremental save
        applies to role ``"a"``; other matrices are always copied whole.
    clock
        Injectable monotonic clock (tests drive the time trigger).
    """

    #: Role whose finalized-column frontier enables the incremental save.
    FRONTIER_ROLE = "a"

    def __init__(
        self,
        manager: CheckpointManager,
        ex,
        matrices: dict[str, HostMatrix],
        *,
        clock=_monotonic,
    ):
        self.manager = manager
        self.ex = ex
        self.matrices = matrices
        self.stats = CheckpointStats()
        self._clock = clock
        self._policy = manager.config.policy
        self.resume_step = 0
        self._last_saved_step = 0
        self._last_saved_time = clock()
        self._started = False
        # write-behind state: the writer thread, the commit in flight and
        # the staging memory snapshots are copied into (an anonymous
        # mapping, so drain() hands it back to the OS)
        self._writer: ThreadPoolExecutor | None = None
        self._pending: Future | None = None
        self._mapping: mmap.mmap | None = None
        self._staging: np.ndarray | None = None

    # -- driver protocol ---------------------------------------------------------

    def start(self) -> int:
        """Restore the latest checkpoint (if any); returns the index of
        the first step that still needs to run. Idempotent."""
        if self._started:
            return self.resume_step
        self._started = True
        obs = self.ex.obs
        restore_t0 = obs.now() if obs.enabled else 0.0
        self.resume_step = self.manager.restore(self.matrices)
        if obs.enabled:
            obs.record(
                "ckpt.restore", restore_t0, obs.now(), cat="ckpt", lane="ckpt",
                attrs={"resume_step": self.resume_step},
            )
        if self.resume_step > 0:
            self.stats.resumes += 1
            # Restore the health sentinel's escalation state: a resumed
            # run must make the same escalation decisions (e.g. keep the
            # fp32 GEMM override) or it would not be bitwise identical.
            health_state = (
                self.manager.committed.get("extra") or {}
            ).get("health")
            if health_state is not None and self.ex.health.enabled:
                self.ex.health.load_state(health_state)
        self._last_saved_step = self.resume_step
        self._last_saved_time = self._clock()
        return self.resume_step

    def should_skip(self, step: int) -> bool:
        """Whether *step* already completed in a previous session."""
        if not self._started:
            raise CheckpointError(
                "protocol", "should_skip() before start()"
            )
        if step < self.resume_step:
            self.stats.steps_skipped += 1
            return True
        return False

    def step_complete(self, step: int, frontier: int) -> None:
        """Record that 0-indexed *step* finished with the finalized-column
        *frontier*; when the policy says so, snapshots the host state and
        hands its commit to the writer thread."""
        completed = step + 1
        if not self._policy.due(
            completed - self._last_saved_step,
            self._clock() - self._last_saved_time,
        ):
            return
        # quiesce: every issued op retires, the host matrices are a
        # consistent cut of the factorization at this boundary — and the
        # sentinel's probe/escalation state is settled enough to persist
        self.ex.synchronize()
        # the staging memory is free again once the previous commit is done
        self._wait()
        obs = self.ex.obs
        t0 = obs.now() if obs.enabled else 0.0
        extra = (
            {"health": self.ex.health.state_dict()}
            if self.ex.health.enabled
            else None
        )
        snap = self.manager.snapshot(
            completed,
            frontier,
            self.matrices,
            frontiers={self.FRONTIER_ROLE: frontier},
            extra=extra,
            staging=self._staging_buffer,
        )
        parent = None
        if obs.enabled:
            obs.record(
                "ckpt.snapshot", t0, obs.now(), cat="ckpt", lane="driver",
                attrs={"step": completed, "frontier": frontier,
                       "nbytes": snap.nbytes},
            )
            parent = obs.current_id()
        if self._writer is None:
            self._writer = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="ckpt-writer"
            )
        self._pending = self._writer.submit(self._commit, snap, parent)
        self.stats.checkpoints_written += 1
        self.stats.checkpoint_bytes += snap.nbytes
        self._last_saved_step = completed
        self._last_saved_time = self._clock()

    def drain(self) -> None:
        """Block until the commit in flight (if any) is durable, then
        release the writer thread and the staging memory. Re-raises the
        error of a commit that failed. Idempotent; a later
        ``step_complete`` starts them again."""
        try:
            self._wait()
        finally:
            if self._writer is not None:
                self._writer.shutdown()
                self._writer = None
            self._release_staging()

    def __enter__(self) -> "CheckpointSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
            return
        try:
            self.drain()
        except Exception as err:
            # the driver's own error is the one to raise; keep the
            # commit's failure visible on it (notes need Python 3.11)
            add_note = getattr(exc, "add_note", None)
            if add_note is not None:
                add_note(f"a checkpoint commit also failed: {err!r}")

    # -- write-behind ------------------------------------------------------------

    def _commit(self, snap: Snapshot, parent: int | None) -> int:
        """Writer thread: the durable commit of one snapshot."""
        obs = self.ex.obs
        t0 = obs.now() if obs.enabled else 0.0
        written = self.manager.save(snap)
        if obs.enabled:
            obs.record(
                "ckpt.commit", t0, obs.now(), cat="ckpt", lane="ckpt",
                parent_id=parent,
                attrs={"step": snap.step, "frontier": snap.frontier,
                       "nbytes": written},
            )
        return written

    def _wait(self) -> None:
        """Wait for the commit in flight; re-raise its error."""
        pending, self._pending = self._pending, None
        if pending is not None:
            pending.result()

    def _staging_buffer(self, nbytes: int) -> np.ndarray:
        """Byte buffer a snapshot of *nbytes* is copied into. Snapshots
        shrink as the frontier advances, so the first one sizes the
        mapping for the whole session."""
        if self._staging is None or self._staging.size < nbytes:
            self._release_staging()
            # prefaulting in one call is ~2x cheaper than first-touch
            # faults during the copy (Linux; 0 elsewhere)
            populate = getattr(mmap, "MAP_POPULATE", 0)
            self._mapping = mmap.mmap(
                -1, max(nbytes, 1),
                flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | populate,
            )
            self._staging = np.frombuffer(self._mapping, dtype=np.uint8)
        return self._staging

    def _release_staging(self) -> None:
        self._staging = None
        mapping, self._mapping = self._mapping, None
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                # a failed commit's traceback still holds snapshot
                # views; the mapping goes with the last of them
                pass


class _NullCheckpoint:
    """No-op stand-in when checkpointing is disabled."""

    resume_step = 0
    stats = CheckpointStats()

    def start(self) -> int:
        return 0

    def should_skip(self, step: int) -> bool:
        return False

    def step_complete(self, step: int, frontier: int) -> None:
        pass

    def __enter__(self) -> "_NullCheckpoint":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: Shared no-op session (stateless; its stats stay zero by construction).
NULL_CHECKPOINT = _NullCheckpoint()
