"""Dynamic schedulers for tile-task graphs.

Two execution strategies over a validated :class:`TaskGraph`:

* :meth:`DagScheduler.run_serial` — emission order on the calling thread.
  Because the builder records tasks in exactly the order the eager
  executor would have run them, a serial replay is instruction-identical
  to the eager serial run (the differential suite's baseline).
* :meth:`DagScheduler.run_threaded` — dynamic dataflow execution with one
  worker per copy engine (H2D, D2H) and ``compute_workers`` compute
  threads. A central ready set tracks tile readiness by indegree
  counting; compute tasks are round-robin dealt to per-worker deques and
  idle compute workers *steal* from the back of their peers' deques.
  Allocator pseudo-tasks run inline, wherever they become ready.
  Every worker runs under the caller's floating-point error state
  (``np.errstate``, which numpy keeps per thread), so an op body raises
  where the serial run raises.

Both entry points call :meth:`TaskGraph.validate` first, so a cyclic
graph raises :class:`~repro.errors.DeadlockError` immediately instead of
hanging; a stalled threaded run (a bug, or a starved worker pool) times
out into the same error rather than deadlocking the interpreter.

Determinism: every pair of conflicting tasks is ordered by a path of
dataflow edges (see :mod:`repro.runtime.task`), so tasks that can run
concurrently touch disjoint data. Results are therefore bitwise
independent of worker count and steal order — the property the
scheduler suite asserts.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Protocol

import numpy as np

from repro.errors import DeadlockError, ValidationError
from repro.faults.inject import as_injector
from repro.runtime.task import TaskGraph, TileTask
from repro.sim.ops import EngineKind

#: Bound on how long a worker may wait for a runnable task before the run
#: is declared stuck.
_WAIT_TIMEOUT_S = 600.0


class GraphBackend(Protocol):
    """What schedulers require of an execution backend."""

    def execute(self, task: TileTask) -> None: ...  # pragma: no cover


class DagScheduler:
    """Schedules one :class:`TaskGraph` onto a :class:`GraphBackend`."""

    def __init__(self, graph: TaskGraph):
        self.graph = graph

    def validate(self) -> None:
        self.graph.validate()

    # -- serial -----------------------------------------------------------------

    def run_serial(self, backend: GraphBackend, *, faults=None) -> None:
        self.validate()
        injector = as_injector(faults)
        for task in self.graph.tasks:
            if injector is not None:
                # per-task guard (site "task", coordinate = task_id);
                # the scheduler has no retry/recovery of its own — an
                # injected fault surfaces loudly to the caller
                injector.check("task", op_index=task.task_id)
            backend.execute(task)
        finish = getattr(backend, "finish", None)
        if finish is not None:
            finish(self.graph)

    # -- threaded ---------------------------------------------------------------

    def run_threaded(
        self,
        backend: GraphBackend,
        *,
        compute_workers: int = 2,
        timeout_s: float = _WAIT_TIMEOUT_S,
        faults=None,
    ) -> None:
        if compute_workers < 1:
            raise ValidationError("compute_workers must be >= 1")
        self.validate()
        run = _ThreadedRun(
            self.graph, backend, compute_workers, timeout_s,
            injector=as_injector(faults),
        )
        run.execute()
        finish = getattr(backend, "finish", None)
        if finish is not None:
            finish(self.graph)


class _ReadyQueue(deque):
    """One worker's ready queue, the condition its worker waits on, and
    whether that worker is waiting (so routing wakes only a sleeper)."""

    def __init__(self, lock: threading.Lock):
        super().__init__()
        self.ready = threading.Condition(lock)
        self.idle = False

    def wake(self) -> None:
        if self.idle:
            self.ready.notify()


class _ThreadedRun:
    """One threaded execution: shared ready-set state plus the workers.

    All scheduling state is guarded by a single lock, held once per task:
    a worker executes a task *outside* the lock, then in one hold retires
    it, releases its dependents and picks its next task. Numeric bodies
    (which release the GIL inside BLAS) overlap, and dependency
    bookkeeping stays race-free.

    Allocator pseudo-tasks carry no kernel: each runs inline, under the
    lock, wherever it becomes ready (a retiring worker, or the caller
    while seeding the run), after the same per-task fault check as every
    other task, and is retired on the spot.

    Each ready queue has its own condition on that lock. Routing a task
    wakes the queue's worker if it sleeps, and a compute task also wakes
    a sleeping compute peer that may steal it. Completion, failure and a
    deadlock timeout wake every worker.
    """

    def __init__(
        self,
        graph: TaskGraph,
        backend: GraphBackend,
        compute_workers: int,
        timeout_s: float,
        injector=None,
    ):
        self.graph = graph
        self.backend = backend
        self.timeout_s = timeout_s
        self.injector = injector
        self.tasks = graph.tasks
        # numpy keeps the floating-point error state per thread: workers
        # adopt the caller's, so op bodies raise where serial ones do
        self.fp_errors = np.geterr()
        # tasks are indexed by task_id - base; edges into earlier
        # segments were satisfied before this run
        self.base = base = graph.base
        n = len(self.tasks)
        self.indegree = [0] * n
        self.dependents: list[list[TileTask]] = [[] for _ in range(n)]
        for t in self.tasks:
            for dep in t.deps:
                if dep.task_id >= base:
                    self.indegree[t.task_id - base] += 1
                    self.dependents[dep.task_id - base].append(t)
        self.lock = threading.Lock()
        self.finished = bytearray(n)
        self.n_done = 0
        self.failure: BaseException | None = None
        # ready queues: one per copy engine, one deque per compute worker
        self.h2d = _ReadyQueue(self.lock)
        self.d2h = _ReadyQueue(self.lock)
        self.compute = [_ReadyQueue(self.lock) for _ in range(compute_workers)]
        self._deal = 0  # round-robin pointer for compute tasks

    # -- routing (lock held) ----------------------------------------------------

    def _route(self, task: TileTask) -> None:
        if task.engine is EngineKind.H2D:
            self.h2d.append(task)
            self.h2d.wake()
        elif task.engine is EngineKind.D2H:
            self.d2h.append(task)
            self.d2h.wake()
        else:
            owner = self.compute[self._deal % len(self.compute)]
            self._deal += 1
            owner.append(task)
            # its owner if it sleeps, else a sleeping peer that may steal it
            for queue in (owner, *self.compute):
                if queue.idle:
                    queue.ready.notify()
                    break

    def _wake_all(self) -> None:
        for queue in (self.h2d, self.d2h, *self.compute):
            queue.ready.notify()

    def _fail(self, exc: BaseException) -> None:
        """Latch the first failure and stop every worker."""
        if self.failure is None:
            self.failure = exc
        self._wake_all()

    def _pick(self, worker: int | None, queue: deque[TileTask]) -> TileTask | None:
        if queue:
            return queue.popleft()
        if worker is not None:
            # work stealing: raid the *back* of a peer's deque so the
            # owner keeps its cache-warm front
            for shift in range(1, len(self.compute)):
                peer = self.compute[(worker + shift) % len(self.compute)]
                if peer:
                    return peer.pop()
        return None

    # -- retirement (lock held) --------------------------------------------------

    def _release(self, ready: list[TileTask]) -> None:
        """Route every task of *ready*; an allocator task runs here and is
        retired at once, which may append more tasks to *ready*."""
        for task in ready:
            if not task.mem:
                self._route(task)
                continue
            try:
                if self.injector is not None:
                    self.injector.check("task", op_index=task.task_id)
                self.backend.execute(task)
            except BaseException as exc:  # noqa: BLE001 - latched + re-raised
                self._fail(exc)
                return
            self._retire(task, ready)
        if self.n_done == len(self.tasks):
            self._wake_all()

    def _retire(self, task: TileTask, ready: list[TileTask]) -> None:
        """Mark *task* done and append the dependents it makes ready."""
        base = self.base
        self.finished[task.task_id - base] = 1
        self.n_done += 1
        indegree = self.indegree
        for dependent in self.dependents[task.task_id - base]:
            index = dependent.task_id - base
            indegree[index] -= 1
            if indegree[index] == 0:
                ready.append(dependent)

    # -- worker loop -------------------------------------------------------------

    def _worker(self, worker: int | None, queue: _ReadyQueue) -> None:
        with np.errstate(**self.fp_errors):
            self._work(worker, queue)

    def _work(self, worker: int | None, queue: _ReadyQueue) -> None:
        n = len(self.tasks)
        task: TileTask | None = None
        while True:
            with self.lock:
                if task is not None:
                    # retire the finished task and pick the next in one hold
                    ready: list[TileTask] = []
                    self._retire(task, ready)
                    self._release(ready)
                while True:
                    if self.failure is not None or self.n_done == n:
                        return
                    task = self._pick(worker, queue)
                    if task is not None:
                        break
                    # an idle queue is not a stall: the run is stuck only
                    # when no task retired during a whole timeout window
                    progress = self.n_done
                    queue.idle = True
                    woken = queue.ready.wait(self.timeout_s)
                    queue.idle = False
                    if not woken and self.n_done == progress:
                        stuck = [
                            t for i, t in enumerate(self.tasks)
                            if not self.finished[i]
                        ]
                        self._fail(DeadlockError(stuck))
                        return
            try:
                if self.injector is not None:
                    # same per-task guard as the serial path; the
                    # injector is thread-safe and the failure latch
                    # surfaces the fault like any backend error
                    self.injector.check("task", op_index=task.task_id)
                self.backend.execute(task)
            except BaseException as exc:  # noqa: BLE001 - latched + re-raised
                with self.lock:
                    self._fail(exc)
                return

    def execute(self) -> None:
        # seed the run from the whole initial ready set, built before any
        # of it is released: an inline allocator task retired mid-scan
        # would otherwise make a later-scanned task ready twice
        with self.lock:
            self._release(
                [t for i, t in enumerate(self.tasks) if self.indegree[i] == 0]
            )
        if self.failure is None and self.n_done < len(self.tasks):
            threads = [
                threading.Thread(
                    target=self._worker, args=(None, self.h2d), name="dag-h2d"
                ),
                threading.Thread(
                    target=self._worker, args=(None, self.d2h), name="dag-d2h"
                ),
            ]
            threads.extend(
                threading.Thread(
                    target=self._worker,
                    args=(i, self.compute[i]),
                    name=f"dag-compute-{i}",
                )
                for i in range(len(self.compute))
            )
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if self.failure is not None:
            raise self.failure


__all__ = ["DagScheduler", "GraphBackend"]
