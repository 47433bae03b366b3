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
  ``lookahead`` bounds how far past the completion frontier the scheduler
  may run, trading overlap depth for resident working set (the DAG
  analogue of §4.2's bounded copy/compute lookahead).

Both entry points call :meth:`TaskGraph.validate` first, so a cyclic
graph raises :class:`~repro.errors.DeadlockError` immediately instead of
hanging; a stalled threaded run (a bug, or a starved worker pool) times
out into the same error rather than deadlocking the interpreter.

Determinism: every pair of conflicting tasks is ordered by a path of
dataflow edges (see :mod:`repro.runtime.task`), so tasks that can run
concurrently touch disjoint data. Results are therefore bitwise
independent of worker count, steal order, and lookahead depth — the
property the scheduler suite asserts.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Protocol

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

    def __init__(self, graph: TaskGraph, *, lookahead: int | None = None):
        if lookahead is not None and lookahead < 0:
            raise ValidationError("lookahead must be None or >= 0")
        self.graph = graph
        self.lookahead = lookahead

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
            self.graph, backend, compute_workers, self.lookahead, timeout_s,
            injector=as_injector(faults),
        )
        run.execute()
        finish = getattr(backend, "finish", None)
        if finish is not None:
            finish(self.graph)


class _ReadyQueue(deque):
    """One worker's ready queue, with the condition its worker waits on."""

    def __init__(self, lock: threading.Lock):
        super().__init__()
        self.ready = threading.Condition(lock)


class _ThreadedRun:
    """One threaded execution: shared ready-set state plus the workers.

    All scheduling state is guarded by a single lock. Workers pull from
    their queue under the lock, execute *outside* it, then re-acquire to
    retire the task and release dependents. This keeps dependency
    bookkeeping race-free while numeric bodies (which release the GIL
    inside BLAS) overlap.

    Each ready queue has its own condition on that lock. Routing a task
    wakes the queue's worker, and a compute task also wakes the compute
    peers that may steal it. Completion, failure, a deadlock timeout and
    (under ``lookahead``) a frontier advance wake every worker.
    """

    def __init__(
        self,
        graph: TaskGraph,
        backend: GraphBackend,
        compute_workers: int,
        lookahead: int | None,
        timeout_s: float,
        injector=None,
    ):
        self.graph = graph
        self.backend = backend
        self.lookahead = lookahead
        self.timeout_s = timeout_s
        self.injector = injector
        self.tasks = graph.tasks
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
        self.frontier = 0          # smallest unfinished index
        self.n_done = 0
        self.failure: BaseException | None = None
        # ready queues: one per copy engine, one deque per compute worker
        self.h2d = _ReadyQueue(self.lock)
        self.d2h = _ReadyQueue(self.lock)
        self.compute = [_ReadyQueue(self.lock) for _ in range(compute_workers)]
        self._deal = 0  # round-robin pointer for compute/mem tasks
        with self.lock:
            for i, t in enumerate(self.tasks):
                if self.indegree[i] == 0:
                    self._route(t)

    # -- routing (lock held) ----------------------------------------------------

    def _route(self, task: TileTask) -> None:
        if task.engine is EngineKind.H2D:
            self.h2d.append(task)
            self.h2d.ready.notify()
        elif task.engine is EngineKind.D2H:
            self.d2h.append(task)
            self.d2h.ready.notify()
        else:  # compute ops and allocator pseudo-tasks
            self.compute[self._deal % len(self.compute)].append(task)
            self._deal += 1
            # the owner, and the peers that may steal the task
            for queue in self.compute:
                queue.ready.notify()

    def _wake_all(self) -> None:
        for queue in (self.h2d, self.d2h, *self.compute):
            queue.ready.notify()

    def _eligible(self, task: TileTask) -> bool:
        if self.lookahead is None:
            return True
        return task.task_id - self.base <= self.frontier + self.lookahead

    def _take(self, queue: deque[TileTask], *, back: bool) -> TileTask | None:
        """Pop a runnable task, skipping over lookahead-gated ones."""
        for _ in range(len(queue)):
            task = queue.pop() if back else queue.popleft()
            if self._eligible(task):
                return task
            # put it back on the side we took it from and try the next
            if back:
                queue.appendleft(task)
            else:
                queue.append(task)
        return None

    def _pick(self, worker: int | None, queue: deque[TileTask]) -> TileTask | None:
        task = self._take(queue, back=False)
        if task is None and worker is not None:
            # work stealing: raid the *back* of a peer's deque so the
            # owner keeps its cache-warm front
            for shift in range(1, len(self.compute)):
                peer = self.compute[(worker + shift) % len(self.compute)]
                task = self._take(peer, back=True)
                if task is not None:
                    break
        return task

    # -- retirement (lock held) --------------------------------------------------

    def _retire(self, task: TileTask) -> None:
        base = self.base
        self.finished[task.task_id - base] = 1
        self.n_done += 1
        frontier = self.frontier
        while self.frontier < len(self.tasks) and self.finished[self.frontier]:
            self.frontier += 1
        for dependent in self.dependents[task.task_id - base]:
            index = dependent.task_id - base
            self.indegree[index] -= 1
            if self.indegree[index] == 0:
                self._route(dependent)
        if self.n_done == len(self.tasks) or (
            # a frontier advance may admit lookahead-gated tasks anywhere
            self.lookahead is not None and self.frontier != frontier
        ):
            self._wake_all()

    # -- worker loop -------------------------------------------------------------

    def _worker(self, worker: int | None, queue: _ReadyQueue) -> None:
        n = len(self.tasks)
        while True:
            with self.lock:
                task = None
                while True:
                    if self.failure is not None or self.n_done == n:
                        return
                    task = self._pick(worker, queue)
                    if task is not None:
                        break
                    # an idle queue is not a stall: the run is stuck only
                    # when no task retired during a whole timeout window
                    progress = self.n_done
                    if not queue.ready.wait(self.timeout_s) and self.n_done == progress:
                        stuck = [
                            t for i, t in enumerate(self.tasks)
                            if not self.finished[i]
                        ]
                        self.failure = DeadlockError(stuck)
                        self._wake_all()
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
                    if self.failure is None:
                        self.failure = exc
                    self._wake_all()
                return
            with self.lock:
                self._retire(task)

    def execute(self) -> None:
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
