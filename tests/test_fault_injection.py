"""Fault injection: engines and drivers must not leak device memory when
an operation fails mid-stream.

A wrapper executor raises on the N-th operation; for every N up to the
run's op count, the driver must propagate the error AND leave the
allocator balanced (every engine/driver allocation freed by the
DeviceScope unwinding).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.execution.concurrent import ConcurrentNumericExecutor
from repro.execution.numeric import NumericExecutor
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.sim.trace import Trace
from tests.conftest import make_tiny_spec


class InjectedFault(RuntimeError):
    pass


class FaultyExecutor(NumericExecutor):
    """Numeric executor that raises on the Nth counted operation."""

    COUNTED = ("h2d", "d2h", "d2d", "gemm", "panel_qr", "trsm",
               "panel_lu", "panel_cholesky")

    def __init__(self, config, fail_at: int | None = None):
        super().__init__(config)
        self.fail_at = fail_at
        self.op_counter = 0

    def _tick(self):
        self.op_counter += 1
        if self.fail_at is not None and self.op_counter == self.fail_at:
            raise InjectedFault(f"injected fault at op {self.op_counter}")


for _name in FaultyExecutor.COUNTED:
    def _wrap(name):
        def method(self, *args, **kwargs):
            self._tick()
            return getattr(NumericExecutor, name)(self, *args, **kwargs)
        method.__name__ = name
        return method
    setattr(FaultyExecutor, _name, _wrap(_name))


def _config(**overrides):
    return SystemConfig(
        gpu=make_tiny_spec(1 << 20), precision=Precision.FP32, **overrides
    )


def _run(driver, needs_r: bool, ex):
    rng = np.random.default_rng(0)
    if driver in (ooc_blocking_lu, ooc_recursive_lu):
        from repro.factor.incore import diagonally_dominant

        a_np = diagonally_dominant(96, 96, seed=1)
    elif driver in (ooc_blocking_cholesky, ooc_recursive_cholesky):
        from repro.factor.incore import spd_matrix

        a_np = spd_matrix(96, seed=1)
    else:
        a_np = rng.standard_normal((96, 96)).astype(np.float32)
    a = HostMatrix.from_array(a_np.copy())
    opts = QrOptions(blocksize=32)
    if needs_r:
        r = HostMatrix.zeros(96, 96)
        return driver(ex, a, r, opts)
    return driver(ex, a, opts)


DRIVERS = [
    (ooc_recursive_qr, True),
    (ooc_blocking_qr, True),
    (ooc_blocking_lu, False),
    (ooc_recursive_lu, False),
    (ooc_blocking_cholesky, False),
    (ooc_recursive_cholesky, False),
]


@pytest.mark.parametrize("driver,needs_r", DRIVERS,
                         ids=[d.__name__ for d, _ in DRIVERS])
class TestNoLeaksOnFault:
    def test_every_failure_point_leaves_allocator_balanced(self, driver, needs_r):
        # first, count the ops of a clean run
        probe = FaultyExecutor(_config(), fail_at=None)
        _run(driver, needs_r, probe)
        probe.allocator.check_balanced()
        total_ops = probe.op_counter
        assert total_ops > 10

        # then fail at a spread of points across the run
        points = sorted({1, 2, 3, total_ops // 4, total_ops // 2,
                         3 * total_ops // 4, total_ops - 1, total_ops})
        for fail_at in points:
            if fail_at < 1:
                continue
            ex = FaultyExecutor(_config(), fail_at=fail_at)
            with pytest.raises(InjectedFault):
                _run(driver, needs_r, ex)
            # the DeviceScope unwinding must have freed everything
            ex.allocator.check_balanced()


class TestEnginesUnwind:
    def test_inner_engine_releases_on_fault(self):
        from repro.ooc.inner import run_ksplit_inner
        from repro.ooc.plan import plan_ksplit_inner

        ex = FaultyExecutor(_config(), fail_at=5)
        K, M, N = 128, 32, 32
        plan = plan_ksplit_inner(K, M, N, 32, ex.allocator.free_bytes // 4)
        a = HostMatrix.zeros(K, M)
        b = HostMatrix.zeros(K, N)
        c = HostMatrix.zeros(M, N)
        with pytest.raises(InjectedFault):
            run_ksplit_inner(ex, a.full(), b.full(), c.full(), plan)
        ex.allocator.check_balanced()

    def test_trsm_engine_releases_on_fault(self):
        from repro.ooc.trsm import plan_ooc_trsm, run_ooc_trsm

        ex = FaultyExecutor(_config(), fail_at=4)
        tri = HostMatrix.from_array(np.eye(64, dtype=np.float32))
        rhs = HostMatrix.zeros(64, 16)
        plan = plan_ooc_trsm(64, 16, 16, ex.allocator.free_bytes // 4)
        with pytest.raises(InjectedFault):
            run_ooc_trsm(ex, tri.full(), rhs.full(), rhs.full(), plan)
        ex.allocator.check_balanced()

    def test_fault_free_wrapper_matches_plain_executor(self):
        """The wrapper itself must not perturb results."""
        from repro.qr.cgs import factorization_error

        a_np = np.random.default_rng(2).standard_normal((64, 32)).astype(np.float32)
        ex = FaultyExecutor(_config(), fail_at=None)
        a = HostMatrix.from_array(a_np.copy())
        r = HostMatrix.zeros(32, 32)
        ooc_recursive_qr(ex, a, r, QrOptions(blocksize=16))
        assert factorization_error(a_np, a.data, r.data) < 1e-5


class TestTsqrPanelPath:
    """Faults inside the TSQR panel algorithm (panel_algorithm="tsqr")
    must unwind just like the default recursive-CGS panels."""

    def _tsqr_config(self):
        return _config(panel_algorithm="tsqr")

    @pytest.mark.parametrize("driver,needs_r", DRIVERS[:2],
                             ids=[d.__name__ for d, _ in DRIVERS[:2]])
    def test_tsqr_faults_leave_allocator_balanced(self, driver, needs_r):
        probe = FaultyExecutor(self._tsqr_config(), fail_at=None)
        _run(driver, needs_r, probe)
        probe.allocator.check_balanced()
        total_ops = probe.op_counter
        assert total_ops > 10

        points = sorted({1, 3, total_ops // 4, total_ops // 2,
                         3 * total_ops // 4, total_ops})
        for fail_at in points:
            ex = FaultyExecutor(self._tsqr_config(), fail_at=fail_at)
            with pytest.raises(InjectedFault):
                _run(driver, needs_r, ex)
            ex.allocator.check_balanced()

    def test_tsqr_fault_free_run_is_correct(self):
        from repro.qr.cgs import factorization_error

        a_np = np.random.default_rng(3).standard_normal((96, 96)).astype(
            np.float32
        )
        ex = FaultyExecutor(self._tsqr_config(), fail_at=None)
        a = HostMatrix.from_array(a_np.copy())
        r = HostMatrix.zeros(96, 96)
        ooc_recursive_qr(ex, a, r, QrOptions(blocksize=32))
        assert factorization_error(a_np, a.data, r.data) < 1e-5


class WorkerFaultyExecutor(ConcurrentNumericExecutor):
    """Concurrent executor whose Nth op body raises *inside its worker
    thread* — exercising cross-thread error propagation and pool drain."""

    def __init__(self, config, fail_at: int | None = None):
        super().__init__(config)
        self.fail_at = fail_at
        self.op_counter = 0

    def _issue(self, stream, *, body, **kwargs):
        self.op_counter += 1
        if self.op_counter == self.fail_at:
            original = body

            def body():
                raise InjectedFault(
                    f"injected fault in worker at op {self.op_counter}"
                ) from None

            body.__wrapped__ = original
        super()._issue(stream, body=body, **kwargs)


@pytest.mark.parametrize("driver,needs_r", DRIVERS[:2],
                         ids=[d.__name__ for d, _ in DRIVERS[:2]])
class TestWorkerFaults:
    """ISSUE satellite 3: faults fire inside worker threads; the error
    reaches the caller, the pool shuts down cleanly, and the allocator
    stays balanced."""

    def test_worker_faults_propagate_and_unwind(self, driver, needs_r):
        probe = WorkerFaultyExecutor(_config(), fail_at=None)
        try:
            _run(driver, needs_r, probe)
            probe.synchronize()
            probe.allocator.check_balanced()
            total_ops = probe.op_counter
        finally:
            probe.close()
        assert total_ops > 10

        points = sorted({1, 2, total_ops // 4, total_ops // 2,
                         3 * total_ops // 4, total_ops})
        for fail_at in points:
            ex = WorkerFaultyExecutor(_config(), fail_at=fail_at)
            try:
                with pytest.raises(InjectedFault):
                    _run(driver, needs_r, ex)
                    # late faults may only surface once the pipeline drains
                    ex.synchronize()
                # DeviceScope unwound across threads: nothing leaked
                ex.allocator.check_balanced()
                # the sticky failure keeps re-raising on further use
                with pytest.raises(InjectedFault):
                    ex.synchronize()
            finally:
                ex.close()
            for worker in ex._workers:
                worker.join(5.0)
                assert not worker.is_alive()

    def test_failed_ops_left_out_of_trace(self, driver, needs_r):
        ex = WorkerFaultyExecutor(_config(), fail_at=4)
        try:
            with pytest.raises(InjectedFault):
                _run(driver, needs_r, ex)
                ex.synchronize()
            ran = [op for op in ex.program.ops if op.scheduled]
            assert len(ran) < ex.op_counter
            Trace(ran).check_causality()
        finally:
            ex.close()
