"""The four workloads: seeded inputs, timed loops and correctness checks.

A *batch* workload (``qr-tall``, ``square-dag``, ``qr-tall-ckpt``) is one
caller running a fixed round of ``ooc_*`` calls back to back until the
time budget is spent (a closed loop). ``serve-mixed`` is an open loop: a
generator thread sends a precomputed Poisson schedule of jobs into
``FactorService`` and never waits for results before sending.

Every output is checked. The first output of each call kind gets the full
residual check; later outputs of the same call must be bitwise equal to
it. Serve results are residual-checked, cache hits must equal the job
they repeat, and a sample is compared bitwise with a direct ``ooc_*`` call
on ``FactorService.job_config(spec)``.
"""

from __future__ import annotations

import gc
import inspect
import itertools
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.bench.concurrency import bench_spec
from repro.ckpt import CheckpointConfig, CheckpointPolicy
from repro.config import SystemConfig
from repro.errors import ReproError
from repro.factor.api import ooc_cholesky, ooc_lu
from repro.factor.incore import diagonally_dominant, lu_unpack, spd_matrix
from repro.health.options import HealthOptions
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions
from repro.serve import FactorService, JobSpec

from perfbench.layers import median

#: Checked-output limits for fp16-input / fp32-accumulate factorizations,
#: several times the worst residual seen on Gaussian, diagonally dominant
#: and SPD inputs at every benchmark size. ||I - Q^T Q||_F sums n^2
#: rounding terms, so its limit grows with the column count n.
BACKWARD_TOL = 1e-3
ORTH_TOL_PER_COLUMN = 1e-4
GEMM_TOL = 1e-2

#: Rounds every batch phase runs even when its time budget is shorter.
MIN_ROUNDS = 3


def entry_kwargs(fn: Callable, **kwargs) -> dict:
    """The keyword arguments *fn* still accepts: options such as
    ``runtime=`` or ``concurrency=`` may be retired by later refactors."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in kwargs.items() if k in params}


def tc_config(device_bytes: int) -> SystemConfig:
    """fp16 TensorCore emulation on a capped device that forces OOC."""
    return SystemConfig(gpu=bench_spec(device_bytes), precision=Precision.TC_FP16)


@dataclass(frozen=True)
class Scale:
    """Problem sizes; ``FULL`` is what the benchmark runs, ``TINY`` is for
    the benchmark's own smoke tests."""

    tall: tuple[int, int, int]          # m, n, b
    tall_device: int
    square: tuple[int, int]             # n, b
    square_device: int
    serve_sizes: tuple[int, int, int]   # small, medium, large edge
    serve_b: int
    serve_device: int
    serve_rate: float                   # offered jobs/s
    warm: tuple[int, int, int]          # warm-up m, n, b


FULL = Scale(
    tall=(16384, 256, 64), tall_device=8 << 20,
    square=(1024, 128), square_device=2 << 20,
    serve_sizes=(512, 768, 1024), serve_b=128, serve_device=64 << 20,
    serve_rate=4.0, warm=(512, 64, 32),
)
TINY = Scale(
    tall=(1024, 64, 16), tall_device=128 << 10,
    square=(128, 32), square_device=32 << 10,
    serve_sizes=(64, 96, 128), serve_b=32, serve_device=4 << 20,
    serve_rate=40.0, warm=(128, 32, 16),
)


# -- correctness ---------------------------------------------------------------


class Checker:
    """Residual and bitwise checks; keeps the worst errors seen."""

    def __init__(self):
        self.backward = 0.0
        self.orth = 0.0
        self.failures: list[str] = []

    def _judge(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok

    def _backward(self, a: np.ndarray, approx: np.ndarray, what: str) -> bool:
        a64 = a.astype(np.float64)
        err = float(np.linalg.norm(a64 - approx) / np.linalg.norm(a64))
        self.backward = max(self.backward, err)
        return self._judge(err <= BACKWARD_TOL, f"{what}: backward error {err:.3g}")

    def qr(self, a: np.ndarray, q: np.ndarray, r: np.ndarray, what: str) -> bool:
        q64 = q.astype(np.float64)
        orth = float(np.linalg.norm(np.eye(q.shape[1]) - q64.T @ q64))
        self.orth = max(self.orth, orth)
        ok = self._backward(a, q64 @ r.astype(np.float64), what)
        limit = ORTH_TOL_PER_COLUMN * q.shape[1]
        return self._judge(orth <= limit, f"{what}: orthogonality {orth:.3g}") and ok

    def lu(self, a: np.ndarray, packed: np.ndarray, what: str) -> bool:
        lower, upper = lu_unpack(packed)
        return self._backward(
            a, lower.astype(np.float64) @ upper.astype(np.float64), what
        )

    def cholesky(self, a: np.ndarray, packed: np.ndarray, what: str) -> bool:
        low = np.tril(packed).astype(np.float64)
        return self._backward(a, low @ low.T, what)

    def gemm(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, what: str) -> bool:
        ref = a.astype(np.float64).T @ b.astype(np.float64)
        err = float(np.linalg.norm(c - ref) / np.linalg.norm(ref))
        return self._judge(err <= GEMM_TOL, f"{what}: gemm error {err:.3g}")

    def same(self, ref: dict, out: dict, what: str) -> bool:
        equal = ref.keys() == out.keys() and all(
            np.array_equal(ref[k], out[k]) for k in ref
        )
        return self._judge(equal, f"{what}: not bitwise equal to reference")


# -- timed operations ----------------------------------------------------------


@dataclass
class Outcome:
    """One timed operation: a batch call or a serve job."""

    kind: str                 # qr | lu | cholesky | gemm
    label: str
    turnaround_s: float       # scheduled start to result
    ok: bool
    lag_s: float = 0.0        # how late the operation was started
    run_s: float = 0.0        # execution time (serve: inside the service)
    executed: bool = True     # False for serve cache hits
    resubmission: bool = False
    devices: int = 1


@dataclass
class Phase:
    """What one timed phase measured."""

    outcomes: list[Outcome]
    #: Wall seconds the goodput is taken over.
    wall_s: float
    #: Timed operations per-layer sums are divided by (rounds or jobs).
    n_ops: int
    #: Windows of the timed calls on the recorder's clock (traced only).
    windows: list[tuple[float, float]] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


def _clock(rec) -> Callable[[], float]:
    return rec.now if rec is not None else time.perf_counter


@dataclass
class Call:
    """One call of a batch round. ``run(rec, clock)`` returns the outputs,
    and the call's start and end on *clock*."""

    kind: str
    label: str
    run: Callable[[Any, Callable], tuple[dict, float, float]]
    check: Callable[[Checker, dict], bool]


class BatchWorkload:
    """A round of calls repeated back to back (closed loop, one caller)."""

    def __init__(self, calls: list[Call], qr_spec: dict, qr_shape: tuple[int, int]):
        self.calls = calls
        #: ``ooc_qr`` keyword arguments of the round's QR call, for sim runs.
        self.qr_spec = qr_spec
        self.qr_shape = qr_shape
        self.qr_label = calls[0].label

    def run_phase(self, seconds: float, checker: Checker, rec=None,
                  phase: int = 0) -> Phase:
        clock = _clock(rec)
        outcomes: list[Outcome] = []
        windows: list[tuple[float, float]] = []
        refs: dict[str, dict] = {}
        deadline = time.perf_counter() + seconds
        rounds = 0
        ready = clock()
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for call in self.calls:
                outputs, start, end = call.run(rec, clock)
                if call.label not in refs:
                    ok = call.check(checker, outputs)
                    refs[call.label] = outputs
                else:
                    ok = checker.same(refs[call.label], outputs, call.label)
                outcomes.append(Outcome(
                    call.kind, call.label, end - start, ok,
                    lag_s=start - ready, run_s=end - start,
                ))
                windows.append((start, end))
                # free reference cycles now, not at a random later call:
                # the peak resident memory then repeats from run to run
                gc.collect()
                ready = clock()
            rounds += 1
        return Phase(
            outcomes,
            wall_s=sum(o.turnaround_s for o in outcomes),
            n_ops=rounds,
            windows=windows,
        )


def _timed(fn: Callable, clock: Callable) -> tuple[Any, float, float]:
    start = clock()
    result = fn()
    return result, start, clock()


def square_gaussian(rng, n: int) -> np.ndarray:
    """Gaussian plus 2 sqrt(n) I: a square QR input with a condition number
    of a few units, so classic Gram-Schmidt in fp16 stays orthogonal
    (a plain square Gaussian has condition number ~n)."""
    a = rng.standard_normal((n, n), dtype=np.float32)
    a[np.diag_indices(n)] += np.float32(2.0 * np.sqrt(n))
    return a


def _qr_call(a, label: str, **kwargs) -> Call:
    def run(rec, clock):
        res, start, end = _timed(
            lambda: ooc_qr(a, **entry_kwargs(ooc_qr, **kwargs, **_obs(rec))),
            clock,
        )
        return {"q": res.q, "r": res.r}, start, end

    return Call(
        "qr", label, run,
        lambda chk, out: chk.qr(a, out["q"], out["r"], label),
    )


def _obs(rec) -> dict:
    return {"obs": rec} if rec is not None else {}


def qr_tall(seed: int, scale: Scale, out_dir: Path) -> BatchWorkload:
    """Recursive QR of a tall Gaussian matrix, serial, legacy runtime."""
    m, n, b = scale.tall
    cfg = tc_config(scale.tall_device)
    a = np.random.default_rng(seed).standard_normal((m, n), dtype=np.float32)
    spec = dict(method="recursive", config=cfg, blocksize=b)
    _warm_qr(scale, cfg)
    call = _qr_call(a, f"qr {m}x{n}", **spec)
    return BatchWorkload([call], spec, (m, n))


def qr_tall_ckpt(seed: int, scale: Scale, out_dir: Path) -> BatchWorkload:
    """qr-tall with a checkpoint every step and health monitoring."""
    m, n, b = scale.tall
    cfg = tc_config(scale.tall_device)
    a = np.random.default_rng(seed).standard_normal((m, n), dtype=np.float32)
    options = QrOptions(blocksize=b, health=HealthOptions(mode="monitor"))
    ckpt_root = out_dir / "ckpt"
    counter = itertools.count()
    _warm_qr(scale, cfg, options=replace(options, blocksize=scale.warm[2]),
             ckpt_dir=ckpt_root / "warm")

    def run(rec, clock):
        directory = ckpt_root / f"run-{next(counter)}"
        ckpt = CheckpointConfig(directory, policy=CheckpointPolicy(every_steps=1))
        try:
            res, start, end = _timed(
                lambda: ooc_qr(a, **entry_kwargs(
                    ooc_qr, method="recursive", config=cfg, options=options,
                    checkpoint=ckpt, **_obs(rec),
                )),
                clock,
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return {"q": res.q, "r": res.r}, start, end

    label = f"qr {m}x{n} ckpt"
    call = Call("qr", label, run, lambda chk, out: chk.qr(a, out["q"], out["r"], label))
    spec = dict(method="recursive", config=cfg, blocksize=b)
    return BatchWorkload([call], spec, (m, n))


def square_dag(seed: int, scale: Scale, out_dir: Path) -> BatchWorkload:
    """DAG-runtime threaded QR, then LU and Cholesky, on square inputs."""
    n, b = scale.square
    cfg = tc_config(scale.square_device)
    rng = np.random.default_rng(seed)
    a_qr = square_gaussian(rng, n)
    a_lu = diagonally_dominant(n, n, seed=seed)
    a_chol = spd_matrix(n, seed=seed)
    qr_spec = dict(method="recursive", config=cfg, blocksize=b, runtime="dag")
    _warm_qr(scale, cfg, runtime="dag", concurrency="threads")
    _warm_factor(scale, cfg)

    def factor_call(fn, kind: str, a: np.ndarray, check) -> Call:
        label = f"{kind} {n}x{n}"

        def run(rec, clock):
            res, start, end = _timed(
                lambda: fn(a, **entry_kwargs(fn, config=cfg, blocksize=b)), clock
            )
            return {"packed": res.packed}, start, end

        return Call(kind, label, run,
                    lambda chk, out: check(chk, a, out["packed"], label))

    calls = [
        _qr_call(a_qr, f"qr {n}x{n} dag", concurrency="threads", **qr_spec),
        factor_call(ooc_lu, "lu", a_lu, Checker.lu),
        factor_call(ooc_cholesky, "cholesky", a_chol, Checker.cholesky),
    ]
    return BatchWorkload(calls, qr_spec, (n, n))


def _warm_qr(scale: Scale, cfg: SystemConfig, *, ckpt_dir: Path | None = None,
             **kwargs) -> None:
    """One small call: lazy imports and first-call costs land in set-up."""
    m, n, b = scale.warm
    a = np.random.default_rng(0).standard_normal((m, n), dtype=np.float32)
    if ckpt_dir is not None:
        kwargs["checkpoint"] = CheckpointConfig(
            ckpt_dir, policy=CheckpointPolicy(every_steps=1)
        )
    else:
        kwargs.setdefault("blocksize", b)
    try:
        ooc_qr(a, **entry_kwargs(ooc_qr, method="recursive", config=cfg, **kwargs))
    finally:
        if ckpt_dir is not None:
            shutil.rmtree(ckpt_dir, ignore_errors=True)


def _warm_factor(scale: Scale, cfg: SystemConfig) -> None:
    m, _n, b = scale.warm
    ooc_lu(diagonally_dominant(m, m, seed=0), config=cfg, blocksize=b)
    ooc_cholesky(spd_matrix(m, seed=0), config=cfg, blocksize=b)


# -- serve-mixed ---------------------------------------------------------------


#: One cycle of the job stream. ``("again", k)`` resubmits the job from
#: slot *k* of the previous cycle (this cycle's on the first), which the
#: result cache should serve. Shares: 2/10 resubmissions, 2/10 jobs with
#: a loose tolerance (the precision pass runs), 1/10 ``devices=2`` QR.
SLOTS: list[tuple] = [
    ("qr", "large", "medium", {}),
    ("gemm", "large", "medium", {}),
    ("lu", "medium", None, {}),
    ("cholesky", "large", None, {}),
    ("qr", "medium", "medium", {"tolerance": 0.5}),
    ("again", 0),
    ("qr", "large", "narrow", {"devices": 2}),
    ("lu", "small", None, {"tolerance": 0.5}),
    ("cholesky", "medium", None, {}),
    ("again", 2),
]


@dataclass
class Arrival:
    """One scheduled send."""

    at_s: float
    spec: JobSpec
    resubmission: bool
    #: Index of the arrival whose result a resubmission must equal.
    original: int | None = None


class ServeWorkload:
    """Open-loop Poisson job stream into ``FactorService`` (one generator)."""

    def __init__(self, seed: int, scale: Scale, seconds: float, phases: int):
        self.scale = scale
        self.cfg = tc_config(scale.serve_device)
        self.opts = QrOptions(blocksize=scale.serve_b)
        small, medium, large = scale.serve_sizes
        self._edge = {
            "small": small, "medium": medium, "large": large, "narrow": small // 2,
        }
        #: One job stream per timed phase, generated before timing.
        self.streams = [self._stream(seed, seconds, phase) for phase in range(phases)]
        plain_qr = next(a.spec for a in self.streams[0] if _is_plain_qr(a.spec))
        self.qr_label = plain_qr.label()
        self.qr_shape = plain_qr.shapes()[0]
        with FactorService(self.cfg, n_workers=2, verify_plans=True) as svc:
            self._warm(svc)
            #: ``ooc_qr`` arguments of the plain QR job on its exact grant.
            self.qr_spec = dict(method=plain_qr.method, options=plain_qr.options,
                                config=svc.job_config(plain_qr))

    # -- inputs -----------------------------------------------------------------

    def _job(self, rng, slot: tuple) -> JobSpec:
        kind, rows_key, cols_key, extra = slot
        rows = self._edge[rows_key]
        if kind in ("qr", "gemm"):
            cols = self._edge[cols_key]
            a = (
                square_gaussian(rng, rows) if rows == cols
                else rng.standard_normal((rows, cols), dtype=np.float32)
            )
            operands = (a,)
            if kind == "gemm":
                operands = (a, rng.standard_normal((rows, cols // 2), dtype=np.float32))
        elif kind == "lu":
            operands = (diagonally_dominant(rows, rows, seed=int(rng.integers(1 << 30))),)
        else:
            operands = (spd_matrix(rows, seed=int(rng.integers(1 << 30))),)
        return JobSpec(kind, operands, options=self.opts, **extra)

    def _stream(self, seed: int, seconds: float, phase: int) -> list[Arrival]:
        rng = np.random.default_rng([seed, phase])
        n_jobs = max(len(SLOTS), round(self.scale.serve_rate * seconds))
        # a Poisson process conditioned on its count: sorted uniform times
        times = np.sort(rng.uniform(0.0, seconds, n_jobs))
        arrivals: list[Arrival] = []
        for i, at in enumerate(times):
            cycle, pos = divmod(i, len(SLOTS))
            slot = SLOTS[pos]
            if slot[0] == "again":
                src = (cycle - 1 if cycle else cycle) * len(SLOTS) + slot[1]
                arrivals.append(Arrival(float(at), arrivals[src].spec, True, src))
            else:
                arrivals.append(Arrival(float(at), self._job(rng, slot), False))
        return arrivals

    def _warm(self, svc: FactorService) -> None:
        """One small job of every variant through a started service."""
        m, n, b = self.scale.warm
        rng = np.random.default_rng(0)
        opts = QrOptions(blocksize=b)
        a = rng.standard_normal((m, n), dtype=np.float32)
        specs = [
            JobSpec("qr", (a,), options=opts),
            JobSpec("qr", (a,), options=opts, tolerance=0.5),
            JobSpec("qr", (a,), options=opts, devices=2),
            JobSpec("gemm", (a, a), options=opts),
            JobSpec("lu", (diagonally_dominant(n, n, seed=0),), options=opts),
            JobSpec("cholesky", (spd_matrix(n, seed=0),), options=opts),
        ]
        for handle in [svc.submit(s) for s in specs]:
            handle.result(timeout=120)

    # -- the timed stream ---------------------------------------------------------

    def run_phase(self, seconds: float, checker: Checker, rec=None,
                  phase: int = 0) -> Phase:
        stream = self.streams[phase]
        clock = _clock(rec)
        svc = FactorService(
            self.cfg, queue_limit=4 * len(stream),
            **entry_kwargs(FactorService, n_workers=2, verify_plans=True, obs=rec),
        )
        sent: list[Sent] = []
        failed_submits: list[Arrival] = []
        try:
            t0 = clock()
            for index, arrival in enumerate(stream):
                due = t0 + arrival.at_s
                wait = due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent_at = clock()
                try:
                    handle = svc.submit(arrival.spec)
                except ReproError as exc:
                    checker.failures.append(f"{arrival.spec.label()}: refused: {exc}")
                    failed_submits.append(arrival)
                    continue
                sent.append(Sent(index, arrival, handle, due, sent_at, clock()))
            svc.drain(timeout=150)
            t_end = clock()
            snapshot = svc.snapshot_metrics()
        finally:
            svc.close()
        outcomes = _collect(sent, checker)
        outcomes += [
            Outcome(a.spec.kind, a.spec.label(), 0.0, False, devices=a.spec.devices)
            for a in failed_submits
        ]
        for j in _check_direct(sent, checker, svc):
            outcomes[j].ok = False
        executed = [o for o in outcomes if o.executed and o.ok]
        resubmitted = [o for o in outcomes if o.resubmission]
        lags = [s.sent_at - s.due for s in sent]
        extra = {
            "serve.queue_wait_s": median(
                s.handle.wait_s for s in sent if not s.handle.cache_hit
            ),
            "serve.run_s": median(o.run_s for o in executed),
            "serve.cache_hit_frac": (
                sum(not o.executed for o in resubmitted) / len(resubmitted)
                if resubmitted else 0.0
            ),
            "serve.retries": float(snapshot["job_retries"]["value"]),
            "serve.queue_depth_max": float(snapshot["queue_depth"]["max"]),
            "loadgen.lag_p50_s": median(lags),
            "loadgen.lag_max_s": max(lags, default=0.0),
        }
        return Phase(
            outcomes, wall_s=t_end - t0,
            n_ops=max(sum(o.executed for o in outcomes), 1),
            windows=[(t0, t_end)], extra=extra,
        )


@dataclass
class Sent:
    """A submitted arrival and its clock readings."""

    index: int
    arrival: Arrival
    handle: Any
    due: float        # scheduled send time
    sent_at: float    # submit() called
    back: float       # submit() returned


def _collect(sent: list[Sent], checker: Checker) -> list[Outcome]:
    """Check every job's result and time it from its scheduled send."""
    results: dict[int, dict] = {}
    outcomes: list[Outcome] = []
    for s in sent:
        spec = s.arrival.spec
        try:
            res = s.handle.result(timeout=150)
        except ReproError as exc:
            checker.failures.append(f"{spec.label()}: failed: {exc}")
            outcomes.append(Outcome(spec.kind, spec.label(), 0.0, False,
                                    devices=spec.devices))
            continue
        results[s.index] = res.arrays
        if s.arrival.resubmission:
            ref = results.get(s.arrival.original)
            ok = checker.same(ref or {}, res.arrays, f"{spec.label()} cache hit")
        else:
            ok = _check_job(checker, spec, res.arrays)
        # lateness and the submit call, then queue wait and execution
        # inside the service (a cache hit resolves inside submit)
        turnaround = s.back - s.due
        if not res.cache_hit:
            turnaround += s.handle.wait_s + s.handle.run_s
        outcomes.append(Outcome(
            spec.kind, spec.label(), turnaround, ok, lag_s=s.sent_at - s.due,
            run_s=s.handle.run_s, executed=not res.cache_hit,
            resubmission=s.arrival.resubmission, devices=spec.devices,
        ))
    return outcomes


def _is_plain_qr(spec: JobSpec) -> bool:
    return spec.kind == "qr" and spec.devices == 1 and spec.tolerance is None


def _check_direct(sent: list[Sent], checker: Checker, svc: FactorService) -> list[int]:
    """Compare the first executed job of each variant bitwise with a direct
    call on the job's exact config; returns the positions that differ."""
    seen: set[tuple] = set()
    differ = []
    for j, s in enumerate(sent):
        spec = s.arrival.spec
        key = (spec.kind, spec.devices, spec.tolerance is not None)
        if key in seen or s.handle.exception(timeout=0) is not None or s.handle.cache_hit:
            continue
        seen.add(key)
        if not checker.same(direct_result(spec, svc.job_config(spec)),
                            s.handle.result(timeout=0).arrays, f"{spec.label()} direct"):
            differ.append(j)
    return differ


def direct_result(spec: JobSpec, config: SystemConfig) -> dict:
    """Run *spec* by a direct library call on *config*."""
    a = spec.operands[0]
    if spec.kind == "gemm":
        from repro.ooc.api import ooc_gemm

        res = ooc_gemm(a, spec.operands[1], trans_a=spec.trans_a, config=config,
                       blocksize=spec.options.blocksize,
                       pipelined=spec.options.pipelined)
        return {"c": res.c}
    if spec.devices > 1:
        from repro.dist.numeric import dist_qr_numeric

        res = dist_qr_numeric(a, n_devices=spec.devices, processes=0)
        return {"q": res.q, "r": res.r}
    if spec.kind == "qr":
        res = ooc_qr(a, method=spec.method, config=config, options=spec.options)
        return {"q": res.q, "r": res.r}
    fn = ooc_lu if spec.kind == "lu" else ooc_cholesky
    res = fn(a, method=spec.method, config=config, options=spec.options)
    return {"packed": res.packed}


def _check_job(checker: Checker, spec: JobSpec, arrays: dict) -> bool:
    what = spec.label()
    a = spec.operands[0]
    if spec.kind == "qr":
        return checker.qr(a, arrays["q"], arrays["r"], what)
    if spec.kind == "gemm":
        return checker.gemm(a, spec.operands[1], arrays["c"], what)
    if spec.kind == "lu":
        return checker.lu(a, arrays["packed"], what)
    return checker.cholesky(a, arrays["packed"], what)


BATCH = {"qr-tall": qr_tall, "square-dag": square_dag, "qr-tall-ckpt": qr_tall_ckpt}
