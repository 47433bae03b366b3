"""Unit tests for the repro.ckpt subsystem: policy triggers, the atomic
manifest commit, save/restore roundtrips, the memmap in-place mode, and
the typed refusal of corrupt or mismatched checkpoints."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.ckpt import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointPolicy,
    CheckpointSession,
    run_fingerprint,
)
from repro.ckpt.manager import MANIFEST_NAME
from repro.config import SystemConfig
from repro.errors import CheckpointError, ValidationError
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.qr.options import QrOptions
from tests.conftest import make_tiny_spec


def _manager(tmp_path, fingerprint="fp", **policy_kw):
    cfg = CheckpointConfig(tmp_path, policy=CheckpointPolicy(**policy_kw))
    return CheckpointManager(cfg, fingerprint=fingerprint)


def _matrices(rows=8, cols=6, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "a": HostMatrix.from_array(
            rng.standard_normal((rows, cols)).astype(np.float32)
        )
    }


class TestPolicy:
    def test_defaults_fire_every_step(self):
        p = CheckpointPolicy()
        assert p.due(1, 0.0)
        assert not p.due(0, 1e9)  # no time trigger by default

    def test_step_trigger(self):
        p = CheckpointPolicy(every_steps=3)
        assert not p.due(2, 0.0)
        assert p.due(3, 0.0)

    def test_time_trigger(self):
        p = CheckpointPolicy(every_steps=1000, every_seconds=5.0)
        assert not p.due(1, 4.9)
        assert p.due(1, 5.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            CheckpointPolicy(every_steps=0)
        with pytest.raises(ValidationError):
            CheckpointPolicy(every_seconds=0.0)


class TestRoundtrip:
    def test_no_checkpoint_is_fresh_start(self, tmp_path):
        mgr = _manager(tmp_path)
        assert mgr.load_manifest() is None
        assert mgr.restore(_matrices()) == 0

    def test_save_then_restore_bitwise(self, tmp_path):
        mgr = _manager(tmp_path)
        mats = _matrices(seed=1)
        saved = mats["a"].data.copy()
        mgr.save(mgr.snapshot(3, 4, mats))

        fresh = _matrices(seed=2)  # different contents, same shape
        assert mgr.restore(fresh) == 3
        np.testing.assert_array_equal(fresh["a"].data, saved)

    def test_newer_save_wins_and_prunes(self, tmp_path):
        mgr = _manager(tmp_path)
        mats = _matrices()
        mgr.save(mgr.snapshot(1, 2, mats))
        mats["a"].data[:] += 1.0
        mgr.save(mgr.snapshot(2, 4, mats))
        step_dirs = [p.name for p in tmp_path.iterdir() if p.is_dir()]
        assert step_dirs == ["step-000002"]
        fresh = _matrices(seed=9)
        assert mgr.restore(fresh) == 2
        np.testing.assert_array_equal(fresh["a"].data, mats["a"].data)

    def test_memmap_inplace_saves_only_the_tail(self, tmp_path):
        rows, cols, frontier = 8, 6, 4
        mat = HostMatrix.memmap(tmp_path / "a.dat", rows, cols)
        mat.data[:] = np.arange(rows * cols, dtype=np.float32).reshape(
            rows, cols
        )
        mgr = _manager(tmp_path / "ck")
        nbytes = mgr.save(mgr.snapshot(2, frontier, {"a": mat}, frontiers={"a": frontier}))
        # only the mutable tail [frontier, cols) was copied out
        assert nbytes == rows * (cols - frontier) * 4
        entry = mgr.load_manifest()["matrices"]["a"]
        assert entry["mode"] == "inplace"
        assert [seg["region"] for seg in entry["segments"]] == [
            [0, rows, frontier, cols]
        ]

        # corrupt the tail in the memmap (simulating a mid-step crash),
        # then restore: prefix comes from the file, tail from the payload
        expect = mat.data.copy()
        mat.data[:, frontier:] = -1.0
        assert mgr.restore({"a": mat}) == 2
        np.testing.assert_array_equal(np.asarray(mat.data), expect)

    def test_memmap_full_frontier_is_zero_copy(self, tmp_path):
        mat = HostMatrix.memmap(tmp_path / "a.dat", 4, 4)
        mat.data[:] = 7.0
        mgr = _manager(tmp_path / "ck")
        nbytes = mgr.save(mgr.snapshot(4, 4, {"a": mat}, frontiers={"a": 4}))
        assert nbytes == 0  # everything finalized: flush only
        assert mgr.restore({"a": mat}) == 4

    def test_inplace_checkpoint_requires_memmap_on_restore(self, tmp_path):
        mat = HostMatrix.memmap(tmp_path / "a.dat", 4, 4)
        mat.data[:] = 1.0
        mgr = _manager(tmp_path / "ck")
        mgr.save(mgr.snapshot(1, 2, {"a": mat}, frontiers={"a": 2}))
        ram = _matrices(4, 4)
        with pytest.raises(CheckpointError) as exc:
            mgr.restore(ram)
        assert exc.value.reason == "matrix-mismatch"


class TestRefusals:
    """Corrupt or mismatched checkpoints raise typed errors, never
    silently produce wrong numbers."""

    def _saved(self, tmp_path, **kw):
        mgr = _manager(tmp_path, **kw)
        mgr.save(mgr.snapshot(2, 3, _matrices()))
        return mgr

    def test_corrupt_manifest_json(self, tmp_path):
        self._saved(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError) as exc:
            _manager(tmp_path).load_manifest()
        assert exc.value.reason == "corrupt-manifest"

    def test_manifest_missing_keys(self, tmp_path):
        self._saved(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({"step": 2}))
        with pytest.raises(CheckpointError) as exc:
            _manager(tmp_path).load_manifest()
        assert exc.value.reason == "corrupt-manifest"

    def test_format_mismatch(self, tmp_path):
        mgr = self._saved(tmp_path)
        manifest = mgr.load_manifest()
        manifest["format"] = 999
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError) as exc:
            _manager(tmp_path).load_manifest()
        assert exc.value.reason == "format-mismatch"

    def test_version_1_manifest_is_refused(self, tmp_path):
        """A format-1 manifest (one whole payload file per matrix, no
        segment list) is refused, not misread."""
        (tmp_path / "step-000002").mkdir()
        (tmp_path / "step-000002" / "a.bin").write_bytes(bytes(8 * 6 * 4))
        (tmp_path / MANIFEST_NAME).write_text(json.dumps({
            "format": 1, "fingerprint": "fp", "step": 2, "frontier": 3,
            "payload_dir": "step-000002",
            "matrices": {"a": {
                "mode": "copy", "shape": [8, 6], "dtype": "float32",
                "region": [0, 8, 0, 6], "file": "a.bin", "nbytes": 192,
                "sha256": "0" * 64,
            }},
        }))
        mgr = _manager(tmp_path)
        for call in (mgr.load_manifest, lambda: mgr.restore(_matrices())):
            with pytest.raises(CheckpointError) as exc:
                call()
            assert exc.value.reason == "format-mismatch"

    def test_fingerprint_mismatch(self, tmp_path):
        self._saved(tmp_path, fingerprint="fp-one")
        with pytest.raises(CheckpointError) as exc:
            _manager(tmp_path, fingerprint="fp-two").load_manifest()
        assert exc.value.reason == "config-mismatch"

    def test_truncated_payload(self, tmp_path):
        mgr = self._saved(tmp_path)
        payload = tmp_path / "step-000002" / "a.bin"
        payload.write_bytes(payload.read_bytes()[:-8])
        with pytest.raises(CheckpointError) as exc:
            mgr.restore(_matrices())
        assert exc.value.reason == "corrupt-payload"

    def test_flipped_payload_bits(self, tmp_path):
        mgr = self._saved(tmp_path)
        payload = tmp_path / "step-000002" / "a.bin"
        data = bytearray(payload.read_bytes())
        data[0] ^= 0xFF
        payload.write_bytes(bytes(data))
        with pytest.raises(CheckpointError) as exc:
            mgr.restore(_matrices())
        assert exc.value.reason == "corrupt-payload"

    def test_missing_payload_file(self, tmp_path):
        mgr = self._saved(tmp_path)
        (tmp_path / "step-000002" / "a.bin").unlink()
        with pytest.raises(CheckpointError) as exc:
            mgr.restore(_matrices())
        assert exc.value.reason == "missing-payload"

    def test_matrix_role_mismatch(self, tmp_path):
        mgr = self._saved(tmp_path)
        with pytest.raises(CheckpointError) as exc:
            mgr.restore({"b": _matrices()["a"]})
        assert exc.value.reason == "matrix-mismatch"

    def test_shape_mismatch(self, tmp_path):
        mgr = self._saved(tmp_path)
        with pytest.raises(CheckpointError) as exc:
            mgr.restore(_matrices(rows=9, cols=6))
        assert exc.value.reason == "matrix-mismatch"

    def test_crashed_save_leaves_previous_checkpoint_valid(self, tmp_path):
        """A leftover payload dir without a committed manifest (crash
        between payload write and manifest rename) must not shadow the
        previous checkpoint."""
        mgr = self._saved(tmp_path)
        good = mgr.load_manifest()
        # fake a crash during save(3): payload dir exists, manifest not
        # replaced
        (tmp_path / "step-000003").mkdir()
        (tmp_path / "step-000003" / "a.bin").write_bytes(b"partial")
        assert mgr.load_manifest() == good
        fresh = _matrices(seed=5)
        assert mgr.restore(fresh) == 2


class TestSession:
    def _session(self, tmp_path, mats=None, clock=None, **policy_kw):
        from repro.execution.numeric import NumericExecutor

        ex = NumericExecutor(
            SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.FP32)
        )
        mgr = _manager(tmp_path, **policy_kw)
        kwargs = {} if clock is None else {"clock": clock}
        return CheckpointSession(mgr, ex, mats or _matrices(), **kwargs)

    def test_should_skip_requires_start(self, tmp_path):
        session = self._session(tmp_path)
        with pytest.raises(CheckpointError) as exc:
            session.should_skip(0)
        assert exc.value.reason == "protocol"

    def test_skip_counts_and_stats(self, tmp_path):
        mats = _matrices()
        first = self._session(tmp_path, mats)
        assert first.start() == 0
        first.step_complete(0, frontier=2)
        first.step_complete(1, frontier=4)
        first.drain()

        second = self._session(tmp_path, mats)
        assert second.start() == 2
        assert second.stats.resumes == 1
        assert second.should_skip(0) and second.should_skip(1)
        assert not second.should_skip(2)
        assert second.stats.steps_skipped == 2

    def test_every_steps_policy_batches_saves(self, tmp_path):
        session = self._session(tmp_path, every_steps=3)
        session.start()
        for step in range(7):
            session.step_complete(step, frontier=step + 1)
        session.drain()
        # saves at completed=3 and completed=6; step 7 pending
        assert session.stats.checkpoints_written == 2
        assert session.manager.load_manifest()["step"] == 6

    def test_staging_fits_the_snapshot_and_is_released(self, tmp_path):
        """An in-place matrix stages only its tail, not the whole
        (possibly larger-than-RAM) file; drain unmaps the staging."""
        rows, cols = 64, 32
        mat = HostMatrix.memmap(tmp_path / "a.dat", rows, cols)
        mat.data[:] = 1.0
        session = self._session(tmp_path / "ck", {"a": mat})
        session.start()
        session.step_complete(0, frontier=24)
        assert len(session._mapping) == rows * (cols - 24) * 4
        session.step_complete(1, frontier=28)  # smaller: same mapping
        assert len(session._mapping) == rows * (cols - 24) * 4
        session.drain()
        assert session._mapping is None
        assert session.manager.load_manifest()["step"] == 2

    def test_time_policy_uses_injected_clock(self, tmp_path):
        now = [0.0]
        session = self._session(
            tmp_path, clock=lambda: now[0],
            every_steps=10**6, every_seconds=30.0,
        )
        session.start()
        session.step_complete(0, frontier=1)
        assert session.stats.checkpoints_written == 0
        now[0] = 31.0
        session.step_complete(1, frontier=2)
        assert session.stats.checkpoints_written == 1


M, N, B = 256, 64, 16


def _qr_input():
    return np.random.default_rng(3).standard_normal((M, N)).astype(np.float32)


def _qr_run(ckdir=None, session_out=None, obs=None):
    """One recursive QR of the M x N input (fresh host matrices, as after
    a crash), checkpointing every step into *ckdir* when given."""
    from repro.execution.numeric import NumericExecutor
    from repro.qr.recursive import ooc_recursive_qr
    from tests.test_fault_injection import _config

    ex = NumericExecutor(_config())
    if obs is not None:
        ex.obs = obs
    a = HostMatrix.from_array(_qr_input())
    r = HostMatrix.zeros(N, N)
    session = None
    if ckdir is not None:
        session = CheckpointSession(
            CheckpointManager(CheckpointConfig(ckdir), fingerprint="qr"),
            ex, {"a": a, "r": r},
        )
        if session_out is not None:
            session_out.append(session)
    ooc_recursive_qr(ex, a, r, QrOptions(blocksize=B), checkpoint=session)
    return a.data, r.data


class TestWriteBehind:
    """Commits run on a writer thread: failures still fail the run, and
    every finalized column is written exactly once."""

    def test_writer_failure_fails_the_run(self, tmp_path, monkeypatch):
        from repro.ckpt import manager as manager_mod

        q_ref, r_ref = _qr_run()
        real_write = manager_mod._write_payload

        def failing_fsync_on_third_commit(path, data):
            if path.parent.name == "step-000003":
                raise OSError(5, "injected payload fsync failure")
            real_write(path, data)

        monkeypatch.setattr(
            manager_mod, "_write_payload", failing_fsync_on_third_commit
        )
        ckdir = tmp_path / "ck"
        with pytest.raises(OSError, match="injected payload fsync"):
            _qr_run(ckdir)
        monkeypatch.undo()

        # the previous checkpoint is intact and resumes bitwise
        mgr = CheckpointManager(CheckpointConfig(ckdir), fingerprint="qr")
        assert mgr.load_manifest()["step"] == 2
        sessions = []
        q, r = _qr_run(ckdir, sessions)
        assert sessions[0].stats.resumes == 1
        assert sessions[0].stats.steps_skipped == 2
        np.testing.assert_array_equal(q, q_ref)
        np.testing.assert_array_equal(r, r_ref)

    def test_checkpoint_bytes_match_the_segment_formula(
        self, tmp_path, monkeypatch
    ):
        frontiers = []
        real_step = CheckpointSession.step_complete

        def recording(self, step, frontier):
            frontiers.append(frontier)
            real_step(self, step, frontier)

        monkeypatch.setattr(CheckpointSession, "step_complete", recording)
        sessions = []
        _qr_run(tmp_path, sessions)
        stats = sessions[0].stats
        # recursion events of a 64-column matrix with 16-column leaves
        assert frontiers == [16, 16, 32, 32, 48, 48, 64]
        e = 4
        expect = (
            e * M * N  # every finalized column, once
            + sum(e * M * (N - f) for f in frontiers)  # each commit's tail
            + len(frontiers) * e * N * N  # R, whole, every commit
        )
        assert stats.checkpoints_written == len(frontiers)
        assert stats.checkpoint_bytes == expect == 376_832

    @pytest.mark.parametrize("kind", [
        "blocking_qr", "recursive_qr", "blocking_lu", "recursive_lu",
        "blocking_cholesky", "recursive_cholesky",
    ])
    def test_drivers_drain_on_return_and_on_raise(
        self, kind, tmp_path, monkeypatch
    ):
        """With a slow writer, every checkpoint the policy took is
        durable the moment a driver returns or raises."""
        import threading
        import time

        from repro.factor import cholesky, incore, lu
        from repro.qr import blocking, recursive
        from tests.test_fault_injection import (
            FaultyExecutor,
            InjectedFault,
            _config,
        )

        driver = {
            "blocking_qr": blocking.ooc_blocking_qr,
            "recursive_qr": recursive.ooc_recursive_qr,
            "blocking_lu": lu.ooc_blocking_lu,
            "recursive_lu": lu.ooc_recursive_lu,
            "blocking_cholesky": cholesky.ooc_blocking_cholesky,
            "recursive_cholesky": cholesky.ooc_recursive_cholesky,
        }[kind]
        real_save = CheckpointManager.save

        def slow_save(self, snap):
            time.sleep(0.02)
            return real_save(self, snap)

        monkeypatch.setattr(CheckpointManager, "save", slow_save)

        def attempt(ckdir, fail_at=None):
            n = 64
            if kind.endswith("qr"):
                a_np = _qr_input()[:n]
            elif kind.endswith("lu"):
                a_np = incore.diagonally_dominant(n, n, seed=5)
            else:
                a_np = incore.spd_matrix(n, seed=5)
            ex = FaultyExecutor(_config(), fail_at=fail_at)
            mats = {"a": HostMatrix.from_array(a_np.copy())}
            args = [ex, mats["a"]]
            if kind.endswith("qr"):
                mats["r"] = HostMatrix.zeros(n, n)
                args.append(mats["r"])
            session = CheckpointSession(
                CheckpointManager(CheckpointConfig(ckdir), fingerprint=kind),
                ex, mats,
            )
            try:
                driver(*args, QrOptions(blocksize=B), checkpoint=session)
            finally:
                stats = session.stats
                manifest = session.manager.load_manifest()
                writers = [t for t in threading.enumerate()
                           if t.name.startswith("ckpt-writer")]
                assert manifest["step"] == stats.checkpoints_written
                assert not writers
            return ex.op_counter

        total = attempt(tmp_path / "whole")
        with pytest.raises(InjectedFault):
            attempt(tmp_path / "killed", fail_at=2 * total // 3)

    def test_traced_run_shows_snapshot_and_commit_lanes(self, tmp_path):
        from repro.obs import SpanRecorder

        rec = SpanRecorder()
        _qr_run(tmp_path, obs=rec)
        spans = [s for s in rec.spans() if s.cat == "ckpt"]
        snaps = [s for s in spans if s.name == "ckpt.snapshot"]
        commits = [s for s in spans if s.name == "ckpt.commit"]
        assert len(snaps) == len(commits) == 7
        assert {s.lane for s in snaps} == {"driver"}
        assert {s.lane for s in commits} == {"ckpt"}
        for snap, commit in zip(snaps, commits):
            assert snap.attrs["step"] == commit.attrs["step"]
            assert snap.attrs["nbytes"] == commit.attrs["nbytes"]
            assert commit.start_s >= snap.end_s

    def test_save_never_opens_a_committed_file(self, tmp_path, monkeypatch):
        from repro.ckpt import manager as manager_mod

        opened: list[list[str]] = []
        real_save = CheckpointManager.save

        def spy_open(path, *args, **kwargs):
            opened[-1].append(Path(path).relative_to(tmp_path).as_posix())
            return open(path, *args, **kwargs)

        def checked_save(self, snap):
            committed = self.load_manifest()
            referenced = set() if committed is None else {
                seg["file"]
                for entry in committed["matrices"].values()
                for seg in entry["segments"]
            }
            opened.append([])
            written = real_save(self, snap)
            assert not referenced & set(opened[-1])
            return written

        monkeypatch.setattr(manager_mod, "open", spy_open, raising=False)
        monkeypatch.setattr(CheckpointManager, "save", checked_save)
        _qr_run(tmp_path)
        assert len(opened) == 7
        # each finalized segment of A was written by exactly one save
        finalized = [
            seg["file"]
            for seg in CheckpointManager(
                CheckpointConfig(tmp_path), fingerprint="qr"
            ).load_manifest()["matrices"]["a"]["segments"]
        ]
        assert [f.split("/")[1] for f in finalized] == [
            "a.c000000-000016.bin", "a.c000016-000032.bin",
            "a.c000032-000048.bin", "a.c000048-000064.bin",
        ]
        writes = [f for files in opened for f in files]
        for name in finalized:
            assert writes.count(name) == 1


class TestFingerprint:
    def test_sensitive_to_everything_that_matters(self):
        cfg = SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.FP32)
        base = run_fingerprint("qr", "recursive", 96, 96, cfg, QrOptions())
        assert base == run_fingerprint(
            "qr", "recursive", 96, 96, cfg, QrOptions()
        )
        others = [
            run_fingerprint("lu", "recursive", 96, 96, cfg, QrOptions()),
            run_fingerprint("qr", "blocking", 96, 96, cfg, QrOptions()),
            run_fingerprint("qr", "recursive", 96, 128, cfg, QrOptions()),
            run_fingerprint(
                "qr", "recursive", 96, 96, cfg, QrOptions(blocksize=64)
            ),
            run_fingerprint(
                "qr", "recursive", 96, 96,
                SystemConfig(gpu=make_tiny_spec(2 << 20),
                             precision=Precision.FP32),
                QrOptions(),
            ),
        ]
        assert len({base, *others}) == len(others) + 1
