"""Crash-consistent checkpoint storage for out-of-core factorizations.

A checkpoint captures everything a factorization driver needs to resume
after a crash: how many steps completed, the finalized-column *frontier*,
and the mutated host-matrix state. The on-disk layout (format 2) is

    <directory>/
        manifest.json             # committed last, atomically
        step-000001/              # written by the commit of step 1
            a.c000000-000064.bin  # finalized columns [0, 64) of A: kept
        step-000003/              # written by the commit of step 3
            a.c000064-000128.bin  # columns [64, 128), finalized since
            a.bin                 # the mutable tail [128, cols)
            r.bin                 # R, always whole

Each manifest entry lists the *segments* (file, region, size, sha256)
that together rebuild its matrix. A commit writes only what changed
since the committed manifest: the newly finalized columns and the
mutable tail; segments of columns finalized earlier are referenced
again, never rewritten (the *frontier invariant*: columns
``[0, frontier)`` of A are never written again once a step completes).

The commit protocol makes it crash-consistent: payload files are
written and fsynced first, the manifest is written to a temp file,
fsynced and atomically renamed over ``manifest.json``, and the directory
is fsynced. A crash anywhere mid-save leaves the *previous* manifest
intact and pointing at its own complete segments; a reader never
observes a half-written checkpoint. Files that the new manifest no
longer references are pruned only after it is durable.

Two storage modes per matrix:

* **copy** (default) — RAM-backed matrices live only in the payload:
  finalized columns once, in their segment files, plus the tail. A
  matrix saved without a frontier (R) is written whole every commit.
* **inplace** (``numpy.memmap``-backed matrices) — the memmap file itself
  is durable storage for the finalized columns ``[0, frontier)``: the
  checkpoint just flushes it and records the step (zero-copy). Only the
  still-mutable tail ``[frontier, cols)`` is copied out, because a crash
  mid-step can corrupt it; the tail shrinks to nothing as the run
  progresses. See docs/checkpoint.md for the frontier argument.

Saving is two calls: :meth:`CheckpointManager.snapshot` copies the bytes
to write out of the live matrices (cheap, at the quiesced step
boundary) and :meth:`CheckpointManager.save` makes that snapshot
durable (I/O, digests), so the I/O can run while the factorization
goes on (:class:`~repro.ckpt.session.CheckpointSession`).

Every segment carries a sha256 content digest and the manifest carries a
fingerprint of the run configuration (shape, method, options, precision,
device budget — everything the step schedule and floating-point summation
order depend on). Corrupt or mismatched checkpoints are refused with a
typed :class:`~repro.errors.CheckpointError` rather than silently
producing wrong numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import CheckpointError, ValidationError
from repro.host.tiled import HostMatrix
from repro.obs.clock import wall_time

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 2


@dataclass(frozen=True)
class CheckpointPolicy:
    """When to actually persist at a step boundary.

    A checkpoint is taken when *either* trigger fires: ``every_steps``
    completed steps since the last save, or ``every_seconds`` of wall
    time (None disables the time trigger).
    """

    every_steps: int = 1
    every_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.every_steps < 1:
            raise ValidationError(
                f"every_steps must be >= 1, got {self.every_steps}"
            )
        if self.every_seconds is not None and self.every_seconds <= 0:
            raise ValidationError(
                f"every_seconds must be positive or None, got {self.every_seconds}"
            )

    def due(self, steps_since_save: int, seconds_since_save: float) -> bool:
        """Whether a boundary with this much progress should persist."""
        if steps_since_save >= self.every_steps:
            return True
        return (
            self.every_seconds is not None
            and seconds_since_save >= self.every_seconds
        )


@dataclass(frozen=True)
class CheckpointConfig:
    """User-facing checkpoint request: where to store it and how often."""

    directory: str | Path
    policy: CheckpointPolicy = CheckpointPolicy()

    @property
    def path(self) -> Path:
        return Path(self.directory)


@dataclass
class CheckpointStats:
    """Counters one checkpointed run accumulates (mirrored into the serve
    metrics registry as ``checkpoints_written`` / ``checkpoint_bytes`` /
    ``resumes`` / ``steps_skipped_on_resume``)."""

    checkpoints_written: int = 0
    checkpoint_bytes: int = 0
    resumes: int = 0
    steps_skipped: int = 0


def run_fingerprint(
    kind: str,
    method: str,
    rows: int,
    cols: int,
    config,
    options,
) -> str:
    """Digest of everything the step schedule and the bitwise result
    depend on: operation, method, shape, every option field, numeric
    precision, panel algorithm, element size and the device budget (tiling
    plans — and therefore summation order — depend on free device bytes).
    """
    h = hashlib.sha256()
    h.update(f"{kind}|{method}|{rows}x{cols}".encode())
    h.update(
        f"|{config.precision.name}|{config.panel_algorithm}"
        f"|{config.element_bytes}|{config.usable_device_bytes}".encode()
    )
    for f in fields(options):
        h.update(f"|{f.name}={getattr(options, f.name)!r}".encode())
    return h.hexdigest()


@dataclass
class Snapshot:
    """One checkpoint copied out of the live matrices, ready to commit.

    Built by :meth:`CheckpointManager.snapshot` at a quiesced step
    boundary; :meth:`CheckpointManager.save` writes it. It shares no
    memory with the live matrices, so the run may go on mutating them
    while the save runs (memmaps in *flush* are only flushed, which
    persists their finalized columns).
    """

    step: int
    frontier: int
    #: Role-keyed manifest entries; the segments this snapshot writes get
    #: their ``nbytes``/``sha256`` when :meth:`CheckpointManager.save`
    #: writes them.
    entries: dict[str, dict]
    #: (segment, its region's bytes as a C-order array) per file to write.
    writes: list[tuple[dict, np.ndarray]]
    #: In-place matrices whose finalized columns the save makes durable.
    flush: list[np.memmap] = field(default_factory=list)
    extra: dict | None = None

    @property
    def nbytes(self) -> int:
        """Payload bytes the save will write."""
        return sum(data.nbytes for _, data in self.writes)


def _fsync_dir(path: Path) -> None:
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_durable(path: Path, data: bytes) -> None:
    """Write *data* to *path* via temp file + fsync + atomic rename."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _write_payload(path: Path, data: memoryview) -> None:
    """Write one segment file and fsync it (no rename: the manifest
    commit is what makes it part of a checkpoint)."""
    with open(path, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())


class CheckpointManager:
    """Atomic save/restore of factorization progress (module docstring).

    One manager serves one run identity (the *fingerprint*); loading a
    manifest written under a different fingerprint is refused.
    """

    def __init__(self, config: CheckpointConfig, *, fingerprint: str):
        self.config = config
        self.fingerprint = fingerprint
        self.directory = config.path
        #: The manifest this manager last restored from or committed
        #: (None before either): the segments a new snapshot may reuse,
        #: and the verified manifest a resuming session reads its side
        #: state from.
        self.committed: dict | None = None

    # -- reading -----------------------------------------------------------------

    def load_manifest(self) -> dict | None:
        """The committed manifest, or None when no checkpoint exists yet.

        Raises :class:`~repro.errors.CheckpointError` on a corrupt
        manifest, one written by another format version, or a
        configuration-fingerprint mismatch.
        """
        path = self.directory / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                "corrupt-manifest", f"{path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict):
            raise CheckpointError(
                "corrupt-manifest", f"{path}: not a JSON object"
            )
        missing = {"format", "fingerprint", "step", "matrices"} - manifest.keys()
        if missing:
            raise CheckpointError(
                "corrupt-manifest", f"{path}: missing keys {sorted(missing)}"
            )
        if manifest["format"] != FORMAT_VERSION:
            raise CheckpointError(
                "format-mismatch",
                f"checkpoint format {manifest['format']}, "
                f"this library writes {FORMAT_VERSION}",
            )
        if manifest["fingerprint"] != self.fingerprint:
            raise CheckpointError(
                "config-mismatch",
                "checkpoint was written by a run with different "
                "shape/method/options/config; refusing to resume "
                f"({manifest['fingerprint'][:12]} != {self.fingerprint[:12]})",
            )
        return manifest

    def restore(self, matrices: dict[str, HostMatrix]) -> int:
        """Apply the latest checkpoint to *matrices*; returns the number
        of completed steps (0 when no checkpoint exists — fresh start).
        The verified manifest is left in :attr:`committed`.

        Every listed segment is read back into its region: a copy-mode
        matrix is rebuilt whole, an inplace-mode one gets its mutable
        tail and trusts the memmap file for the finalized prefix. Digest
        or size mismatches raise :class:`~repro.errors.CheckpointError`.
        """
        manifest = self.load_manifest()
        if manifest is None:
            return 0
        entries = manifest["matrices"]
        if set(entries) != set(matrices):
            raise CheckpointError(
                "matrix-mismatch",
                f"checkpoint holds {sorted(entries)}, "
                f"run expects {sorted(matrices)}",
            )
        for role, entry in entries.items():
            self._restore_matrix(role, entry, matrices[role])
        self.committed = manifest
        return int(manifest["step"])

    def _restore_matrix(
        self, role: str, entry: dict, matrix: HostMatrix
    ) -> None:
        if not matrix.backed:
            raise CheckpointError(
                "matrix-mismatch", f"matrix {role!r} has no backing data"
            )
        if [matrix.rows, matrix.cols] != list(entry["shape"]):
            raise CheckpointError(
                "matrix-mismatch",
                f"matrix {role!r} is {matrix.rows}x{matrix.cols}, "
                f"checkpoint holds {entry['shape']}",
            )
        if str(matrix.data.dtype) != entry["dtype"]:
            raise CheckpointError(
                "matrix-mismatch",
                f"matrix {role!r} dtype {matrix.data.dtype} != "
                f"checkpoint {entry['dtype']}",
            )
        if entry["mode"] == "inplace" and not isinstance(
            matrix.data, np.memmap
        ):
            raise CheckpointError(
                "matrix-mismatch",
                f"matrix {role!r} was checkpointed in place from a memmap; "
                "resume must reopen the same memmap file",
            )
        for seg in entry["segments"]:
            path = self.directory / seg["file"]
            if not path.exists():
                raise CheckpointError("missing-payload", str(path))
            data = path.read_bytes()
            if len(data) != seg["nbytes"]:
                raise CheckpointError(
                    "corrupt-payload",
                    f"{path}: {len(data)} bytes, manifest records "
                    f"{seg['nbytes']}",
                )
            if hashlib.sha256(data).hexdigest() != seg["sha256"]:
                raise CheckpointError(
                    "corrupt-payload", f"{path}: content digest mismatch"
                )
            r0, r1, c0, c1 = seg["region"]
            matrix.data[r0:r1, c0:c1] = np.frombuffer(
                data, dtype=matrix.data.dtype
            ).reshape(r1 - r0, c1 - c0)

    # -- writing -----------------------------------------------------------------

    def snapshot(
        self,
        step: int,
        frontier: int,
        matrices: dict[str, HostMatrix],
        frontiers: dict[str, int] | None = None,
        extra: dict | None = None,
        *,
        staging: Callable[[int], np.ndarray] | None = None,
    ) -> Snapshot:
        """Copy out what a checkpoint after *step* completed steps must
        write, relative to :attr:`committed`.

        *frontiers* maps matrix roles to their finalized-column frontier.
        A memmap-backed matrix with a frontier is saved in place (flush +
        tail copy); a RAM-backed one writes its columns finalized since
        the committed manifest as a new segment, references the older
        segments again, and copies its tail; a matrix without a frontier
        is copied whole. The caller must have quiesced the executor
        first (no in-flight host writes). *extra* is an optional
        JSON-serializable side-state dict stored verbatim in the manifest
        (e.g. the health sentinel's escalation state, which must survive
        a restart for bitwise-identical resume); it must not be mutated
        afterwards. *staging*, given the snapshot's size in bytes,
        returns a byte buffer at least that large to copy into (fresh
        arrays otherwise); it must stay untouched until the save returns.
        """
        frontiers = frontiers or {}
        payload = f"step-{step:06d}"
        prev = self.committed["matrices"] if self.committed else {}
        snap = Snapshot(int(step), int(frontier), {}, [], extra=extra)
        sources = []
        for role, matrix in matrices.items():
            if not matrix.backed:
                raise CheckpointError(
                    "matrix-mismatch",
                    f"cannot checkpoint shape-only matrix {role!r}",
                )
            front = frontiers.get(role)
            inplace = isinstance(matrix.data, np.memmap) and front is not None
            entry = {
                "mode": "inplace" if inplace else "copy",
                "shape": [matrix.rows, matrix.cols],
                "dtype": str(matrix.data.dtype),
                "frontier": front,
                "segments": [],
            }
            if front is None:
                new = [(0, matrix.cols, f"{role}.bin")]
            elif inplace:
                snap.flush.append(matrix.data)
                new = [(front, matrix.cols, f"{role}.bin")]
            else:
                entry["segments"] = self._finalized(prev.get(role), entry)
                done = (
                    entry["segments"][-1]["region"][3]
                    if entry["segments"] else 0
                )
                new = [
                    (done, front, f"{role}.c{done:06d}-{front:06d}.bin"),
                    (front, matrix.cols, f"{role}.bin"),
                ]
            for c0, c1, name in new:
                if c0 < c1:
                    seg = {
                        "file": f"{payload}/{name}",
                        "region": [0, matrix.rows, c0, c1],
                        "nbytes": None,
                        "sha256": None,
                    }
                    entry["segments"].append(seg)
                    sources.append((seg, matrix.data[:, c0:c1]))
            snap.entries[role] = entry

        buf = None
        if staging is not None:
            buf = staging(sum(src.size * src.itemsize for _, src in sources))
        offset = 0
        for seg, source in sources:
            if buf is None:
                data = np.array(source, order="C")
            else:
                nbytes = source.size * source.itemsize
                data = (
                    buf[offset:offset + nbytes]
                    .view(source.dtype)
                    .reshape(source.shape)
                )
                np.copyto(data, source)
                offset += nbytes
            snap.writes.append((seg, data))
        return snap

    @staticmethod
    def _finalized(prev: dict | None, entry: dict) -> list[dict]:
        """The committed segments of finalized columns that *entry*
        (a copy-mode entry with a frontier) can reference again."""
        if prev is None or prev.get("frontier") is None or any(
            prev.get(key) != entry[key] for key in ("mode", "shape", "dtype")
        ):
            return []
        limit = min(prev["frontier"], entry["frontier"])
        return [
            dict(seg) for seg in prev["segments"] if seg["region"][3] <= limit
        ]

    def save(self, snap: Snapshot) -> int:
        """Durably commit *snap*; returns the payload bytes written.

        Writes and fsyncs the snapshot's segments and in-place memmaps,
        then commits the manifest atomically and prunes files it no
        longer references. Never opens a file the committed manifest
        references. Synchronous: when it returns, the checkpoint is
        durable.
        """
        payload_dir = self.directory / f"step-{snap.step:06d}"
        payload_dir.mkdir(parents=True, exist_ok=True)
        for mm in snap.flush:
            mm.flush()  # finalized columns become durable in place
        total_bytes = 0
        for seg, data in snap.writes:
            view = memoryview(data).cast("B")
            _write_payload(self.directory / seg["file"], view)
            seg["nbytes"] = len(view)
            seg["sha256"] = hashlib.sha256(view).hexdigest()
            total_bytes += len(view)
        _fsync_dir(payload_dir)
        _fsync_dir(self.directory)

        manifest = {
            "format": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "step": snap.step,
            "frontier": snap.frontier,
            # Manifest metadata only — never read back into step state, so
            # it cannot perturb bitwise-identical resume.
            "written_at": wall_time(),
            "matrices": snap.entries,
        }
        if snap.extra:
            manifest["extra"] = snap.extra
        _write_durable(
            self.directory / MANIFEST_NAME,
            json.dumps(manifest, indent=1).encode(),
        )
        self.committed = manifest
        self._prune({
            seg["file"]
            for entry in snap.entries.values()
            for seg in entry["segments"]
        })
        return total_bytes

    def _prune(self, keep: set[str]) -> None:
        """Delete step-directory files not in *keep* (stale segments,
        leftovers of a crashed save), then the emptied directories."""
        for child in self.directory.iterdir():
            if not (child.is_dir() and child.name.startswith("step-")):
                continue
            for item in child.iterdir():
                if f"{child.name}/{item.name}" not in keep:
                    item.unlink(missing_ok=True)
            if not any(child.iterdir()):
                child.rmdir()
