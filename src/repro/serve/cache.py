"""Content-addressed result cache for the factorization service.

Two submissions of byte-identical operands with identical options, method,
mode and device footprint are the same computation — the numeric executors
are deterministic — so the service hashes the full job identity and serves
repeats from memory. The key covers everything the result depends on:

* operand *content* (dtype, shape, raw bytes) — not object identity, so
  regenerating a matrix from the same RNG seed still hits, while any
  change to the data (a different seed, a flipped element) misses;
* every :class:`~repro.qr.options.QrOptions` field, the method and kind;
* the numeric environment: precision, element size, panel algorithm and
  the device-memory footprint the job runs under (tiling — and therefore
  floating-point summation order — depends on it).

:class:`LruCache` is the bounded LRU both service caches use: this
module's :class:`ResultCache` and the service's plan-verdict cache.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import fields
from typing import Any, Hashable

import numpy as np

from repro.config import SystemConfig
from repro.errors import ValidationError
from repro.qr.options import QrOptions
from repro.serve.job import JobResult, JobSpec


def _update_with_array(h, arr: np.ndarray) -> None:
    """Feed an operand's full identity (dtype, shape, bytes) to the hash.

    The bytes go in through a memoryview of the C-order buffer: no copy
    for a C-contiguous operand, and the same digest as its ``tobytes()``
    for any layout (F-order and strided operands are made C-contiguous
    first, so they key like their C-order copies)."""
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(memoryview(np.ascontiguousarray(arr)).cast("B"))


def _update_with_options(h, options: QrOptions) -> None:
    for f in fields(options):
        h.update(f.name.encode())
        h.update(repr(getattr(options, f.name)).encode())


def job_cache_key(
    spec: JobSpec, config: SystemConfig, footprint_bytes: int
) -> str:
    """Hex digest addressing the result of running *spec* on *config*
    under a *footprint_bytes* device cap."""
    h = hashlib.sha256()
    h.update(
        f"{spec.kind}|{spec.method}|{spec.mode}|{spec.trans_a}"
        # device count changes the reduction tree and therefore the
        # floating-point result — distinct pool sizes must miss
        f"|{spec.devices}".encode()
    )
    h.update(
        f"|{config.precision.name}|{config.element_bytes}"
        f"|{config.panel_algorithm}|{footprint_bytes}".encode()
    )
    _update_with_options(h, spec.options)
    for op in spec.operands:
        if isinstance(op, np.ndarray):
            _update_with_array(h, op)
        else:
            h.update(f"shape{op!r}".encode())
    return h.hexdigest()


class LruCache:
    """Bounded, thread-safe LRU map.

    Entries are evicted least-recently-used once ``max_entries`` is
    exceeded. ``hits``/``misses`` count :meth:`get` outcomes.
    """

    def __init__(self, max_entries: int = 128):
        if max_entries < 1:
            raise ValidationError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Any | None:
        """The cached value for *key*, bumping its recency; None on miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) *key*; evicts the LRU entry when full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache(LruCache):
    """Bounded LRU map from job cache keys to frozen :class:`JobResult`s.

    Stored results are read-only (frozen on insertion) so hits can be
    shared across callers without copying.
    """

    def put(self, key: str, result: JobResult) -> None:
        super().put(key, result.freeze())
