"""Multi-tenant factorization service (docs/serve.md).

Public surface: build a :class:`FactorService` over a
:class:`~repro.config.SystemConfig`, submit :class:`JobSpec`\\ s, block on
the returned :class:`JobHandle`\\ s. Admission control, result caching and
metrics are owned by the service; their building blocks are exported for
standalone use and testing.
"""

from repro.errors import AdmissionError
from repro.serve.admission import AdmissionController, estimate_footprint_bytes
from repro.serve.cache import ResultCache, job_cache_key
from repro.serve.job import JOB_KINDS, JobHandle, JobResult, JobSpec, JobState
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.service import DETERMINISTIC_ERRORS, FactorService, run_job

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "Counter",
    "DETERMINISTIC_ERRORS",
    "FactorService",
    "Gauge",
    "Histogram",
    "JOB_KINDS",
    "JobHandle",
    "JobResult",
    "JobSpec",
    "JobState",
    "MetricsRegistry",
    "ResultCache",
    "estimate_footprint_bytes",
    "job_cache_key",
    "run_job",
]
