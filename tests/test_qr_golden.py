"""Golden Q/R digests of the numeric QR paths.

Each case factors a fixed input and compares the sha256 of the C-order
bytes of Q and R against a pinned value, so any change to the BLAS
summation order inside the panel or the update GEMMs — a layout change, a
new leaf kernel, a different blocking — shows up as a named digest
change. A change that alters these on purpose replaces the digests in the
same commit and records old → new, with ``orth_err`` and
``backward_err`` before and after, in CHANGES.md.

The digests are a property of the environment they were recorded in:
numpy and OpenBLAS both pick their kernels at run time from the CPU, and
those kernels fix the summation order. ``PINNED_ENV`` records that
environment (numpy version, BLAS build, the SIMD extensions numpy found,
CPU vendor); anywhere else the digest tests skip rather than fail. The
cross-layout and legacy-vs-dag bitwise tests hold on any host and do not
skip. The shapes keep every vector length at or below 4096 so that BLAS
threading, which splits long dot products, cannot change the summation
order. Run this file as a script to print the current environment and
digests for a re-pin::

    PYTHONPATH=src python -m tests.test_qr_golden
"""

from __future__ import annotations

import hashlib
import platform

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.health.options import HealthOptions
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.incore import incore_blocked_qr, incore_recursive_qr
from repro.qr.options import QrOptions
from repro.util.rng import default_rng, stable_seed
from tests.conftest import make_tiny_spec

#: OOC cases: 1024x128 fp32 (512 KiB) with 64-wide panels on a 1 MiB
#: device, so panels recurse into two 32-column leaves and the trailing
#: matrix is tiled.
OOC_SHAPE = (1024, 128)
OOC_BLOCK = 64


def _matrix(case: str, shape: tuple[int, int]) -> np.ndarray:
    rng = default_rng(stable_seed("qr-golden", case))
    return rng.standard_normal(shape).astype(np.float32)


def _ooc(
    case: str, panel_algorithm: str = SystemConfig.panel_algorithm, **kwargs
) -> tuple[np.ndarray, np.ndarray]:
    cfg = SystemConfig(
        gpu=make_tiny_spec(),
        precision=Precision.TC_FP16,
        panel_algorithm=panel_algorithm,
    )
    res = ooc_qr(
        _matrix(case, OOC_SHAPE), config=cfg, blocksize=OOC_BLOCK, **kwargs
    )
    return res.q, res.r


#: The OOC cases' keyword arguments, run under the default (CholQR2)
#: panel and again under ``panel_algorithm="recursive-cgs"`` (case name +
#: "-cgs"). A default digest that moves while its "-cgs" twin holds
#: isolates the change to the CholQR2 panel.
_OOC_CASES = {
    "ooc-recursive-serial": {},
    "ooc-recursive-dag-threads": {"concurrency": "threads"},
    "ooc-blocking": {"method": "blocking"},
    "ooc-health-monitor": {
        "options": QrOptions(
            blocksize=OOC_BLOCK, health=HealthOptions(mode="monitor")
        ),
    },
}


#: case name -> () -> (Q, R)
CASES = {
    "incore-recursive": lambda: incore_recursive_qr(
        _matrix("incore-recursive", (4096, 64)), input_format="fp16"
    ),
    "incore-blocked": lambda: incore_blocked_qr(
        _matrix("incore-blocked", (4096, 64)), block=32, input_format="fp16"
    ),
}
for _name, _kwargs in _OOC_CASES.items():
    # the input depends on the base name only: both panels factor it
    CASES[_name] = lambda n=_name, kw=_kwargs: _ooc(n, **kw)
    CASES[f"{_name}-cgs"] = lambda n=_name, kw=_kwargs: _ooc(
        n, panel_algorithm="recursive-cgs", **kw
    )


def _cpu_vendor() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("vendor_id"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _environment() -> dict:
    """What the digests depend on besides the code."""
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 cannot report its build
        cfg = {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": sorted(cfg.get("SIMD Extensions", {}).get("found", [])),
        "cpu_vendor": _cpu_vendor(),
    }


#: The environment the digests below were recorded in.
PINNED_ENV = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": ["AVX512_ICL", "AVX512_SPR", "X86_V3", "X86_V4"],
    "cpu_vendor": "GenuineIntel",
}

#: sha256 of (Q bytes, R bytes), C order, float32.
PINNED = {
    "incore-blocked": (
        "90e20a28096e4d7999c67e7e6f9a87b4612d4fcc9627b222d289adbc1f244e5a",
        "1f0ac83e047200e862501df24192012292b8828dcc2b7bd19b18b0635652c4dc",
    ),
    "incore-recursive": (
        "605b380b94cf5491ebc84c7d16e0f57609cb7d272ba8e8fd1ece51a27b35c322",
        "afc4daaa705faac4cdad4017170f5f2970ab3e73719d28fcb49c447d82d8c494",
    ),
    "ooc-blocking": (
        "bd955ebf5d9f104003aafa8ebdcc6a07060f0cf6e3106e107a2ee37e911627e8",
        "67b513107ff04d440e3e439adfa46a8fac9dbdcd9f6a92ba8cd12389a2fd80cf",
    ),
    "ooc-blocking-cgs": (
        "84781ca85c249b0f0d23bfab7c60f12d5fd47d1b483527596259b93173f7ae6a",
        "59a97387b27d35b718a35c11f8303dcb23e555feeb315f71f63212cda3d14969",
    ),
    "ooc-health-monitor": (
        "7c5f66f0afc2f7a5ed97c7722b05baeb6999bf92a21eca434b142279d121a2d6",
        "1f15c8d19d38136fd544fdba807b3abfe726b97c32805a8ac6f4a7dff272c129",
    ),
    "ooc-health-monitor-cgs": (
        "abc254218e9a8e320f0501e72e765c58125c556cb6acbadd152234446c37a9dd",
        "bea6c176518f4e74cf0713213bdb839a5dbd3c9ee083f1bb80292359b5140459",
    ),
    "ooc-recursive-dag-threads": (
        "b1b3d99b33e6cd0c236fbe6ee82e25db79e4c8f5d0daf29ea5b61e602c5b467e",
        "2c268cc43ad6b7fbae57fcb8e65098480b55b1c09860ea97567d77702f5ada49",
    ),
    "ooc-recursive-dag-threads-cgs": (
        "8a6303e79a765b446311382c9e445e840a78e936b70feb5644da9528a70aa17a",
        "d1ec77128a640af14eb6128d1e2bb3f5bfe3a4dc6a79e5bfc9eca3b1ddf5e8e3",
    ),
    "ooc-recursive-serial": (
        "eb4245947326b95362b78d00b6bf9941e38822beddc8a5067ac295201d586228",
        "87cca6a8ca584161ee09fcc131e8504b2063d965b5af10dfc4760d6ffd3dc816",
    ),
    "ooc-recursive-serial-cgs": (
        "5b4f737378e3e31ca1a4ac68c3986a30c99bc365efbeedf91842a15e37897aa6",
        "9bcb77619253a21bb99f6ee514d6b917bee8ad3f72f241d51e775c423b42ac78",
    ),
}


def _digest(x: np.ndarray) -> str:
    x = np.ascontiguousarray(x, dtype=np.float32)
    return hashlib.sha256(x.tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    env = _environment()
    if env != PINNED_ENV:
        pytest.skip(
            f"digests were pinned in {PINNED_ENV}, this is {env}; print a "
            "re-pin with `PYTHONPATH=src python -m tests.test_qr_golden`"
        )
    q, r = CASES[case]()
    assert (_digest(q), _digest(r)) == PINNED[case]


if __name__ == "__main__":
    print(f"PINNED_ENV = {_environment()!r}")
    for name in sorted(CASES):
        q, r = CASES[name]()
        print(f'    "{name}": (\n        "{_digest(q)}",\n        "{_digest(r)}",\n    ),')
