#!/usr/bin/env python3
"""Survey: where does recursion win, and by how much?

Sweeps GPU generations x problem sizes x blocksizes through the event
simulator, printing the recursive-vs-blocking
speedup surface — the §6 outlook ("the gap between computation speed and
data movement speed is likely going to continue to increase") made
quantitative.

Run:  python examples/gpu_survey.py
"""

from repro.config import SystemConfig
from repro.hw.specs import A100_40GB, RTX2080TI, RTX3090, V100_16GB, V100_32GB
from repro.models.overlap import machine_balance, overlap_threshold
from repro.qr import QrOptions, ooc_qr
from repro.util.tables import render_table

GPUS = [V100_32GB, V100_16GB, A100_40GB, RTX3090, RTX2080TI]
PROBLEMS = [(65536, 65536, 8192), (131072, 131072, 8192), (131072, 131072, 16384)]


def sim_speedup(config, m, n, b):
    opts = QrOptions(blocksize=b)
    rec = ooc_qr((m, n), method="recursive", mode="sim", config=config, options=opts)
    blk = ooc_qr((m, n), method="blocking", mode="sim", config=config, options=opts)
    return blk.makespan / rec.makespan, rec


rows = []
for gpu in GPUS:
    config = SystemConfig(gpu=gpu)
    for m, n, b in PROBLEMS:
        if n * b * 4 * 2 > gpu.mem_bytes:      # panel alone must fit twice
            continue
        speedup, rec = sim_speedup(config, m, n, b)
        rows.append(
            [
                gpu.name,
                f"{m}x{n}",
                b,
                f"{speedup:.2f}x",
                f"{rec.achieved_tflops:.0f} TF",
            ]
        )

print(render_table(
    ["GPU", "matrix", "blocksize", "sim speedup", "rec rate"],
    rows,
    title="recursive vs blocking OOC QR across hardware",
))

print("\nmachine balance (flops per fp32 element over PCIe) and the §3.3")
print("overlap threshold m* = 4 R_g / R_m — blocking needs its *panel*")
print("above m*/2, recursion only the *matrix half*:")
bal_rows = [
    [g.name, f"{machine_balance(g):,.0f}", f"{overlap_threshold(g):,.0f}"]
    for g in GPUS
]
print(render_table(["GPU", "balance", "threshold m*"], bal_rows))
