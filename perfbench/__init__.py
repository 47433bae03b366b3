"""The repository benchmark: measured out-of-core QR/LU/Cholesky and serve
workloads with per-layer attribution. Run ``python3 perfbench/run.py -h``."""
