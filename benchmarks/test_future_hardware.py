"""§6 projection — recursive-vs-blocking across GPU generations.

Simulates the 131072^2 factorization on V100 32/16 GB, A100 40 GB,
RTX 3090 and RTX 2080 Ti: the higher the compute-to-bandwidth ratio or
the smaller the memory, the bigger the recursive advantage.
"""

from repro.bench.studies import exp_future_hardware


def test_future_hardware(benchmark, record_experiment):
    result = benchmark(exp_future_hardware)
    record_experiment(result)
