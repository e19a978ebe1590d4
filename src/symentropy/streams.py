"""Deterministic seed splitting and chunked Monte Carlo accumulation.

All Monte Carlo work is cut into fixed-size chunks.  Chunk ``i`` of a run
with base seed ``s`` always draws from the stream ``s XOR hash(i)``, where
``hash`` is the SplitMix64 finalizer; partial moments are merged in chunk
order with the pairwise (Chan) update, so a result depends only on the
sample count and the seed.
"""

import numpy as np

CHUNK_SIZE = 1 << 16

_M64 = (1 << 64) - 1


def _mix64(i):
    # SplitMix64 finalizer; decorrelates consecutive indices.
    z = (int(i) + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def split_seed(seed, index):
    """Private stream for chunk ``index``: ``seed XOR hash(index)``."""
    return (int(seed) ^ _mix64(index)) & _M64


def _merge(a, b):
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    mean = mean_a + delta * nb / n
    m2 = m2_a + m2_b + delta * delta * na * nb / n
    return n, mean, m2


def _moments(values):
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    return values.size, mean, float(np.sum((values - mean) ** 2))


def mc_mean(stat, count, seed):
    """Mean and standard error of ``stat(chunk_count, chunk_seed)``.

    ``stat`` must return a 1-D array of per-sample statistics.  The draws
    come in chunks of ``CHUNK_SIZE``, drawn and merged one at a time, so
    memory does not grow with ``count``; the result is deterministic in
    ``(count, seed)``.
    """
    count = int(count)
    total = None
    for i, start in enumerate(range(0, count, CHUNK_SIZE)):
        part = _moments(stat(min(CHUNK_SIZE, count - start), split_seed(seed, i)))
        total = part if total is None else _merge(total, part)
    n, mean, m2 = total
    return mean, float(np.sqrt(m2 / (n - 1) / n)) if n > 1 else float("inf"), n
