"""A fixed piece of reference work that measures how fast the host runs now.

The host's cores are shared with other machines, and for stretches of
seconds to minutes everything on them runs up to 1.8x slower. Wall-clock
throughput follows those stretches, so two runs of the same code can differ
by more than any useful regression bound. The benchmark therefore runs this
reference work right before and right after every timed operation, and
reports the operation's cost in units of the reference time measured around
it (``items/ref``: items the package completes in the time the reference
work takes at that moment). The reference shares no code with the package,
so a change to the package cannot move it.

The work is a mix of the two kinds the package does: a vectorised part
(Philox draws, comparisons and a bincount over 64 k-element arrays, like a
session's tally) and a scalar part (a Python loop over 4x4 complex matrix
products, like the density-matrix pipeline). An operation that runs on two
worker threads is measured against vectorised work spread over two
threads instead: a slow stretch can hit one core and not the other, and a
single-threaded reference would then follow only the core the main thread
sits on. On the
2-core host the baseline was measured on, one run takes 25 to 35 ms, and
the ratio of an operation's time to it spreads several times less across
runs than the operation's own time (see README.md).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

_HADAMARD_I = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), np.eye(2))


def _vector_chunk(j: int) -> int:
    gen = np.random.Generator(np.random.Philox(key=20111997, counter=j))  # the same draws every call
    u = gen.random((65536, 4))
    cell = (u[:, 0] < 0.5).astype(np.int64) * 4 + (u[:, 1] < 0.3) * 2 + (u[:, 2] > u[:, 3])
    return int(np.bincount(cell, minlength=8)[3])


def _scalar_part() -> float:
    acc = 0.0
    for k in range(600):
        psi = np.array([np.cos(k * 1e-3), 0.0, 0.0, np.sin(k * 1e-3)], dtype=complex)
        rho = np.outer(psi, psi.conj())
        rotated = _HADAMARD_I @ rho @ _HADAMARD_I.conj().T
        acc += float(np.real(np.trace(rotated @ rho)))
    return acc


def measure(threads: int = 1) -> float:
    """Wall time of one run of the reference work on ``threads`` threads.

    On one thread: 4 vectorised chunks and the scalar part. On more: 12
    vectorised chunks per thread, handed out as threads free up, as the
    session pool hands out its chunks, so the time follows the speed of all
    the cores a multi-threaded operation runs on (the 2-worker sessions are
    mostly vectorised work, so there is no scalar part).
    """
    start = perf_counter()
    if threads == 1:
        for j in range(4):
            _vector_chunk(j)
        _scalar_part()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(_vector_chunk, range(12 * threads)))
    return perf_counter() - start
