"""Host speed reference.

On a shared host the same code runs up to 1.5x slower for minutes at a time,
longer than a run, so no statistic taken inside one run removes it. run.py times
this fixed computation after every experiment and scales the workload's times
by REFERENCE_S / (the computation's fastest time in the run), which expresses
them at one host speed. The computation mixes the interpreter loops and the
small-array numpy calls (transcendentals, einsum, a 3x3 eigh) that the
program spends its time in, and never calls the program.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Only sets the scale of the results. The computation's fastest time in a run
# was 5 to 8 ms on a 2-vCPU Intel Xeon (Sapphire Rapids) virtual machine with
# python 3.11 and numpy 2.4.
REFERENCE_S = 0.006

_X = np.linspace(-np.pi, np.pi, 1024)
_COIN = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)
_BLOCKS = np.ones((103, 2, 2), dtype=complex)
_SYM = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])


def _reference() -> float:
    total = 0
    for i in range(30000):
        total += i * i % 7
    for _ in range(60):
        z = np.exp(1j * _X)
        energy = np.arccos(np.clip(z.real, -1.0, 1.0))
        total += float(np.arctan2(energy, _X).sum())
        total += float(np.einsum("ab,kbc->kac", _COIN, _BLOCKS).real.sum())
        total += float(np.linalg.eigh(_SYM)[0][0])
    return total


def time_reference() -> float:
    """Seconds for one run of the reference computation."""
    start = perf_counter()
    _reference()
    return perf_counter() - start
