"""A fixed reference kernel that measures how fast the machine runs now.

On a shared machine the same code can take 30-45% more CPU time for tens
of seconds at a stretch, when another tenant shares the physical core. The
worker runs this kernel between commands and divides each command's CPU
time by the kernel's CPU time around it, so that such stretches cancel.

The kernel mixes what edsim's commands do: chains of small complex matrix
products (the stepped integrator), a medium and a larger complex product
(analytic evolution of bigger states), an elementwise complex exponential,
and a JSON round trip (the CLI's summaries). It uses only numpy and the
standard library, never edsim, so a change to edsim cannot change it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# The kernel's CPU time on the machine the benchmark was tuned on (2-vCPU
# shared VM, Python 3.11, numpy 2.4, one OpenBLAS thread): normalised times
# read as CPU seconds on that machine.
NOMINAL_S = 0.028

_rng = np.random.default_rng(0)
_SMALL = (_rng.standard_normal((52, 52)) + 1j * _rng.standard_normal((52, 52))) / 16.0
_MEDIUM = (_rng.standard_normal((160, 160)) + 1j * _rng.standard_normal((160, 160))) / 32.0
_LARGE = (_rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))) / 32.0
_PHASES = _rng.standard_normal(50_000)
_DOC = {f"k{i}": [i, i * 0.5, str(i)] for i in range(200)}


def cpu_time() -> float:
    """CPU seconds this process spends on one run of the kernel."""
    c0 = time.process_time()
    m = _SMALL
    for _ in range(200):
        m = _SMALL @ m + 0.5 * m
    for _ in range(8):
        _MEDIUM @ _MEDIUM
    for _ in range(2):
        _LARGE @ _LARGE
        np.exp(1j * _PHASES).sum()
    for _ in range(12):
        json.loads(json.dumps(_DOC))
    return time.process_time() - c0
