"""A fixed calibration kernel that measures how fast the host runs right now.

The timed worker runs one sample of it before each timed pass and one after
the last.  ``run.py`` divides each pass's time by the mean of the two samples
around it and reports the median of these ratios.  The kernel does the kinds
of work the program spends its passes on: conjugate-gradient iterations on a
sparse matrix (CSR matvecs, dot products, vector updates) and a pure-Python
loop.  It uses numpy and scipy only, never ``perfolayer``, so a change to the
program does not change it.

On a shared host the speed of identical work drifts by a quarter or more over
tens of seconds, and a whole run, or a whole set of runs, can fall into a
slow stretch.  Both the passes and the samples slow down together, so their
ratio keeps the program's cost and drops most of the drift.
"""

from __future__ import annotations

from time import perf_counter, process_time

import numpy as np
import scipy.sparse as sp

GRID = 40            # 7-point Laplacian on a GRID^3 grid: 64,000 unknowns
CG_ITERATIONS = 400
LOOP_ITERATIONS = 3_000_000
# wall seconds of one sample on a 2-vCPU Xeon virtual machine at its fast
# state; set-up time is reported at this speed of the host
REFERENCE_SAMPLE_S = 0.5


def laplacian(m=GRID):
    """The 3D 7-point Laplacian on an m^3 grid, as CSR."""
    ones = np.ones(m)
    t = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1], format="csr")
    i = sp.identity(m, format="csr")
    return (sp.kron(sp.kron(t, i), i) + sp.kron(sp.kron(i, t), i)
            + sp.kron(sp.kron(i, i), t)).tocsr()


def _cg(a, iterations):
    b = np.ones(a.shape[0])
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    for _ in range(iterations):
        q = a @ p
        alpha = rr / (p @ q)
        x += alpha * p
        r -= alpha * q
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
    return float(x.sum())


def _loop(iterations):
    s = 0
    for i in range(iterations):
        s += i * i % 7
    return s


class Calibration:
    """Samples of the kernel; build it once, after the workload's set-up."""

    def __init__(self, grid=GRID, cg_iterations=CG_ITERATIONS,
                 loop_iterations=LOOP_ITERATIONS):
        self.matrix = laplacian(grid)
        self.cg_iterations = cg_iterations
        self.loop_iterations = loop_iterations

    def sample(self):
        """Run the kernel once; return its wall and CPU seconds."""
        w0, c0 = perf_counter(), process_time()
        _cg(self.matrix, self.cg_iterations)
        _loop(self.loop_iterations)
        return {"wall_s": perf_counter() - w0, "cpu_s": process_time() - c0}
