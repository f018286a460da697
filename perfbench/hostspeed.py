"""Host speed: a fixed reference task timed between the stages of a run.

The machine this benchmark runs on shares its CPUs with others.  Its speed
switches between states up to 1.5x apart for seconds at a time, and whole
runs can fall into phases 1.3 to 2 times slower (README.md, "Noise"); no
statistic of a run's own samples removes that.  So a plain job also times a
fixed task of the benchmark's own, REPEATS times before each stage and after
the last, and every end-to-end time of the run is scaled by

    REF_NOMINAL_S / mean(reference samples of the run),

which gives it as it would read on a host where the reference task takes
REF_NOMINAL_S.  The mean, not the median, because the samples fall into two
modes (the host's fast and slow states) and the mean follows the share of
time spent in each.  The task does not call cmaeig, so a change to the
program moves the stage times and not the scale.  It is half pure-Python
float arithmetic and half a sparse LU factorization and solve, the two kinds
of work the stages are made of: a slow phase slows pure-Python code by up to
2x and sparse LU by about 1.35x, and a mix of both follows either kind of
stage better than one alone.
"""

import time
from statistics import mean

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

# About the mean time of reference_task() on the machine described in
# README.md ("Noise"), so that scaled times read close to measured ones.
REF_NOMINAL_S = 0.020
REPEATS = 4

_LOOP_STEPS = 75_000
_M = 60  # 5-point Laplacian on an _M x _M grid


def _laplacian():
    t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_M, _M))
    eye = sparse.identity(_M)
    return (sparse.kron(eye, t) + sparse.kron(t, eye)).tocsc()


_A = _laplacian()
_B = np.ones(_M * _M)


def reference_task():
    """About 10 ms of pure-Python float arithmetic and 12 ms of sparse LU."""
    s, x = 0.0, 0.1
    for _ in range(_LOOP_STEPS):
        x = x * 0.999 + 0.001 * (x * x - 0.5)
        s += x
    return s + float(splu(_A).solve(_B)[0])


class HostSpeed:
    """The reference samples of a run."""

    def __init__(self):
        reference_task()  # untimed: first calls into scipy
        self.samples = []

    def sample(self):
        """Time the reference task REPEATS times."""
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            reference_task()
            self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Factor that takes a time measured in this run to the nominal host."""
        return REF_NOMINAL_S / mean(self.samples)
