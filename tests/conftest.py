import os

# One BLAS thread, as the benchmark runs: GMRES's many short vector
# operations slow down badly on a thread pool that shares busy cores.  This
# has to happen before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402

from cmaeig.domain import Ball, build_grid  # noqa: E402


@pytest.fixture(scope="session")
def disc_grid():
    """Unit disc at h = 1/64, shared across modules (construction is cheap but
    the derived stencil operators cached on the grid are not)."""
    return build_grid(Ball(n=1), 1 / 64)


@pytest.fixture(scope="session")
def disc_grid_32():
    return build_grid(Ball(n=1), 1 / 32)


@pytest.fixture(scope="session")
def ball4_grid():
    """Unit ball in C^2 at h = 0.25."""
    return build_grid(Ball(n=2), 0.25)
