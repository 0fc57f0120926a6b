"""Shared meshes, operators and the (expensive) rigidity sweep, computed
once per session and reused across test modules."""

import numpy as np
import pytest

from neumann_rigidity import (
    Mesh,
    assemble,
    build_disk_mesh,
    build_rectangle_mesh,
    first_eigenpair,
    rigidity_sweep,
)

A_DEFAULT = 2.0
SWEEP_GRID = [round(0.05 + 0.025 * k, 6) for k in range(39)]  # 0.05 .. 1.0
SWEEP_STARTS = 50
SWEEP_SEED = 0


def renumbered(mesh, seed):
    """The same mesh with its nodes renumbered at random."""
    new = np.random.default_rng(seed).permutation(mesh.n_nodes)
    nodes = np.empty_like(mesh.nodes)
    nodes[new] = mesh.nodes
    return Mesh(nodes, new[mesh.triangles])


@pytest.fixture(scope="session")
def square16():
    return assemble(build_rectangle_mesh(16, 16, 1.0, 1.0))


@pytest.fixture(scope="session")
def square20():
    return assemble(build_rectangle_mesh(20, 20, 1.0, 1.0))


@pytest.fixture(scope="session")
def square32():
    return assemble(build_rectangle_mesh(32, 32, 1.0, 1.0))


@pytest.fixture(scope="session")
def square64():
    return assemble(build_rectangle_mesh(64, 64, 1.0, 1.0))


@pytest.fixture(scope="session")
def rect2x1():
    return assemble(build_rectangle_mesh(64, 32, 2.0, 1.0))


@pytest.fixture(scope="session")
def disk4():
    return assemble(build_disk_mesh(4, 1.0))


@pytest.fixture(scope="session")
def disk6():
    return assemble(build_disk_mesh(6, 1.0))


@pytest.fixture(scope="session")
def sweep_result(square20):
    """Acceptance sweep over the full grid, computed once and timed."""
    import time

    first_eigenpair(square20)  # memoized on the operator, so mu1 is not timed
    t0 = time.perf_counter()
    result = rigidity_sweep(SWEEP_GRID, A_DEFAULT, square20, SWEEP_STARTS, SWEEP_SEED)
    return {"result": result, "seconds": time.perf_counter() - t0}


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
