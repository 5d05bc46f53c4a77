import numpy as np
import pytest
from hypothesis import settings

from rmgflow import manifold as mf
from rmgflow import motion as mo

settings.register_profile("ci", deadline=None, max_examples=50, print_blob=True)
settings.load_profile("ci")


def defect(m, x, v):
    """Largest tangent-constraint violation of v at x over every factor copy,
    from the manifold's own per-factor check; NaN on non-finite input."""
    worst = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for f, xb, vb in zip(m.factors, mf._blocks(m, np.asarray(x, float)),
                             mf._blocks(m, np.asarray(v, float))):
            worst = mf._defect(f, xb, vb, worst)
    return float(worst)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sphere2():
    return mf.ManifoldSpec([mf.sphere(2)])


@pytest.fixture
def sphere3():
    return mf.ManifoldSpec([mf.sphere(3)])


@pytest.fixture
def preshape53():
    return mf.ManifoldSpec([mf.preshape(5, 3)])


@pytest.fixture
def pose_manifold():
    """Translation x 22 joint rotations, the full-skeleton product space."""
    return mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3, multiplicity=22)])


@pytest.fixture
def toy_manifold():
    """R^3 x S^3 used by the single-joint toy experiments."""
    return mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])


@pytest.fixture
def skeleton():
    return mo.default_skeleton()
