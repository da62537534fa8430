import numpy as np
import pytest

from kdl import geom
from kdl.geom import build_polycurve


def regular_polygon(m, radius=1.0):
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    return np.stack(
        [radius * np.cos(th), radius * np.sin(th), np.zeros(m)], axis=1
    )


def jittered_polygon(m, seed, amp=0.05):
    """Planar m-gon with radial noise; embedded for any amp < 1."""
    rng = np.random.default_rng(seed)
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    r = 1.0 + amp * (2.0 * rng.random(m) - 1.0)
    return np.stack([r * np.cos(th), r * np.sin(th), np.zeros(m)], axis=1)


def random_rotation(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture
def square():
    return build_polycurve([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])


@pytest.fixture
def hexagon():
    # vertices on the unit circle -> side length 1
    return build_polycurve(regular_polygon(6))


@pytest.fixture
def clearance_calls(monkeypatch):
    """The curves the uncached clearance computation has measured, in
    order, from the start of the test."""
    calls = []
    closest = geom._closest_edges

    def recorded(c):
        calls.append(c)
        return closest(c)

    monkeypatch.setattr(geom, "_closest_edges", recorded)
    return calls
