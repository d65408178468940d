import hypothesis
import numpy as np
import pytest

from subriem.flow import integrate_extremal
from subriem.heisenberg import ALPHA_STAR
from subriem.structure import PolyVectorField, Structure, make_structure

hypothesis.settings.register_profile("suite", max_examples=25, deadline=None,
                                     derandomize=True)
hypothesis.settings.load_profile("suite")

TWO_PI = 2 * np.pi


@pytest.fixture(scope="session")
def heis():
    return make_structure("heisenberg")


@pytest.fixture(scope="session")
def eucl3():
    return make_structure("euclidean:3")


@pytest.fixture(scope="session")
def quadratic():
    """Degree-2 fields on R^2: the jet's second-derivative terms are nonzero."""
    f1 = PolyVectorField.from_lists(2, [[((2, 0), 0.3), ((0, 1), -0.4)],
                                        [((1, 1), 0.25)]])
    f2 = PolyVectorField.from_lists(2, [[((0, 0), 1.0)], [((0, 2), 0.2)]])
    return Structure(2, 2, (f1, f2), name="quadratic")


def _reference_trajectory(struct, alpha):
    grid = np.unique(np.concatenate([np.linspace(0.0, 1.2, 61), [1.0]]))
    return integrate_extremal(struct, np.zeros(3), np.array([1.0, 0.0, alpha]),
                              1.2, 1e-10, samples=grid)


@pytest.fixture(scope="session")
def traj_2pi(heis):
    """Extremal through the conjugate covector (1, 0, 2 pi), sampled past t = 1."""
    return _reference_trajectory(heis, TWO_PI)


@pytest.fixture(scope="session")
def traj_astar(heis):
    """Extremal through the fold conjugate covector (1, 0, alpha*)."""
    return _reference_trajectory(heis, ALPHA_STAR)


class ReparametrizedCurve:
    """The curve tau -> F(phi(tau)) on [r, s], where phi(tau) = r + (s - r) u (1 + u) / 2
    with u = (tau - r) / (s - r) is a monotone map of [r, s] onto itself, so a
    scan of this curve reads F at the nonuniform times phi(grid)."""

    def __init__(self, curve, r, s):
        self.curve, self.r, self.s = curve, r, s
        self.rays = curve.rays

    @staticmethod
    def phi(ts, r, s):
        u = (np.asarray(ts, dtype=float) - r) / (s - r)
        return r + (s - r) * u * (1 + u) / 2

    def frames_at(self, ts, rays=0):
        return self.curve.frames_at(self.phi(ts, self.r, self.s), rays)

    def jets_at(self, taus, rays=0):
        taus = np.asarray(taus, dtype=float)
        frames, velocities = self.curve.jets_at(self.phi(taus, self.r, self.s), rays)
        return frames, (0.5 + (taus - self.r) / (self.s - self.r))[:, None, None] * velocities


@pytest.fixture(scope="session")
def reparametrized():
    """The ``ReparametrizedCurve`` class (tests build one per window)."""
    return ReparametrizedCurve
