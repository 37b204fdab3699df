import numpy as np
import pytest
from numpy.testing import assert_allclose

from dielshape.errors import ResolutionTooLow
from dielshape.grid import ReferenceGrid


def test_weights_sum_to_sphere_area():
    g = ReferenceGrid.get(6, 14)
    assert_allclose(g.weights.sum(), 4.0 * np.pi, rtol=1e-12)


def test_analysis_inverts_synthesis():
    g = ReferenceGrid.get(8, 18)
    rng = np.random.default_rng(0)
    c = rng.normal(size=g.ncoef(8))
    f = g.synthesize(np.concatenate([c, np.zeros(g.ncoef(g.Lmax) - c.size)]))
    assert_allclose(g.analyze(f, 8), c, atol=1e-10)


def test_memoized_instances_shared():
    assert ReferenceGrid.get(6, 14) is ReferenceGrid.get(6, 14)


def test_resolution_guard():
    with pytest.raises(ResolutionTooLow):
        ReferenceGrid(8, 17)  # needs nquad >= 2L + 2


def test_angular_derivatives_match_basis():
    g = ReferenceGrid.get(6, 14)
    c = np.zeros(g.ncoef(g.Lmax))
    c[g.ncoef(2) + 1] = 1.0  # a degree-3 harmonic
    f_th = g.synthesize(c, deriv="theta")
    f_ph = g.synthesize(c, deriv="phi")
    assert_allclose(g.dtheta(g.synthesize(c)), f_th, atol=1e-9)
    assert_allclose(g.dphi(g.synthesize(c)), f_ph, atol=1e-9)
