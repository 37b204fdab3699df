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


@pytest.mark.parametrize("op", ["dtheta", "dphi"])
def test_complex_transform_equals_real_and_imaginary_parts(op):
    # dtheta/dphi multiply complex data through its real view; the result
    # must be the real transform applied to the two parts separately
    g = ReferenceGrid.get(6, 14)
    D = {"dtheta": g.Yth, "dphi": g.Yph}[op]

    def real_op(x):  # analysis, then the derivative basis
        return np.tensordot(D, np.tensordot(g.analysis_full, x, axes=(1, 0)), axes=(1, 0))

    rng = np.random.default_rng(4)
    U = rng.normal(size=(g.nnodes, 3, 5)) + 1j * rng.normal(size=(g.nnodes, 3, 5))
    v = rng.normal(size=g.nnodes) + 1j * rng.normal(size=g.nnodes)
    for f in (U, U[:, 1, :], v):
        ref = real_op(f.real) + 1j * real_op(f.imag)
        out = getattr(g, op)(f)
        assert out.shape == f.shape and out.dtype == complex
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)
