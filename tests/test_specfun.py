"""Recurrence-based special functions against scipy oracles and frozen values."""
import numpy as np
import pytest
from scipy import special

from wigner_bounds import number_state_wigner
from wigner_bounds.specfun import _POINT_BLOCK, boundary_wigner_columns
from oracle import boundary_wigner_matrix, cross_wigner_direct, cross_wigner_matrix, oscillator_basis, oscillator_fn

# oscillator_fn(4, 1.3) from a 50-digit evaluation of the normalized
# recurrence h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}
H4_AT_1P3 = -0.385655452466583154198312


def test_laguerre_against_scipy():
    """The Laguerre recurrence of number_state_wigner: W_n at radius
    sqrt(x/2) is (-1)^n e^{-x/2} L_n(x) / pi."""
    rng = np.random.default_rng(181093)
    xs = rng.uniform(0.0, 12.0, size=40)
    for n in range(41):
        want = special.eval_laguerre(n, xs)
        got = number_state_wigner(n, np.sqrt(xs / 2), 0.0) * (-1) ** n * np.pi * np.exp(xs / 2)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_oscillator_frozen_value():
    assert abs(oscillator_fn(4, 1.3) - H4_AT_1P3) < 1e-14


def test_oscillator_ground_state_form():
    xs = np.linspace(-3, 3, 31)
    want = np.pi**-0.25 * np.exp(-0.5 * xs**2)
    assert np.allclose(oscillator_fn(0, xs), want, atol=1e-15, rtol=0)
    assert np.allclose(oscillator_fn(1, xs), np.sqrt(2.0) * xs * want, atol=1e-14, rtol=0)


def test_oscillator_orthonormal():
    xs = np.arange(-20.0, 20.0001, 0.01)
    fns = np.array([oscillator_fn(n, xs) for n in range(9)])
    gram = fns @ fns.T * 0.01
    assert np.allclose(gram, np.eye(9), atol=1e-8, rtol=0)


def test_oscillator_large_n_does_not_overflow():
    vals = oscillator_fn(200, np.linspace(-20, 20, 101))
    assert np.all(np.isfinite(vals))


def test_scalar_in_scalar_out():
    assert isinstance(number_state_wigner(3, 0.5, 0.0), float)
    assert isinstance(oscillator_fn(3, 0.5), float)
    assert number_state_wigner(2, np.array([0.0, 1.0]), 0.0).shape == (2,)


def test_negative_degree_rejected():
    for fn in (lambda n, x: number_state_wigner(n, x, 0.0), oscillator_fn):
        with pytest.raises(ValueError):
            fn(-1, 0.3)


def test_oscillator_basis_rows_are_oscillator_fn():
    xs = np.linspace(-9.0, 9.0, 181)
    basis = oscillator_basis(60, xs)
    assert basis.shape == (61, 181)
    for n in (0, 1, 7, 60):
        assert np.array_equal(basis[n], oscillator_fn(n, xs))
    # orthonormal on a fine grid
    fine = np.linspace(-14.0, 14.0, 2801)
    b = oscillator_basis(40, fine)
    gram = b @ b.T * (fine[1] - fine[0])
    assert np.max(np.abs(gram - np.eye(41))) < 1e-12


def test_cross_wigner_matrix_against_definition():
    """W_mn(q, p) = (1/pi) int h_m(q+x) h_n(q-x) e^{2ipx} dx, summed with
    weights; the diagonal is the number-state Wigner function."""
    xs = np.linspace(-12.0, 12.0, 4801)
    dx = xs[1] - xs[0]
    pts = np.array([(0.3, -0.7), (1.2, 0.4), (-2.0, 1.5), (0.0, 0.0)])
    weights = np.array([0.5, -1.0, 2.0, 0.25])
    got = cross_wigner_matrix(12, pts[:, 0], pts[:, 1], weights)
    want = np.zeros((13, 13), dtype=complex)
    for (q, p), wt in zip(pts, weights):
        left = oscillator_basis(12, q + xs)
        right = oscillator_basis(12, q - xs) * np.exp(2j * p * xs)
        want += wt * (left @ right.T) * dx / np.pi
    assert np.max(np.abs(got - want)) < 1e-13
    diag = sum(wt * np.array([number_state_wigner(n, q, p) for n in range(13)])
               for (q, p), wt in zip(pts, weights))
    assert np.max(np.abs(np.diag(got) - diag)) < 1e-14


@pytest.mark.parametrize("n_top", [0, 1, 12, 60, 150, 250])
def test_cross_wigner_matrix_matches_direct_recurrence(n_top):
    """The build on Chebyshev radii against the oracle's recurrence at
    every node: signed weights on nodes out to radius 8, in more than
    one point block, with one node at the centre (the first Chebyshev
    radius) and the outermost on the last; and the edge inputs, no
    nodes, nodes only at the centre, a single node and a node a
    subnormal distance from the centre."""
    rng = np.random.default_rng(14 + n_top)
    count = _POINT_BLOCK + 500
    radius = 8.0 * np.sqrt(rng.uniform(0.0, 1.0, count))
    angle = rng.uniform(0.0, 2.0 * np.pi, count)
    q, p = radius * np.cos(angle), radius * np.sin(angle)
    q[0] = p[0] = 0.0
    w = rng.uniform(-1.0, 1.0, count) * (64.0 * np.pi / count)
    cases = [
        (q, p, w),
        ([], [], []),
        ([0.0, 0.0], [0.0, -0.0], [0.5, -2.0]),
        ([0.3], [-0.7], [1.0]),
        ([1e-310, 1.0], [0.0, 0.5], [1.0, -1.0]),
    ]
    for qs, ps, ws in cases:
        with np.errstate(divide="raise", invalid="raise"):
            got = cross_wigner_matrix(n_top, qs, ps, ws)
        want = cross_wigner_direct(n_top, qs, ps, ws)
        assert got.shape == (n_top + 1, n_top + 1)
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.array_equal(got, got.conj().T)
    # at the centre only W_nn(0, 0) = (-1)^n / pi survives
    centre = cross_wigner_matrix(n_top, [0.0, 0.0], [0.0, -0.0], [0.5, -2.0])
    assert np.count_nonzero(centre - np.diag(np.diag(centre))) == 0
    assert not np.any(cross_wigner_matrix(n_top, [], [], []))


@pytest.mark.parametrize("n_top", [0, 1, 12, 60, 150, 250])
def test_boundary_columns_on_edge_inputs(n_top):
    """The route's own build on the edge inputs, no nodes, nodes only at
    the centre, a single node and a node a subnormal distance from the
    centre, against the radial mean Phi_mn(x) = int_0^1 W_mn(u x) u du
    by a Gauss rule in u on the oracle's recurrence at every node."""
    t, wt = np.polynomial.legendre.leggauss(n_top + 40)
    u = 0.5 * (t + 1.0)
    wu = 0.5 * wt * u
    cases = [
        ([], [], []),
        ([0.0, 0.0], [0.0, -0.0], [0.5, -2.0]),
        ([0.3], [-0.7], [1.0]),
        ([1e-310, 1.0], [0.0, 0.5], [1.0, -1.0]),
    ]
    for qs, ps, ws in cases:
        with np.errstate(divide="raise", invalid="raise"):
            got = boundary_wigner_matrix(n_top, qs, ps, ws)
        want = cross_wigner_direct(n_top, np.outer(u, qs), np.outer(u, ps), np.outer(wu, ws))
        assert got.shape == (n_top + 1, n_top + 1)
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.array_equal(got, got.conj().T)
    # at the centre only Phi_nn(0, 0) = (-1)^n / (2 pi) survives, times the sum of weights
    centre = boundary_wigner_matrix(n_top, [0.0, 0.0], [0.0, -0.0], [0.5, -2.0])
    assert np.count_nonzero(centre - np.diag(np.diag(centre))) == 0
    diag = (-1.0) ** np.arange(n_top + 1) / (2.0 * np.pi) * (0.5 - 2.0)
    assert np.max(np.abs(np.diag(centre) - diag)) < 1e-13
    assert not np.any(boundary_wigner_matrix(n_top, [], [], []))
    with pytest.raises(ValueError, match="matching"):
        boundary_wigner_columns(n_top, [0.0, 1.0], [0.0], [1.0])
