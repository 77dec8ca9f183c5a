"""Recurrence-based special functions against scipy oracles and frozen values."""
import numpy as np
import pytest
from scipy import special

from wigner_bounds import laguerre_poly, oscillator_fn

# oscillator_fn(4, 1.3) from a 50-digit evaluation of the normalized
# recurrence h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1}
H4_AT_1P3 = -0.385655452466583154198312


def test_laguerre_against_scipy():
    rng = np.random.default_rng(181093)
    xs = rng.uniform(0.0, 12.0, size=40)
    for n in range(41):
        want = special.eval_laguerre(n, xs)
        got = laguerre_poly(n, xs)
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
    assert isinstance(laguerre_poly(3, 0.5), float)
    assert isinstance(oscillator_fn(3, 0.5), float)
    assert laguerre_poly(2, np.array([0.0, 1.0])).shape == (2,)


def test_negative_degree_rejected():
    for fn in (laguerre_poly, oscillator_fn):
        with pytest.raises(ValueError):
            fn(-1, 0.3)
