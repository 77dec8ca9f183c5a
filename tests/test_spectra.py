"""Eigenvalue curves, envelopes, crossings and the discretized solver."""
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_laguerre

from wigner_bounds import (
    Disk,
    KernelMatrix,
    SpectrumResult,
    annulus_eigenvalue,
    annulus_envelope,
    assemble,
    crossing_radius,
    disk_eigenvalue,
    disk_envelope,
    disk_spectrum,
    extremal_eigenvalues,
)
from wigner_bounds.spectra import DISK_RADIUS_LIMIT

# greatest root of lambda_3(a) = lambda_4(a), frozen from a dense scan
# of the quadrature curves refined by bisection
A3_CROSSING = 1.9696155060244161


def lam_closed(n, a):
    e = math.exp(-a * a)
    if n == 0:
        return 1 - e
    if n == 1:
        return 1 - (1 + 2 * a**2) * e
    if n == 2:
        return 1 - (1 + 2 * a**4) * e
    return 1 - (1 + 2 * a**2 - 2 * a**4 + (4.0 / 3.0) * a**6) * e


def test_disk_eigenvalue_closed_forms():
    for a in (0.3, 1.0, 2.0, 3.0):
        for n in range(4):
            assert abs(disk_eigenvalue(n, a) - lam_closed(n, a)) < 1e-12


def test_disk_eigenvalue_edge_cases():
    for n in (0, 3, 17):
        assert disk_eigenvalue(n, 0.0) == 0.0
    with pytest.raises(ValueError):
        disk_eigenvalue(-1, 1.0)
    with pytest.raises(ValueError):
        disk_eigenvalue(0, -0.5)


def test_disk_eigenvalue_saturates_for_large_disk():
    # lambda_n -> 1 once the disk swallows the state: radius past the
    # classical turning point sqrt(2n+1) plus four units of tail
    for n in range(21):
        for a in (math.sqrt(2 * n + 1) + 4.0, 12.0, 15.0, 20.0):
            assert abs(disk_eigenvalue(n, a) - 1.0) < 1e-10


def quadrature_eigenvalue(n, a):
    """(-1)^n Integral_0^{a^2} L_n(2u) e^{-u} du by an (n+32)-node
    Gauss-Legendre rule: an oracle independent of the Laguerre sweep."""
    x, w = leggauss(n + 32)
    u = 0.5 * a * a * (x + 1.0)
    return (-1) ** n * 0.5 * a * a * float(np.dot(w, eval_laguerre(n, 2.0 * u) * np.exp(-u)))


def test_disk_spectrum_matches_quadrature():
    # leggauss nodes and weights for ~670 points cap this oracle at about
    # 1.2e-12 for a = 8, n = 635 against an exact-arithmetic reference,
    # where the sweep itself is off by 6e-16
    for a in (0.5, 2.0, 5.0, 8.0):
        n_top = max(50, math.ceil(10.0 * a * a))
        spec = disk_spectrum(a, n_top)
        assert spec.shape == (n_top + 1,)
        for n in range(n_top + 1):
            assert abs(spec[n] - quadrature_eigenvalue(n, a)) < 3e-12


def test_disk_spectrum_array_radii():
    radii = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    spec = disk_spectrum(radii, 40)
    assert spec.shape == (5, 41)
    for k, a in enumerate(radii):
        assert np.array_equal(spec[k], disk_spectrum(float(a), 40))
    assert np.array_equal(disk_spectrum(0.0, 30), np.zeros(31))


def test_disk_spectrum_refuses_out_of_range():
    assert disk_spectrum(DISK_RADIUS_LIMIT, 10).shape == (11,)
    with pytest.raises(ValueError):
        disk_spectrum(DISK_RADIUS_LIMIT + 0.5, 10)
    with pytest.raises(ValueError):
        disk_spectrum(np.array([1.0, 27.0]), 10)
    with pytest.raises(ValueError):
        disk_spectrum(1.0, -1)
    with pytest.raises(ValueError):
        disk_spectrum(-0.5, 3)
    with pytest.raises(ValueError):
        disk_envelope(30.0)
    with pytest.raises(ValueError):
        annulus_envelope(1.0, 0.5)
    with pytest.raises(ValueError):
        annulus_envelope(-0.1, 1.0)


def test_annulus_eigenvalue_is_disk_difference():
    for n, r1, r2 in ((0, 0.5, 1.0), (3, 1.0, 2.0), (7, 0.2, 0.7)):
        want = disk_eigenvalue(n, r2) - disk_eigenvalue(n, r1)
        assert annulus_eigenvalue(n, r1, r2) == want


def test_annulus_eigenvalue_values():
    assert annulus_eigenvalue(0, 0.0, 1.0) == disk_eigenvalue(0, 1.0)
    want = math.exp(-1.0) - math.exp(-4.0)
    assert abs(annulus_eigenvalue(0, 1.0, 2.0) - want) < 1e-14
    with pytest.raises(ValueError):
        annulus_eigenvalue(0, 1.0, 0.5)


def test_disk_envelope_branches():
    assert disk_envelope(0.5).n_min == 1
    assert disk_envelope(1.2).n_min == 2
    env = disk_envelope(1.0)
    assert env.n_min == 1  # threefold tie at a = 1 breaks toward smaller n
    assert abs(env.lambda_min - (1 - 3 / math.e)) < 1e-12
    assert env.n_max == 0
    assert env.method == "exact"


def test_disk_envelope_lambda_max_is_lambda0():
    for a in np.linspace(0.1, 3.0, 12):
        env = disk_envelope(float(a))
        assert env.n_max == 0
        assert abs(env.lambda_max - disk_eigenvalue(0, float(a))) < 1e-15


def test_disk_envelope_cutoff_warning():
    env = disk_envelope(1.0, n_max=1)
    assert env.n_min == 1
    assert any("cutoff" in w for w in env.warnings)


def test_crossing_radii():
    assert abs(crossing_radius(1) - 1.0) < 1e-9
    assert abs(crossing_radius(2) - math.sqrt((3 + math.sqrt(3)) / 2)) < 1e-9
    assert abs(crossing_radius(3) - A3_CROSSING) < 1e-8
    # past n = 5 both curves round to 1 well inside the scan; that tail
    # must not pass for a crossing
    radii = [crossing_radius(n) for n in range(1, 11)]
    assert all(r1 < r2 < r1 + 1.0 for r1, r2 in zip(radii, radii[1:]))
    for n, r in enumerate(radii, start=1):
        assert abs(disk_eigenvalue(n + 1, r) - disk_eigenvalue(n, r)) < 1e-9
    with pytest.raises(ValueError):
        crossing_radius(0)


def test_extremal_eigenvalues_trivial_matrices():
    zero = KernelMatrix(0.0, 0.1, np.zeros((4, 4)), "null")
    res = extremal_eigenvalues(zero)
    assert (res.lambda_min, res.lambda_max) == (0.0, 0.0)
    diag = KernelMatrix(0.0, 0.1, np.diag([0.3, -0.1]), "diag")
    res = extremal_eigenvalues(diag)
    assert (res.lambda_min, res.lambda_max) == (-0.1, 0.3)
    assert res.method == "nystrom"
    assert res.residual < 1e-14


def test_extremal_eigenvectors_normalized():
    km = assemble(Disk((0.0, 0.0), 1.0), -6.0, 0.025, 481)
    res = extremal_eigenvalues(km)
    assert abs(res.psi_min.norm() - 1.0) < 1e-12
    assert abs(res.psi_max.norm() - 1.0) < 1e-12
    # extremizers live near the disk, not at the window edge
    tails = np.abs(res.psi_max.values[:40])
    assert np.max(tails) < 1e-6


def test_nystrom_matches_envelope():
    env = disk_envelope(1.5)
    res = extremal_eigenvalues(assemble(Disk((0.0, 0.0), 1.5)))
    assert abs(res.lambda_min - env.lambda_min) < 1e-4
    assert abs(res.lambda_max - env.lambda_max) < 1e-4


def test_annulus_envelope_scans_both_sides():
    env = annulus_envelope(1.0, 2.0)
    vals = [annulus_eigenvalue(n, 1.0, 2.0) for n in range(60)]
    assert abs(env.lambda_min - min(vals)) < 1e-15
    assert abs(env.lambda_max - max(vals)) < 1e-15
    assert env.n_max != 0  # the widest ring mode is not the ground mode here


def test_spectrum_result_validation():
    with pytest.raises(ValueError):
        SpectrumResult(lambda_min=1.0, lambda_max=0.0, method="exact")
    with pytest.raises(ValueError):
        SpectrumResult(lambda_min=0.0, lambda_max=1.0, method="magic")
