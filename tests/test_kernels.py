"""The position-space kernel oracle: closed forms, Hermiticity, assembly, translation."""
import math

import numpy as np
import pytest
from scipy import stats

from wigner_bounds import (
    Annulus,
    Disk,
    Ellipse,
    Graph,
    PiecewiseLinear,
    RegionUnion,
    disk_spectrum,
)
from oracle import apply_kernel, assemble, coherent_state, kernel_eval, oscillator_state

# sin(0.5) / (0.5 pi): the strip |p| < 1 kernel at x = 0.5, y = 0
STRIP_AT_HALF = 0.30521177725341280


def strip():
    ones = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    mones = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([-1.0, -1.0]))
    return Graph(b=-1.0, c=1.0, f1=mones, f2=ones)


def test_strip_kernel_frozen_value():
    got = kernel_eval(strip(), 0.5, 0.0)
    assert abs(got - STRIP_AT_HALF) < 1e-15
    assert abs(got.imag) < 1e-16


def test_disk_kernel_closed_form():
    s = Disk((0.0, 0.0), 1.5)
    x, y = 0.4, -0.3
    r = math.sqrt(1.5**2 - ((x + y) / 2) ** 2)
    want = math.sin((x - y) * r) / (math.pi * (x - y))
    assert abs(kernel_eval(s, x, y) - want) < 1e-15


def test_disk_kernel_diagonal_and_band_edge():
    s = Disk((0.0, 0.0), 1.0)
    assert abs(kernel_eval(s, 0.6, 0.6) - math.sqrt(1 - 0.36) / math.pi) < 1e-15
    assert kernel_eval(s, 1.2, 0.9) == 0.0  # midpoint beyond the radius
    near = kernel_eval(s, 0.6 + 1.5e-9, 0.6 - 1.5e-9)
    assert abs(near - kernel_eval(s, 0.6, 0.6)) < 1e-8


def test_graph_kernel_diagonal_limit():
    s = strip()
    assert abs(kernel_eval(s, 0.2, 0.2) - 1.0 / math.pi) < 1e-15
    near = kernel_eval(s, 0.2 + 1e-9, 0.2 - 1e-9)
    assert abs(near - 1.0 / math.pi) < 1e-9
    assert kernel_eval(s, 1.5, 0.9) == 0.0  # midpoint outside (b, c)


def test_kernel_hermitian_property():
    """K(x, y) = conj(K(y, x)) across every shape, 1000 random pairs."""
    rng = np.random.default_rng(20260814)
    xs = rng.uniform(-3.0, 3.0, 1000)
    ys = rng.uniform(-3.0, 3.0, 1000)
    shapes = [
        Disk((0.0, 0.0), 1.0),
        Disk((0.7, -1.2), 0.8),
        Annulus((0.3, 0.4), 0.5, 1.2),
        strip(),
        RegionUnion((Disk((-2.0, 0.0), 0.6), Disk((2.0, 0.5), 0.6))),
    ]
    for s in shapes:
        assert np.max(np.abs(kernel_eval(s, xs, ys) - np.conj(kernel_eval(s, ys, xs)))) < 1e-12


def test_union_kernel_adds_part_kernels():
    a = Disk((-2.0, 0.0), 0.6)
    b = Disk((2.0, 0.5), 0.6)
    xs = np.linspace(-3, 3, 41)
    ka = kernel_eval(a, xs[:, None], xs[None, :])
    kb = kernel_eval(b, xs[:, None], xs[None, :])
    ku = kernel_eval(RegionUnion((a, b)), xs[:, None], xs[None, :])
    assert np.array_equal(ku, ka + kb)


def test_ellipse_kernel_refused():
    with pytest.raises(ValueError, match="reduce to disk first"):
        kernel_eval(Ellipse((0.0, 0.0), 2.0, 0.5), 0.1, 0.0)


def test_offcenter_disk_against_noncentral_chi2():
    """Mass of a coherent state's Gaussian Wigner function on an
    off-center disk is a noncentral chi-square tail; the kernel
    quadratic form must reproduce it."""
    q0, p0 = 0.4, -0.3
    cq, cp, a = 1.1, 0.6, 0.9
    psi = coherent_state(q0, p0, -9.0, 0.005, 3601)
    xs = psi.xs
    k = kernel_eval(Disk((cq, cp), a), xs[:, None], xs[None, :])
    qform = float(np.real(np.vdot(psi.values, k @ psi.values)) * psi.dx**2)
    want = stats.ncx2.cdf(2 * a * a, 2, 2 * ((q0 - cq) ** 2 + (p0 - cp) ** 2))
    assert abs(qform - want) < 1e-4


def test_translation_covariance():
    """Q_{S+v} in a coherent state equals Q_S in the back-shifted state."""
    a = 0.9
    psi = coherent_state(0.4, -0.3, -9.0, 0.005, 3601)
    shifted = coherent_state(0.4 - 1.1, -0.3 - 0.6, -9.0, 0.005, 3601)
    xs = psi.xs
    k_moved = kernel_eval(Disk((1.1, 0.6), a), xs[:, None], xs[None, :])
    k_home = kernel_eval(Disk((0.0, 0.0), a), xs[:, None], xs[None, :])
    lhs = np.real(np.vdot(psi.values, k_moved @ psi.values)) * psi.dx**2
    rhs = np.real(np.vdot(shifted.values, k_home @ shifted.values)) * psi.dx**2
    assert abs(lhs - rhs) < 1e-10


def test_apply_kernel_eigenrelation():
    psi = oscillator_state(0)
    out = apply_kernel(Disk((0.0, 0.0), 1.0), psi)
    lam = disk_spectrum(1.0, 0)[0]
    resid = math.sqrt(float(np.sum(np.abs(out.values - lam * psi.values) ** 2)) * psi.dx)
    assert resid < 1e-4


def test_apply_kernel_needs_support():
    with pytest.raises(ValueError, match="support not covered"):
        apply_kernel(Disk((9.0, 0.0), 0.5), oscillator_state(0))


def test_assemble_trace_matches_area():
    a = assemble(Disk((0.0, 0.0), 1.0), -6.0, 0.01, 1201)
    want = math.pi / (2 * math.pi)
    assert abs(np.real(np.trace(a)) - want) < 0.005 * want
    assert np.array_equal(a, a.conj().T)  # Hermitian by construction


def test_assemble_window_warning():
    """A grid that misses part of a bounded region's q extent is refused."""
    with pytest.raises(ValueError, match="support not covered"):
        assemble(Disk((0.0, 0.0), 1.0), -0.5, 0.01, 101)


def test_assemble_needs_all_grid_args():
    with pytest.raises(TypeError, match="dx"):
        assemble(Disk((0.0, 0.0), 1.0), x0=-6.0)


def test_assemble_empty_disk_is_numerically_null():
    """A vanishing disk has a vanishing kernel matrix.  The window is
    offset so no quadrature pair straddles x + y = 0 head-on; symmetric
    windows resolve the band as one anti-diagonal of height dx a/pi."""
    eigs = np.linalg.eigvalsh(assemble(Disk((0.0, 0.0), 1e-6), -6.0033, 0.01, 1201))
    assert np.max(np.abs(eigs)) < 1e-11


def test_assemble_disk_spectrum_many_modes():
    """Eigenvalues of the discretized disk kernel track the closed-form
    curve values for n <= 10."""
    eigs = np.linalg.eigvalsh(assemble(Disk((0.0, 0.0), 1.0), -6.0, 12.0 / 960, 961))
    for n in range(11):
        lam = disk_spectrum(1.0, n)[n]
        assert np.min(np.abs(eigs - lam)) < 1e-4

