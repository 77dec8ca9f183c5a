"""Hermitian integral kernels attached to phase-plane regions.

For a graph region b < q < c, F1(q) < p < F2(q) the kernel is

    K(x, y) = [e^{i(x-y)F2(s)} - e^{i(x-y)F1(s)}] / (2 pi i (x-y)),
    s = (x+y)/2,

for 2b < x+y < 2c and zero otherwise; the x = y singularity is only
apparent, with limit (F2 - F1)(s)/(2 pi).  A disk of radius a centered
at the origin has the real closed form

    K(x, y) = sin[(x-y) sqrt(a^2 - (x+y)^2/4)] / (pi (x-y)),  |x+y| < 2a,

with diagonal limit sqrt(a^2 - x^2)/pi.  Translating a region by
(q0, p0) conjugates its kernel by a unitary: the kernel picks up a
phase e^{i p0 (x-y)} and shifted arguments, so off-center disks and
annuli are handled exactly.  Annulus kernels are differences of two
disk kernels and union kernels are sums of part kernels; integrals of
the Wigner function over the region are inner products against this
operator, so its extreme eigenvalues are the sharp bounds.

assemble discretizes the kernel on a named position grid (Nystrom,
error O(h)).  spectra.nystrom_extremes diagonalizes it, the route
bounds() takes only for unbounded regions without a closed form; for
bounded regions it is a verification oracle for the number-basis route.
"""
from __future__ import annotations

import numpy as np

from .regions import (
    Annulus,
    Disk,
    Ellipse,
    Graph,
    Region,
    RegionUnion,
    bounding_box,
)
from .states import WavefunctionGrid

__all__ = [
    "DEFAULT_POINTS_PER_UNIT",
    "apply_kernel",
    "assemble",
    "kernel_eval",
]

# switch to the analytic diagonal limit below this |x - y|
NEAR_DIAGONAL = 1e-8

# density meeting the documented 1e-4 eigenvalue accuracy on disks
DEFAULT_POINTS_PER_UNIT = 100


def _disk_kernel(radius: float, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    # centered disk in the (mean, difference) coordinates m=(x+y)/2, d=x-y
    out = np.zeros(np.broadcast(m, d).shape)
    band = np.abs(m) < radius
    r = np.sqrt(np.maximum(radius * radius - m * m, 0.0))
    small = np.abs(d) < NEAR_DIAGONAL
    reg = band & ~small
    dia = band & small
    out[reg] = np.sin(d[reg] * r[reg]) / (np.pi * d[reg])
    out[dia] = r[dia] / np.pi
    return out


def _graph_kernel(s: Graph, m: np.ndarray, d: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast(m, d).shape, dtype=complex)
    band = (m > s.b) & (m < s.c)
    if not np.any(band):
        return out
    mm, dd = m[band], d[band]
    f1 = np.asarray(s.f1.evaluate(mm))
    f2 = np.asarray(s.f2.evaluate(mm))
    small = np.abs(dd) < NEAR_DIAGONAL
    vals = np.empty(mm.shape, dtype=complex)
    dr = dd[~small]
    vals[~small] = (np.exp(1j * dr * f2[~small]) - np.exp(1j * dr * f1[~small])) / (
        2j * np.pi * dr
    )
    vals[small] = (f2[small] - f1[small]) / (2.0 * np.pi)
    out[band] = vals
    return out


def kernel_eval(s: Region, x, y):
    """Kernel K_S(x, y); vectorizes over broadcastable x, y.

    Ellipses have no direct closed form here; reduce them to a disk with
    regions.reduce_ellipse first.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    m = (x + y) / 2.0
    d = x - y
    if isinstance(s, Disk):
        cq, cp = s.center
        out = _disk_kernel(s.radius, m - cq, d) * np.exp(1j * cp * d)
    elif isinstance(s, Annulus):
        cq, cp = s.center
        ring = _disk_kernel(s.r_outer, m - cq, d)
        if s.r_inner > 0.0:
            ring = ring - _disk_kernel(s.r_inner, m - cq, d)
        out = ring * np.exp(1j * cp * d)
    elif isinstance(s, Graph):
        out = _graph_kernel(s, m, d)
    elif isinstance(s, RegionUnion):
        out = np.zeros(m.shape, dtype=complex)
        for part in s.parts:
            out = out + kernel_eval(part, x, y)
    elif isinstance(s, Ellipse):
        raise ValueError("reduce to disk first: no direct ellipse kernel")
    else:
        raise TypeError("not a region: %r" % (s,))
    out = np.asarray(out, dtype=complex)
    return out if out.ndim else complex(out)


def _check_q_support(s: Region, x0: float, xmax: float) -> None:
    if isinstance(s, RegionUnion):
        for part in s.parts:
            _check_q_support(part, x0, xmax)
        return
    qmin, qmax, _, _ = bounding_box(s)
    if np.isfinite(qmin) and np.isfinite(qmax):
        if qmin < x0 - 1e-9 or qmax > xmax + 1e-9:
            raise ValueError(
                "support not covered: region spans q in [%g, %g], grid is [%g, %g]"
                % (qmin, qmax, x0, xmax)
            )


def apply_kernel(s: Region, psi: WavefunctionGrid) -> WavefunctionGrid:
    """(K_S psi)(x_i) = sum_j K(x_i, x_j) psi(x_j) dx on psi's grid.

    The grid must cover the region's q extent; accuracy additionally
    needs psi's own tails to be small near the grid edges, which is the
    caller's choice of window.
    """
    _check_q_support(s, psi.x0, psi.xmax)
    xs = psi.xs
    k = kernel_eval(s, xs[:, None], xs[None, :])
    return WavefunctionGrid(psi.x0, psi.dx, (k @ psi.values) * psi.dx)


def assemble(s: Region, x0: float, dx: float, count: int) -> np.ndarray:
    """Nystrom matrix a_ij = dx K(x_i, x_j), symmetrized to (a + a^H)/2,
    so Hermitian by construction.

    The grid x0 + dx * arange(count) must cover the q extent of every
    bounded part of s, as for apply_kernel.
    """
    if count < 2 or dx <= 0:
        raise ValueError("need dx > 0 and at least two grid points")
    xs = x0 + dx * np.arange(count)
    _check_q_support(s, x0, xs[-1])
    a = dx * kernel_eval(s, xs[:, None], xs[None, :])
    return (a + a.conj().T) / 2.0
