"""Test oracle: Hermitian integral kernels of phase-plane regions in position space.

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
error O(h)) and nystrom_extremes diagonalizes it: an oracle for the
closed forms and the number-basis route that shares no code with them.

cross_wigner_direct is the number-basis matrix of cross-Wigner functions
from one Laguerre recurrence per quadrature node, the oracle for
specfun.cross_wigner_matrix, which interpolates them in the radius.
"""
from __future__ import annotations

import numpy as np

from wigner_bounds.regions import (
    Annulus,
    Disk,
    Ellipse,
    Graph,
    Region,
    RegionUnion,
    bounding_box,
)
from wigner_bounds.states import WavefunctionGrid

__all__ = [
    "DEFAULT_POINTS_PER_UNIT",
    "apply_kernel",
    "assemble",
    "cross_wigner_direct",
    "kernel_eval",
    "nystrom_extremes",
]

# switch to the analytic diagonal limit below this |x - y|
NEAR_DIAGONAL = 1e-8

# density meeting the documented 1e-4 eigenvalue accuracy on disks
DEFAULT_POINTS_PER_UNIT = 100

# quadrature points per block in cross_wigner_direct
_DIRECT_BLOCK = 2048


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


def nystrom_extremes(s: Region, window) -> tuple[float, float]:
    """(lambda_min, lambda_max) of s's kernel discretized on the window
    (LO, HI) at DEFAULT_POINTS_PER_UNIT, round((HI - LO) * 100) + 1
    uniform points: 1201 on (-6, 6)."""
    lo, hi = window
    count = round((hi - lo) * DEFAULT_POINTS_PER_UNIT) + 1
    eigs = np.linalg.eigvalsh(assemble(s, lo, (hi - lo) / (count - 1), count))
    return float(eigs[0]), float(eigs[-1])


def cross_wigner_direct(n_top: int, q, p, w) -> np.ndarray:
    """M_mn = sum_k w_k W_mn(q_k, p_k) for m, n = 0..n_top, Hermitian,
    from one Laguerre recurrence per quadrature node.

    W_mn(q, p) = (1/pi) int psi_m*(q+x) psi_n(q-x) e^{2ipx} dx is the
    cross-Wigner function of oscillator eigenfunctions m and n.  With
    x = 2(q^2 + p^2) and j >= 0 it is (Cahill & Glauber 1969)

        W_{n,n+j} = (-1)^n / pi * (sqrt(2) (q - ip))^j sqrt(n!/(n+j)!)
                    L_n^{(j)}(x) e^{-x/2},

    and W_{n+j,n} is its conjugate.  For every offset j the normalized
    Laguerre functions u_n = W_{n,n+j} pi (-1)^n are swept forward in n,

        u_n = (2n-1+j-x) / sqrt(n(n+j)) u_{n-1}
              - sqrt((n-1)(n-1+j) / (n(n+j))) u_{n-2},

    from u_0 = (sqrt(2) (q - ip))^j e^{-x/2} / sqrt(j!), built up one
    factor of j at a time.  The phase rides along in the starting
    values and |u_n| <= 1 throughout.  All offsets advance together, so
    the work is n_top + 1 array steps per block of points, and the
    working arrays never exceed (n_top + 1) x _DIRECT_BLOCK entries.
    """
    if n_top < 0:
        raise ValueError("degree must be nonnegative")
    q, p, w = (np.ravel(np.asarray(v, dtype=float)) for v in (q, p, w))
    if not q.shape == p.shape == w.shape:
        raise ValueError("need matching point and weight arrays")
    count = n_top + 1
    out = np.zeros((count, count), dtype=complex)
    j = np.arange(count, dtype=float)[:, None]
    for start in range(0, q.size, _DIRECT_BLOCK):
        block = slice(start, start + _DIRECT_BLOCK)
        x = 2.0 * (q[block] ** 2 + p[block] ** 2)
        z = np.sqrt(2.0) * (q[block] - 1j * p[block])
        wb = w[block].astype(complex)
        uc = np.empty((count, x.size), dtype=complex)
        uc[0] = np.exp(-0.5 * x)
        for k in range(1, count):
            uc[k] = uc[k - 1] * (z / np.sqrt(k))
        um = np.zeros_like(uc)
        shift = j - x
        a = np.empty_like(shift)
        for n in range(count):
            if n:
                jn = j[: count - n]
                an = np.add(shift[: count - n], 2 * n - 1, out=a[: count - n])
                an /= np.sqrt(n * (n + jn))
                un = an * uc[: count - n]
                un -= np.sqrt((n - 1) * (n - 1 + jn) / (n * (n + jn))) * um[: count - n]
                um, uc = uc, un
            out[n, n:] += uc @ wb
    out *= ((-1.0) ** np.arange(count) / np.pi)[:, None]
    upper = np.triu(out, 1)
    return np.triu(out) + upper.conj().T
