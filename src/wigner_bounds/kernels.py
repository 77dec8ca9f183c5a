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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .regions import (
    Annulus,
    Disk,
    Ellipse,
    Graph,
    Region,
    RegionUnion,
    area,
    bounding_box,
)
from .states import WavefunctionGrid

__all__ = [
    "DEFAULT_POINTS_PER_UNIT",
    "KernelMatrix",
    "apply_kernel",
    "assemble",
    "default_window",
    "kernel_eval",
]

# switch to the analytic diagonal limit below this |x - y|
NEAR_DIAGONAL = 1e-8

# density meeting the documented 1e-4 eigenvalue accuracy on disks
DEFAULT_POINTS_PER_UNIT = 100


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetrized Nystrom matrix of a region kernel on a uniform grid."""

    x0: float
    dx: float
    a: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        if np.max(np.abs(a - a.conj().T)) > 1e-12:
            raise ValueError("matrix must be Hermitian to 1e-12")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "warnings", tuple(self.warnings))

    def __len__(self) -> int:
        return self.a.shape[0]

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.a.shape[0])


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


def default_window(s: Region) -> tuple[float, float, int]:
    """(x0, dx, count) for a symmetric window sized to the region.

    Half-width max(6, 2.5 * q-extent) at DEFAULT_POINTS_PER_UNIT points
    per unit; wide enough that the certified eigenfunctions' tails are
    negligible for desk-scale regions.
    """
    qmin, qmax, _, _ = bounding_box(s)
    extent = max(abs(qmin), abs(qmax))
    if not np.isfinite(extent):
        raise ValueError("unbounded region needs an explicit window")
    half = max(6.0, 2.5 * extent)
    count = int(round(2 * half * DEFAULT_POINTS_PER_UNIT)) + 1
    return -half, 2 * half / (count - 1), count


def assemble(
    s: Region,
    x0: float | None = None,
    dx: float | None = None,
    count: int | None = None,
) -> KernelMatrix:
    """Nystrom matrix a_ij = dx K(x_i, x_j), symmetrized to (a + a^H)/2.

    Any unspecified grid parameter pulls in the default window.  A trace
    check against area/(2 pi) flags windows that miss part of a bounded
    region; the warning is attached to the result, not raised.
    """
    if x0 is None or dx is None or count is None:
        if not (x0 is None and dx is None and count is None):
            raise ValueError("give all of x0, dx, count or none of them")
        x0, dx, count = default_window(s)
    if count < 2 or dx <= 0:
        raise ValueError("need dx > 0 and at least two grid points")
    xs = x0 + dx * np.arange(count)
    a = dx * kernel_eval(s, xs[:, None], xs[None, :])
    a = (a + a.conj().T) / 2.0
    notes = []
    ar = area(s)
    if np.isfinite(ar) and ar > 1e-8:
        expect = ar / (2.0 * np.pi)
        got = float(np.real(np.trace(a)))
        if abs(got - expect) > 0.01 * expect:
            notes.append(
                "window too small: trace %.6g vs area/(2pi) %.6g" % (got, expect)
            )
    return KernelMatrix(x0=x0, dx=dx, a=a, warnings=tuple(notes))
