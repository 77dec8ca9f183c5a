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
from one Laguerre recurrence per quadrature node.  cross_wigner_matrix
is the same matrix from specfun's Chebyshev build, which interpolates
them in the radius, with its node sums used as point values rather than
as radial means; cross_wigner_direct pins it.  It is in turn the area
reference of boundary_wigner_matrix, the route's columns
(specfun.boundary_wigner_columns) mirrored into the whole matrix: with
one recurrence on a few dozen radii instead of one per node, it checks
the boundary build on area rules of thousands of nodes in seconds.

indicator is 1 strictly inside a region and 0 elsewhere, its boundary
included: the point test that the union tests sample overlaps with.
quadrature is an area rule for every bounded region, exact in its
geometry: the reference against which the package's boundary rules
(regions.boundary_rule, and the builds and grid masses on it) are
checked through Green's theorem.  closed_form_area is the area of each
shape from its closed form, the reference for regions.area and for the
areas that boundary_rule encloses.

The fixtures the tests build their inputs with live here too, because
no route of the package needs them:

* oscillator_basis and oscillator_fn, the normalized oscillator
  eigenfunctions h_n(x), for the wavefunctions below and for checking
  cross-Wigner matrices against their defining integral;
* oscillator_state and coherent_state, number and coherent states
  sampled on a position grid (DEFAULT_X0, DEFAULT_DX, DEFAULT_COUNT),
  the sampled inputs of wigner_transform, apply_kernel and the
  acceptance checks; the CLI writes these states from their closed
  forms instead;
* integral_identities (total mass 1, purity 1/(2 pi)) and
  pointwise_bound_report (|W| <= 1/pi), the necessary conditions a
  Wigner grid meets, which the tests check the transform against;
* CanonicalMap, apply_canonical and reduce_ellipse, the unit-determinant
  affine maps of the phase plane and their images of regions, which
  the tests use to check canonical invariance; the exact route reads an
  ellipse as the disk of equal area without building the map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from wigner_bounds import WavefunctionGrid, WignerGrid
from wigner_bounds.regions import (
    Annulus,
    Disk,
    Ellipse,
    Graph,
    PiecewiseLinear,
    Region,
    RegionUnion,
    _MIN_NODES,
    _gauss,
    _graph_knots,
    bounding_box,
)
from wigner_bounds.specfun import _laguerre_columns, _node_sums, boundary_wigner_columns

__all__ = [
    "BoundReport",
    "CanonicalMap",
    "DEFAULT_COUNT",
    "DEFAULT_DX",
    "DEFAULT_POINTS_PER_UNIT",
    "DEFAULT_X0",
    "Identities",
    "apply_canonical",
    "apply_kernel",
    "assemble",
    "boundary_wigner_matrix",
    "coherent_state",
    "cross_wigner_direct",
    "cross_wigner_matrix",
    "indicator",
    "integral_identities",
    "kernel_eval",
    "nystrom_extremes",
    "oscillator_basis",
    "oscillator_fn",
    "oscillator_state",
    "pointwise_bound_report",
    "quadrature",
    "reduce_ellipse",
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
    reduce_ellipse first.
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


def cross_wigner_matrix(n_top: int, q, p, w) -> np.ndarray:
    """M_mn = sum_k w_k W_mn(q_k, p_k) for m, n = 0..n_top, Hermitian,
    on the Chebyshev radii of specfun.boundary_wigner_columns.

    The build is the boundary build's with its node sums G paired with R
    at the radii as they are, M_{n,n+j} = (-1)^n / pi * sum_l
    R_n^(j)(sigma_l) G_{l,j}, in place of the radial mean's C_L^T G.
    """
    return _hermitian(_laguerre_columns(*_node_sums(n_top, q, p, w)))


def boundary_wigner_matrix(n_top: int, q, p, w) -> np.ndarray:
    """B_mn = sum_k w_k Phi_mn(q_k, p_k), Phi_mn(x) = int_0^1 W_mn(u x) u du:
    the columns of specfun.boundary_wigner_columns mirrored into the
    whole Hermitian matrix."""
    return _hermitian(boundary_wigner_columns(n_top, q, p, w))


def _hermitian(columns) -> np.ndarray:
    # the whole matrix from its upper-triangle columns, mirrored once
    cols = list(columns)
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for s, col in enumerate(cols):
        out[: s + 1, s] = col
    out += np.triu(out, 1).conj().T
    return out


# --- area rules ---------------------------------------------------------

def indicator(s: Region, q, p):
    """1 strictly inside s, else 0; vectorizes over q, p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    q, p = np.broadcast_arrays(q, p)
    if isinstance(s, Disk):
        out = (q - s.center[0]) ** 2 + (p - s.center[1]) ** 2 < s.radius**2
    elif isinstance(s, Annulus):
        d2 = (q - s.center[0]) ** 2 + (p - s.center[1]) ** 2
        out = (d2 > s.r_inner**2) & (d2 < s.r_outer**2)
    elif isinstance(s, Ellipse):
        ca, sa = math.cos(s.angle), math.sin(s.angle)
        u = ca * (q - s.center[0]) + sa * (p - s.center[1])
        v = -sa * (q - s.center[0]) + ca * (p - s.center[1])
        out = (u / s.semi_major) ** 2 + (v / s.semi_minor) ** 2 < 1.0
    elif isinstance(s, Graph):
        out = np.zeros(q.shape, dtype=bool)
        strip = (q > s.b) & (q < s.c)
        if np.any(strip):
            qq, pp = q[strip], p[strip]
            out[strip] = (pp > s.f1.evaluate(qq)) & (pp < s.f2.evaluate(qq))
    elif isinstance(s, RegionUnion):
        out = np.zeros(q.shape, dtype=bool)
        for part in s.parts:
            out |= indicator(part, q, p) > 0  # an int at a single point
    else:
        raise TypeError("not a region: %r" % (s,))
    out = out.astype(int)
    return out if out.ndim else int(out)


def closed_form_area(s: Region) -> float:
    """Area from each shape's closed form: pi r^2, pi a b, pi (r_out^2 -
    r_in^2), the trapezoid rule over a graph's knots (exact for its
    piecewise-linear boundaries), +inf for an unbounded graph, and a
    union's parts summed.  regions.area sums around boundary_rule instead."""
    if isinstance(s, Disk):
        return math.pi * s.radius**2
    if isinstance(s, Ellipse):
        return math.pi * s.semi_major * s.semi_minor
    if isinstance(s, Annulus):
        return math.pi * (s.r_outer**2 - s.r_inner**2)
    if isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            return math.inf
        qs = _graph_knots(s)
        gap = s.f2.evaluate(qs) - s.f1.evaluate(qs)
        return float(np.sum((gap[1:] + gap[:-1]) * np.diff(qs)) / 2.0)
    return sum(closed_form_area(part) for part in s.parts)


def _conic_rule(s, density: float):
    # polar rule on the unit-scaled shape, mapped through the axes
    if isinstance(s, Ellipse):
        a, b, angle, r0, r1 = s.semi_major, s.semi_minor, s.angle, 0.0, 1.0
    elif isinstance(s, Disk):
        a, b, angle, r0, r1 = s.radius, s.radius, 0.0, 0.0, 1.0
    else:
        a, b, angle, r0, r1 = 1.0, 1.0, 0.0, s.r_inner, s.r_outer
    reach = max(a, b)
    rho, w_rho = _gauss(r0, r1, (r1 - r0) * reach, density)
    m = _MIN_NODES + math.ceil(density * 2.0 * math.pi * r1 * reach)
    phi = 2.0 * math.pi * np.arange(m) / m
    u = a * np.outer(rho, np.cos(phi))
    v = b * np.outer(rho, np.sin(phi))
    ca, sa = math.cos(angle), math.sin(angle)
    q = s.center[0] + ca * u - sa * v
    p = s.center[1] + sa * u + ca * v
    w = np.outer(w_rho * rho * (2.0 * math.pi * a * b / m), np.ones(m))
    return q.ravel(), p.ravel(), w.ravel()


def quadrature(s: Region, density: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes q, p and weights w with sum w f(q, p) ~ integral of f over s.

    The rule is exact in the geometry: a tensor Gauss-Legendre rule on
    each trapezoid between consecutive knots of a graph, radial Gauss
    nodes times uniform angles on disks and annuli, the same mapped
    through the axes on ellipses, and the parts' rules concatenated for
    a union.  Every direction of every panel gets 12 + density * length
    nodes (split in turn into equal parts of at most 140 nodes, as
    regions._gauss does), so smooth integrands that vary on scales well
    above 1/density are integrated to rounding.  Unbounded regions raise.
    """
    if isinstance(s, (Disk, Ellipse, Annulus)):
        return _conic_rule(s, density)
    if isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            raise ValueError("quadrature needs a bounded region")
        qs = _graph_knots(s)
        lo, hi = s.f1.evaluate(qs), s.f2.evaluate(qs)
        parts = []
        for i in range(len(qs) - 1):
            tq, wq = _gauss(qs[i], qs[i + 1], qs[i + 1] - qs[i], density)
            gap = max(hi[i] - lo[i], hi[i + 1] - lo[i + 1])
            tp, wp = _gauss(0.0, 1.0, gap, density)
            f1 = np.interp(tq, qs[i : i + 2], lo[i : i + 2])
            height = np.interp(tq, qs[i : i + 2], hi[i : i + 2]) - f1
            parts.append(
                (
                    np.repeat(tq, len(tp)),
                    (f1[:, None] + height[:, None] * tp).ravel(),
                    np.outer(wq * height, wp).ravel(),
                )
            )
    elif isinstance(s, RegionUnion):
        parts = [quadrature(part, density) for part in s.parts]
    else:
        raise TypeError("not a region: %r" % (s,))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


# --- oscillator eigenfunctions and sampled states ---------------------

def oscillator_basis(n_top: int, x) -> np.ndarray:
    """h_0(x) .. h_{n_top}(x) stacked on a new leading axis.

    h_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2} is the normalized
    oscillator eigenfunction.  The Gaussian is folded into the starting
    value and the recurrence is carried in normalized form,

        h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1},

    so intermediate values stay of order one for n <= 200, |x| <= 20.
    """
    if n_top < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.empty((n_top + 1,) + x.shape)
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    hm = np.zeros_like(x)
    for k in range(n_top):
        hm, out[k + 1] = out[k], x * np.sqrt(2.0 / (k + 1)) * out[k] - np.sqrt(k / (k + 1.0)) * hm
    return out


def oscillator_fn(n: int, x):
    """Normalized oscillator eigenfunction h_n(x), the last row of oscillator_basis."""
    out = oscillator_basis(n, x)[n]
    return out if out.ndim else float(out)


# default position grid: [-8, 8] holds number states up to n = 7, and at
# dx = 0.005 wigner_transform off the sample nodes errs below 2e-5 to n = 5
DEFAULT_X0 = -8.0
DEFAULT_DX = 0.005
DEFAULT_COUNT = 3201


def oscillator_state(
    n: int,
    x0: float = DEFAULT_X0,
    dx: float = DEFAULT_DX,
    count: int = DEFAULT_COUNT,
) -> WavefunctionGrid:
    """Number state n sampled on a uniform grid.

    The grid must span [-(sqrt(2n+1)+4), sqrt(2n+1)+4] so that the
    classically allowed region plus four units of Gaussian tail fit; the
    sampled values then carry unit norm to better than 1e-8.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    reach = np.sqrt(2.0 * n + 1.0) + 4.0
    xmax = x0 + dx * (count - 1)
    if x0 > -reach or xmax < reach:
        raise ValueError(
            "insufficient support: grid [%g, %g] must span [-%g, %g]"
            % (x0, xmax, reach, reach)
        )
    xs = x0 + dx * np.arange(count)
    return WavefunctionGrid(x0, dx, oscillator_fn(n, xs).astype(complex))


def coherent_state(
    q0: float,
    p0: float,
    x0: float = DEFAULT_X0,
    dx: float = DEFAULT_DX,
    count: int = DEFAULT_COUNT,
) -> WavefunctionGrid:
    """Coherent state pi^{-1/4} exp(-(x-q0)^2/2 + i p0 x).

    The grid must cover q0 +- 8.  Oscillations go as exp(i p0 x); keep
    dx well below 1/|p0| or the samples alias.  q0 and p0 must be finite.
    """
    if not (np.isfinite(q0) and np.isfinite(p0)):
        raise ValueError("coherent state needs finite q0 and p0, got %r, %r" % (q0, p0))
    xmax = x0 + dx * (count - 1)
    if x0 > q0 - 8.0 or xmax < q0 + 8.0:
        raise ValueError(
            "insufficient support: grid [%g, %g] must cover [%g, %g]"
            % (x0, xmax, q0 - 8.0, q0 + 8.0)
        )
    xs = x0 + dx * np.arange(count)
    values = np.pi ** -0.25 * np.exp(-0.5 * (xs - q0) ** 2 + 1j * p0 * xs)
    return WavefunctionGrid(x0, dx, values)


# --- grid identities and pointwise bounds -------------------------------

class Identities(NamedTuple):
    total: float
    purity: float


def integral_identities(w: WignerGrid) -> Identities:
    """Riemann sums of W and W^2; expect 1 and 1/(2 pi) for a pure state."""
    cell = w.dq * w.dp
    return Identities(
        total=float(np.sum(w.w) * cell),
        purity=float(np.sum(w.w**2) * cell),
    )


class BoundReport(NamedTuple):
    wmin: float
    wmax: float
    ok: bool


def pointwise_bound_report(w: WignerGrid, allowance: float = 0.0) -> BoundReport:
    """Extrema of the grid against the sharp pointwise bounds +-1/pi.

    The verdict tolerates 1e-6 plus whatever discretization allowance the
    caller supplies.
    """
    wmin = float(np.min(w.w))
    wmax = float(np.max(w.w))
    tol = 1e-6 + allowance
    bound = 1.0 / np.pi
    return BoundReport(wmin, wmax, wmin >= -bound - tol and wmax <= bound + tol)


# --- canonical maps -----------------------------------------------------

@dataclass(frozen=True)
class CanonicalMap:
    """Affine map q' = alpha q + beta p + gamma, p' = nu q + mu p + rho, det 1."""

    alpha: float
    beta: float
    gamma: float
    mu: float
    nu: float
    rho: float

    def __post_init__(self):
        if abs(self.alpha * self.mu - self.beta * self.nu - 1.0) > 1e-12:
            raise ValueError("map must have unit determinant (alpha mu - beta nu = 1)")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.alpha, self.beta], [self.nu, self.mu]])

    @property
    def shift(self) -> np.ndarray:
        return np.array([self.gamma, self.rho])

    def apply(self, q, p):
        return (
            self.alpha * q + self.beta * p + self.gamma,
            self.nu * q + self.mu * p + self.rho,
        )


def _map_from_parts(matrix: np.ndarray, shift: np.ndarray) -> CanonicalMap:
    return CanonicalMap(
        alpha=float(matrix[0, 0]),
        beta=float(matrix[0, 1]),
        gamma=float(shift[0]),
        mu=float(matrix[1, 1]),
        nu=float(matrix[1, 0]),
        rho=float(shift[1]),
    )


def _ellipse_quadratic(s) -> tuple[np.ndarray, np.ndarray]:
    # (x-c)^T A (x-c) = 1 on the boundary
    if isinstance(s, Disk):
        a = b = s.radius
        ang = 0.0
    else:
        a, b, ang = s.semi_major, s.semi_minor, s.angle
    ca, sa = math.cos(ang), math.sin(ang)
    rot = np.array([[ca, -sa], [sa, ca]])
    A = rot @ np.diag([a**-2.0, b**-2.0]) @ rot.T
    return A, np.asarray(s.center, dtype=float)


def _ellipse_from_quadratic(A: np.ndarray, center: np.ndarray) -> Region:
    evals, evecs = np.linalg.eigh(A)
    axes = evals**-0.5  # descending axes since eigh sorts ascending
    if abs(axes[0] - axes[1]) <= 1e-12 * axes[0]:
        return Disk(center=tuple(center), radius=float(np.sqrt(axes[0] * axes[1])))
    major = evecs[:, 0]
    return Ellipse(
        center=tuple(center),
        semi_major=float(axes[0]),
        semi_minor=float(axes[1]),
        angle=float(math.atan2(major[1], major[0]) % math.pi),
    )


def apply_canonical(s: Region, m: CanonicalMap) -> Region:
    """Image of s under m, within the same shape family.

    Disks and ellipses map to disks or ellipses for any canonical map.
    Annuli survive only rigid maps (rotation plus translation) and graphs
    only maps with beta = 0; anything else raises.
    """
    M, t = m.matrix, m.shift
    if isinstance(s, (Disk, Ellipse)):
        A, c = _ellipse_quadratic(s)
        Minv = np.array([[m.mu, -m.beta], [-m.nu, m.alpha]])  # inverse, det 1
        return _ellipse_from_quadratic(Minv.T @ A @ Minv, M @ c + t)
    if isinstance(s, Annulus):
        if np.max(np.abs(M.T @ M - np.eye(2))) > 1e-12:
            raise ValueError("shape not closed under map: annulus needs a rigid map")
        cq, cp = M @ np.asarray(s.center) + t
        return Annulus(center=(float(cq), float(cp)), r_inner=s.r_inner, r_outer=s.r_outer)
    if isinstance(s, Graph):
        if m.beta != 0.0:
            raise ValueError("shape not closed under map: graph needs beta = 0")

        def image(f: PiecewiseLinear) -> PiecewiseLinear:
            qs = m.alpha * f.qs + m.gamma
            vals = m.mu * f.values + m.nu * f.qs + m.rho
            if m.alpha < 0:
                qs, vals = qs[::-1], vals[::-1]
            return PiecewiseLinear(qs.copy(), vals.copy())

        lo, hi = m.alpha * s.b + m.gamma, m.alpha * s.c + m.gamma
        g1, g2 = image(s.f1), image(s.f2)
        if m.alpha < 0:  # mu = 1/alpha < 0 flips the vertical order too
            lo, hi, g1, g2 = hi, lo, g2, g1
        return Graph(b=lo, c=hi, f1=g1, f2=g2)
    if isinstance(s, RegionUnion):
        return RegionUnion(tuple(apply_canonical(part, m) for part in s.parts))
    raise TypeError("not a region: %r" % (s,))


def reduce_ellipse(e: Ellipse) -> tuple[float, CanonicalMap]:
    """Area-preserving map taking e onto the origin-centered disk of equal area.

    Returns (radius, map) with radius = sqrt(semi_major * semi_minor).
    Rotate the axes straight, then squeeze both onto the mean radius; the
    squeeze has unit determinant by construction.
    """
    a, b = e.semi_major, e.semi_minor
    r = math.sqrt(a * b)
    ca, sa = math.cos(e.angle), math.sin(e.angle)
    rot_back = np.array([[ca, sa], [-sa, ca]])
    M = np.diag([r / a, r / b]) @ rot_back
    shift = -M @ np.asarray(e.center, dtype=float)
    m = _map_from_parts(M, shift)
    phi = 2.0 * np.pi * np.arange(16) / 16.0
    bq = e.center[0] + a * np.cos(phi) * ca - b * np.sin(phi) * sa
    bp = e.center[1] + a * np.cos(phi) * sa + b * np.sin(phi) * ca
    iq, ip = m.apply(bq, bp)
    if np.max(np.abs(np.hypot(iq, ip) - r)) > 1e-10:
        raise RuntimeError("ellipse reduction failed its boundary check")
    return r, m
