"""Number-basis matrices of the cross-Wigner functions of the oscillator basis.

All evaluation runs through three-term recurrences so no factorials or
binomial tables are formed.

cross_wigner_matrix, the number-basis matrix of a region's kernel, splits
each cross-Wigner function W_{n,n+j}(q, p) into a phase e^{-ij theta}
and a real radial function R_n^(j)(s) of s = sqrt(2 (q^2 + p^2)), and
interpolates R from a few dozen Chebyshev radii.  The quadrature nodes
then enter through one matrix product per block of nodes, and the
Laguerre recurrence runs on those radii instead of on every node.
boundary_wigner_matrix is the same build for the radial mean
int_0^1 W(u q, u p) u du, which Green's theorem integrates around the
region's boundary instead of over its area: one more product, with a
table that depends only on the number of radii.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "boundary_wigner_matrix",
    "cross_wigner_matrix",
]

# quadrature points per block in cross_wigner_matrix; bounds its working
# arrays to max(Chebyshev radii, basis size) x (block) entries
_POINT_BLOCK = 2048


def cross_wigner_matrix(n_top: int, q, p, w) -> np.ndarray:
    """M_mn = sum_k w_k W_mn(q_k, p_k) for m, n = 0..n_top, Hermitian.

    W_mn(q, p) = (1/pi) int psi_m*(q+x) psi_n(q-x) e^{2ipx} dx is the
    cross-Wigner function of oscillator eigenfunctions m and n.  With
    s = sqrt(2 (q^2 + p^2)), e^{-i theta} = sqrt(2) (q - ip) / s and
    j >= 0 it is (Cahill & Glauber 1969)

        W_{n,n+j} = (-1)^n / pi * e^{-ij theta} R_n^(j)(s),
        R_n^(j)(s) = s^j sqrt(n!/(n+j)!) L_n^{(j)}(s^2) e^{-s^2/2},

    and W_{n+j,n} is its conjugate.  R is real, |R| <= 1, and is the
    2-D oscillator radial function of energy 2n + j + 1 <= 2 n_top + 1:
    inside its turning radius it oscillates with wavenumber at most
    sqrt(4 n_top + 2) in s, and past it it decays like e^{-s^2/2}.  Both
    are interpolated to rounding from L Chebyshev points sigma_l on
    [0, s_max],

        L = ceil(max(sqrt(4 n_top + 2), s_max / 4) s_max) + 24.

    The first term is twice the points that wavenumber needs; against
    the per-node recurrence the error reaches rounding (1e-15 on entries
    below 1) from 0.8 of it and is 6e-3 at half of it, and the + 24 is
    added margin.  The second term covers a Gaussian tail reaching far
    past the turning radius: at n_top = 0 with nodes out to radius 12 the
    first term alone leaves 2e-12.  On the Fock route the basis always
    reaches past the nodes, s_max < sqrt(4 n_top + 2), and L is 43-97 on
    the benchmark regions.  With ell_l the barycentric
    Lagrange basis of those points (a node on a point takes that
    point's unit row),

        M_{n,n+j} = (-1)^n / pi * sum_l R_n^(j)(sigma_l) G_{l,j},
        G_{l,j} = sum_k ell_l(s_k) w_k e^{-ij theta_k},

    G is one real matrix product per block of _POINT_BLOCK nodes, and
    the normalized Laguerre recurrence

        u_n = (2n-1+j-s^2) / sqrt(n(n+j)) u_{n-1}
              - sqrt((n-1)(n-1+j) / (n(n+j))) u_{n-2},
        u_0 = s^j e^{-s^2/2} / sqrt(j!),

    runs on the L radii alone, all offsets j advancing together.  No
    working array exceeds max(L, n_top + 1) x _POINT_BLOCK entries.
    """
    return _chebyshev_sums(n_top, q, p, w, lambda g: g)


def boundary_wigner_matrix(n_top: int, q, p, w) -> np.ndarray:
    """B_mn = sum_k w_k Phi_mn(q_k, p_k), Phi_mn(x) = int_0^1 W_mn(u x) u du.

    Phi is the radial mean that turns an area integral into a boundary
    one: 2 Phi + r d(Phi)/dr = W_mn, so by Green's theorem

        int_S W_mn dq dp = oint_{boundary of S} Phi_mn (q dp - p dq),

    and with the nodes of regions.boundary_rule and w_k = q_k dp_k -
    p_k dq_k, B is the region's matrix M of cross_wigner_matrix from a
    few hundred boundary nodes instead of a few thousand area nodes.
    The phase of W leaves the mean alone, so

        Phi_{n,n+j} = (-1)^n / pi * e^{-ij theta} A_n^(j)(s),
        A_n^(j)(s) = int_0^1 R_n^(j)(u s) u du,

    and A is interpolated on the same L Chebyshev radii as R.  Its
    values there come from R's through a table that depends on L alone,

        A(sigma_l) = sum_m C_L[l, m] R(sigma_m),
        C_L[l, m] = int_0^1 ell_m(tau_l u) u du,  tau = sigma / s_max,

    so the build is cross_wigner_matrix's with G replaced by C_L^T G.
    """
    return _chebyshev_sums(n_top, q, p, w, lambda g: _radial_mean(len(g)).T @ g)


def _chebyshev_points(size: int, top: float) -> np.ndarray:
    return 0.5 * top * (1.0 - np.cos(np.linspace(0.0, np.pi, size)))


def _lagrange_rows(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    # ell_l(x_k), the barycentric Lagrange basis of the Chebyshev points
    # nodes, in row k; an x_k on a node takes that node's unit row
    bary = (-1.0) ** np.arange(nodes.size)
    bary[[0, -1]] *= 0.5
    ell = x[:, None] - nodes
    on = ell == 0.0
    ell[on] = 1.0
    np.divide(bary, ell, out=ell)
    hit = on.any(axis=1)
    ell[hit] = on[hit]
    ell /= ell.sum(axis=1, keepdims=True)
    return ell


# 16 tables: a Fock pass over the benchmark's regions needs at most 8
# distinct L, and the largest tables (L about 1400 at 400 states) hold
# 16 MB each
@functools.lru_cache(maxsize=16)
def _radial_mean(size: int) -> np.ndarray:
    # C_L[l, m] = int_0^1 ell_m(tau_l u) u du on the size Chebyshev points
    # tau of [0, 1]; the integrand has degree size in u, which a Gauss
    # rule of size // 2 + 1 nodes integrates exactly.  Rows l are built in
    # blocks of at most _POINT_BLOCK points tau_l u_i, so the barycentric
    # rows stay within size x _POINT_BLOCK entries, as in _chebyshev_sums
    # (size // 2 + 1 < _POINT_BLOCK for every size the Fock route reaches).
    # Read-only, since every caller shares the cached table.
    from numpy.polynomial.legendre import leggauss

    tau = _chebyshev_points(size, 1.0)
    t, wt = leggauss(size // 2 + 1)
    u = 0.5 * (t + 1.0)
    wu = 0.5 * wt * u
    table = np.empty((size, size))
    rows = max(1, _POINT_BLOCK // u.size)
    for start in range(0, size, rows):
        block = tau[start : start + rows]
        ell = _lagrange_rows(np.outer(block, u).ravel(), tau)
        table[start : start + block.size] = wu @ ell.reshape(block.size, u.size, size)
    table.setflags(write=False)
    return table


def _chebyshev_sums(n_top: int, q, p, w, radial) -> np.ndarray:
    # the build of cross_wigner_matrix; radial(G) gives the sums that
    # pair with R at the Chebyshev radii: G itself for point values,
    # C_L^T G for the radial mean
    if n_top < 0:
        raise ValueError("degree must be nonnegative")
    q, p, w = (np.ravel(np.asarray(v, dtype=float)) for v in (q, p, w))
    if not q.shape == p.shape == w.shape:
        raise ValueError("need matching point and weight arrays")
    count = n_top + 1
    sign = (-1.0) ** np.arange(count) / np.pi
    r = np.hypot(q, p)
    # a node this close to the centre is on it to rounding in every W_mn;
    # putting it there keeps its barycentric weights and phase finite
    r[r < 1e-150] = 0.0
    s_max = np.sqrt(2.0) * np.max(r, initial=0.0)
    if s_max == 0.0:
        # no nodes, or all at the centre: one radius, 0, where only
        # R_n^(0) = 1 is nonzero
        return np.diag(sign * radial(np.full((1, 1), np.sum(w)))[0, 0]).astype(complex)
    size = math.ceil(max(math.sqrt(4.0 * n_top + 2.0), 0.25 * s_max) * s_max) + 24
    sigma = _chebyshev_points(size, s_max)
    # e^{-i theta}; a node at the centre takes 0, which R^(j)(0) = 0 for j > 0 ignores
    turn = (q - 1j * p) / np.where(r > 0.0, r, 1.0)
    g = np.zeros((size, count), dtype=complex)
    for start in range(0, q.size, _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        ell = _lagrange_rows(np.sqrt(2.0) * r[block], sigma)
        # w_k e^{-ij theta_k} for j = 0..n_top as one running product
        phase = np.empty((ell.shape[0], count), dtype=complex)
        phase[:, 0] = w[block]
        phase[:, 1:] = turn[block, None]
        np.cumprod(phase, axis=1, out=phase)
        g += (ell.T @ phase.view(float)).view(complex)
    g = radial(g)
    g_re, g_im = np.ascontiguousarray(g.real.T), np.ascontiguousarray(g.imag.T)
    x = sigma * sigma
    uc = np.empty((count, size))
    uc[0] = np.exp(-0.5 * x)
    for k in range(1, count):
        uc[k] = uc[k - 1] * (sigma / np.sqrt(k))
    um = np.zeros_like(uc)
    j = np.arange(count, dtype=float)[:, None]
    shift = j - x
    a = np.empty_like(shift)
    out = np.zeros((count, count), dtype=complex)
    for n in range(count):
        if n:
            jn = j[: count - n]
            an = np.add(shift[: count - n], 2 * n - 1, out=a[: count - n])
            an /= np.sqrt(n * (n + jn))
            un = an * uc[: count - n]
            un -= np.sqrt((n - 1) * (n - 1 + jn) / (n * (n + jn))) * um[: count - n]
            um, uc = uc, un
        out.real[n, n:] = np.einsum("jl,jl->j", uc, g_re[: count - n])
        out.imag[n, n:] = np.einsum("jl,jl->j", uc, g_im[: count - n])
    out *= sign[:, None]
    upper = np.triu(out, 1)
    return np.triu(out) + upper.conj().T
