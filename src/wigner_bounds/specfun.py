"""Number-basis columns of a region's kernel, and the scaled Laguerre sweep.

All evaluation runs through three-term recurrences so no factorials or
binomial tables are formed.

boundary_wigner_columns yields the number-basis matrix of a region's
kernel from nodes around the region's boundary.  It splits each
cross-Wigner function W_{n,n+j}(q, p) into a phase e^{-ij theta} and a
real radial function of s = sqrt(2 (q^2 + p^2)), takes the radial mean
that Green's theorem integrates around the boundary, and interpolates it
from a few dozen Chebyshev radii.  The nodes then enter through one
matrix product per block of nodes, and the Laguerre recurrence runs on
those radii instead of on every node.  The recurrence steps one column
of the matrix at a time, and each column is yielded as it is made, so a
caller that reads leading blocks computes no column past the last block
it reads.  _laguerre_terms sweeps e^{-x/2} L_k(x), of which disk
eigenvalues and number states are made.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator

import numpy as np

__all__ = ["boundary_wigner_columns"]

# nodes per block in _node_sums; bounds its working arrays to
# max(Chebyshev radii, basis size) x (block) entries
_POINT_BLOCK = 2048

_NORMAL_EXP = 700.0
_SHED = 200.0 * np.log(10.0)


def boundary_wigner_columns(n_top: int, q, p, w) -> Iterator[np.ndarray]:
    """B_{0..s, s} for s = 0..n_top, the upper-triangle columns of the
    Hermitian B_mn = sum_k w_k Phi_mn(q_k, p_k), m, n = 0..n_top, one
    complex array of s + 1 entries per step.

    W_mn(q, p) = (1/pi) int psi_m*(q+x) psi_n(q-x) e^{2ipx} dx is the
    cross-Wigner function of oscillator eigenfunctions m and n, and
    Phi_mn(x) = int_0^1 W_mn(u x) u du is its radial mean, which turns
    an area integral into a boundary one: 2 Phi + r d(Phi)/dr = W_mn, so
    by Green's theorem

        int_S W_mn dq dp = oint_{boundary of S} Phi_mn (q dp - p dq).

    With the nodes of regions.boundary_rule and w_k = q_k dp_k - p_k dq_k,
    B is the region's matrix M_mn = int_S W_mn dq dp from a few hundred
    boundary nodes instead of a few thousand area nodes.

    With s = sqrt(2 (q^2 + p^2)), e^{-i theta} = sqrt(2) (q - ip) / s and
    j >= 0, W is (Cahill & Glauber 1969)

        W_{n,n+j} = (-1)^n / pi * e^{-ij theta} R_n^(j)(s),
        R_n^(j)(s) = s^j sqrt(n!/(n+j)!) L_n^{(j)}(s^2) e^{-s^2/2},

    and W_{n+j,n} is its conjugate.  The phase leaves the mean alone, so

        Phi_{n,n+j} = (-1)^n / pi * e^{-ij theta} A_n^(j)(s),
        A_n^(j)(s) = int_0^1 R_n^(j)(u s) u du.

    R is real, |R| <= 1, and is the 2-D oscillator radial function of
    energy 2n + j + 1 <= 2 n_top + 1: inside its turning radius it
    oscillates with wavenumber at most sqrt(4 n_top + 2) in s, and past
    it it decays like e^{-s^2/2}.  Both are interpolated to rounding from
    L Chebyshev points sigma_l on [0, s_max],

        L = ceil(max(sqrt(4 n_top + 2), s_max / 4) s_max) + 24.

    The first term is twice the points that wavenumber needs; against
    the per-node recurrence the error reaches rounding (1e-15 on entries
    below 1) from 0.8 of it and is 6e-3 at half of it, and the + 24 is
    added margin.  The second term covers a Gaussian tail reaching far
    past the turning radius: at n_top = 0 with nodes out to radius 12 the
    first term alone leaves 2e-12.  On the Fock route the basis always
    reaches past the nodes, s_max < sqrt(4 n_top + 2), and L is 53-97 on
    the benchmark regions.  A is interpolated on the same L points, and
    its values there come from R's through a table that depends on L
    alone,

        A(sigma_l) = sum_m C_L[l, m] R(sigma_m),
        C_L[l, m] = int_0^1 ell_m(tau_l u) u du,  tau = sigma / s_max,

    with ell_l the barycentric Lagrange basis of those points (a node on
    a point takes that point's unit row).  So

        B_{n,n+j} = (-1)^n / pi * sum_l R_n^(j)(sigma_l) (C_L^T G)_{l,j},
        G_{l,j} = sum_k ell_l(s_k) w_k e^{-ij theta_k},

    G is one real matrix product per block of _POINT_BLOCK nodes, and
    the normalized Laguerre recurrence

        u_n = (2n-1+j-s^2) / sqrt(n(n+j)) u_{n-1}
              - sqrt((n-1)(n-1+j) / (n(n+j))) u_{n-2},
        u_0 = s^j e^{-s^2/2} / sqrt(j!),

    runs on the L radii alone.  It steps one column s = n + j at a time,
    advancing every offset j together: with n = s - j the n (n + j) of
    its coefficients is n s, and u_n^(j) needs only the same offset j in
    columns s - 1 and s - 2.

    The input is checked and C_L^T G is formed at the call; each step
    runs the recurrence one column further, so the leading N x N block
    is known once N columns are drawn, and no later column is computed
    until it is asked for.  No working array exceeds
    max(L, n_top + 1) x _POINT_BLOCK entries.
    """
    sign, sigma, g = _node_sums(n_top, q, p, w)
    return _laguerre_columns(sign, sigma, _radial_mean(sigma.size).T @ g)


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
# 16 MB each, so a full cache can hold about 250 MB
@functools.lru_cache(maxsize=16)
def _radial_mean(size: int) -> np.ndarray:
    # C_L[l, m] = int_0^1 ell_m(tau_l u) u du on the size Chebyshev points
    # tau of [0, 1]; the integrand has degree size in u, which a Gauss
    # rule of size // 2 + 1 nodes integrates exactly.  Rows l are built in
    # blocks of max(256, size // 2 + 1) points tau_l u_i, which keeps the
    # barycentric rows small and, rows being independent, every bit of
    # the table as one block would give.  Read-only, since every caller
    # shares the cached table.
    from numpy.polynomial.legendre import leggauss

    tau = _chebyshev_points(size, 1.0)
    t, wt = leggauss(size // 2 + 1)
    u = 0.5 * (t + 1.0)
    wu = 0.5 * wt * u
    table = np.empty((size, size))
    rows = max(1, 256 // u.size)
    for start in range(0, size, rows):
        block = tau[start : start + rows]
        ell = _lagrange_rows(np.outer(block, u).ravel(), tau)
        table[start : start + block.size] = wu @ ell.reshape(block.size, u.size, size)
        del ell  # before the next block's rows are made
    table.setflags(write=False)
    return table


def _node_sums(n_top: int, q, p, w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the signs (-1)^n / pi, the L Chebyshev radii sigma and the node sums
    # G of boundary_wigner_columns, after checking its input
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
    # no nodes, or all at the centre, leave s_max = 0: any span serves,
    # since every node takes the unit row of the radius 0
    s_max = np.sqrt(2.0) * np.max(r, initial=0.0) or 1.0
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
        del ell, phase  # before the next block's rows are made
    return sign, sigma, g


def _laguerre_columns(sign, sigma, g) -> Iterator[np.ndarray]:
    # column s holds the entries (n, s) at offsets j = s - n, kept in
    # order of j: u_n^(j) comes from u_{n-1}^(j) and u_{n-2}^(j), the
    # same offset j in columns s - 1 and s - 2, and n (n + j) = n s.
    # Three buffers of rows take turns as columns s - 2, s - 1 and s.
    # Step s forms its own factors sigma / sqrt(s), 2n - 1, sqrt(n s) and
    # sqrt((n - 1)(s - 1) / (n s)) at n = s - j for j < s.
    size, count = g.shape
    x = sigma * sigma
    rows = np.arange(count, dtype=float)
    odd = 2.0 * rows - 1.0
    shift = rows[:, None] - x
    g_re, g_im = np.ascontiguousarray(g.real.T), np.ascontiguousarray(g.imag.T)
    prev, cur, new = np.zeros((3, count, size))
    a = np.empty((count, size))
    cur[0] = np.exp(-0.5 * x)
    for s in range(count):
        if s:
            ns = rows[s:0:-1] * s  # n runs s, s - 1, ..., 1: the rows backwards
            np.multiply(cur[s - 1], sigma / math.sqrt(s), out=new[s])
            np.add(shift[:s], odd[s:0:-1, None], out=a[:s])
            a[:s] /= np.sqrt(ns)[:, None]
            np.multiply(a[:s], cur[:s], out=new[:s])
            back = np.sqrt(rows[s - 1 : 0 : -1] * (s - 1) / ns[:-1])
            np.multiply(back[:, None], prev[: s - 1], out=a[: s - 1])
            new[: s - 1] -= a[: s - 1]
            prev, cur, new = cur, new, prev
        col = np.empty(s + 1, dtype=complex)
        col.real[::-1] = np.einsum("jl,jl->j", cur[: s + 1], g_re[: s + 1])
        col.imag[::-1] = np.einsum("jl,jl->j", cur[: s + 1], g_im[: s + 1])
        col *= sign[: s + 1]
        yield col


def _laguerre_terms(x) -> Iterator[np.ndarray]:
    # e^{-x/2} L_k(x) in [-1, 1] at x >= 0, k = 0, 1, ..., as l_k e^{-c_k} with
    # (k+1) l_{k+1} = (2k+1-x) l_k - k l_{k-1}, l_0 = e^{-x/2}.  c_k = 0 while
    # every e^{-x/2} >= e^{-_NORMAL_EXP}, a normal float; past it l_0 carries
    # e^c, c = x/2 - _NORMAL_EXP, shed by exp(-_SHED) ~ 1e-200 (1e-200 itself
    # errs by 2.2e-14) where a term passes 1e200, and each term is yielded as
    # a new array.  x < 2e98 keeps steps under 1e299.  Steps work in place,
    # holding x and three terms; l_k's array is overwritten making l_{k+2}.
    far = bool(np.any(x > 2.0 * _NORMAL_EXP))
    carry = np.maximum(0.5 * x - _NORMAL_EXP, 0.0) if far else None
    lc = np.exp(carry - 0.5 * x) if far else np.exp(-0.5 * x)
    lm = np.zeros_like(lc)
    yield lc * np.exp(-carry) if far else lc
    for k in itertools.count():
        new = (2 * k + 1) - x
        new *= lc
        lm *= k
        new -= lm
        new /= k + 1
        lm, lc = lc, new
        if far:
            shed = np.abs(lc) > 1e200
            lc, lm = (np.where(shed, np.exp(-_SHED) * t, t) for t in (lc, lm))
            carry = carry - _SHED * shed
        yield lc * np.exp(-carry) if far else lc
