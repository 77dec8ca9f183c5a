"""Special functions shared by the rest of the package.

Laguerre polynomials, normalized harmonic-oscillator eigenfunctions and
the cross-Wigner functions of the oscillator basis.  All evaluation runs
through three-term recurrences so no factorials or binomial tables are
formed.

cross_wigner_matrix, the number-basis matrix of a region's kernel, splits
each cross-Wigner function W_{n,n+j}(q, p) into a phase e^{-ij theta}
and a real radial function R_n^(j)(s) of s = sqrt(2 (q^2 + p^2)), and
interpolates R from a few dozen Chebyshev radii.  The quadrature nodes
then enter through one matrix product per block of nodes, and the
Laguerre recurrence runs on those radii instead of on every node.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "cross_wigner_matrix",
    "laguerre_poly",
    "oscillator_basis",
    "oscillator_fn",
]

# quadrature points per block in cross_wigner_matrix; bounds its working
# arrays to max(Chebyshev radii, basis size) x (block) entries
_POINT_BLOCK = 2048


def laguerre_poly(n: int, x):
    """Laguerre polynomial L_n(x) via (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    lm = np.ones_like(x)
    if n == 0:
        return lm if lm.ndim else float(lm)
    lc = 1.0 - x
    for k in range(1, n):
        lm, lc = lc, ((2 * k + 1 - x) * lc - k * lm) / (k + 1)
    return lc if lc.ndim else float(lc)


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
        # no nodes, or all at the centre, where only W_nn = (-1)^n / pi is nonzero
        return np.diag(sign * np.sum(w)).astype(complex)
    size = math.ceil(max(math.sqrt(4.0 * n_top + 2.0), 0.25 * s_max) * s_max) + 24
    sigma = 0.5 * s_max * (1.0 - np.cos(np.linspace(0.0, np.pi, size)))
    bary = (-1.0) ** np.arange(size)
    bary[[0, -1]] *= 0.5
    # e^{-i theta}; a node at the centre takes 0, which R^(j)(0) = 0 for j > 0 ignores
    turn = (q - 1j * p) / np.where(r > 0.0, r, 1.0)
    g = np.zeros((size, count), dtype=complex)
    for start in range(0, q.size, _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
        # ell_l(s_k) by the barycentric formula, with a unit row for a
        # node that sits on a Chebyshev point
        ell = np.sqrt(2.0) * r[block, None] - sigma
        on = ell == 0.0
        ell[on] = 1.0
        np.divide(bary, ell, out=ell)
        hit = on.any(axis=1)
        ell[hit] = on[hit]
        ell /= ell.sum(axis=1, keepdims=True)
        # w_k e^{-ij theta_k} for j = 0..n_top as one running product
        phase = np.empty((ell.shape[0], count), dtype=complex)
        phase[:, 0] = w[block]
        phase[:, 1:] = turn[block, None]
        np.cumprod(phase, axis=1, out=phase)
        g += (ell.T @ phase.view(float)).view(complex)
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
