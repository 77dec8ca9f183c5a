"""Special functions shared by the rest of the package.

Laguerre polynomials, normalized harmonic-oscillator eigenfunctions and
the cross-Wigner functions of the oscillator basis.  All evaluation runs
through three-term recurrences so no factorials or binomial tables are
formed.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "cross_wigner_matrix",
    "laguerre_poly",
    "oscillator_basis",
    "oscillator_fn",
]

# quadrature points per block in cross_wigner_matrix; bounds its working
# arrays to (basis size) x (block) complex entries
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
    working arrays never exceed (n_top + 1) x _POINT_BLOCK entries.
    """
    if n_top < 0:
        raise ValueError("degree must be nonnegative")
    q, p, w = (np.ravel(np.asarray(v, dtype=float)) for v in (q, p, w))
    if not q.shape == p.shape == w.shape:
        raise ValueError("need matching point and weight arrays")
    count = n_top + 1
    out = np.zeros((count, count), dtype=complex)
    j = np.arange(count, dtype=float)[:, None]
    for start in range(0, q.size, _POINT_BLOCK):
        block = slice(start, start + _POINT_BLOCK)
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
