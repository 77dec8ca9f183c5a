"""Special functions shared by the rest of the package.

Laguerre polynomials and normalized harmonic-oscillator eigenfunctions.
All evaluation runs through three-term recurrences so no factorials or
binomial tables are formed.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "laguerre_poly",
    "oscillator_fn",
]


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


def oscillator_fn(n: int, x):
    """Normalized oscillator eigenfunction h_n(x) = (2^n n! sqrt(pi))^{-1/2} H_n(x) e^{-x^2/2}.

    The Gaussian is folded into the starting value and the recurrence is
    carried in normalized form,

        h_{k+1} = x sqrt(2/(k+1)) h_k - sqrt(k/(k+1)) h_{k-1},

    so intermediate values stay of order one for n <= 200, |x| <= 20.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=float)
    hc = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return hc if hc.ndim else float(hc)
    hm = np.zeros_like(x)
    for k in range(n):
        hm, hc = hc, x * np.sqrt(2.0 / (k + 1)) * hc - np.sqrt(k / (k + 1.0)) * hm
    return hc if hc.ndim else float(hc)
