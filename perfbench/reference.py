"""Reference values the benchmark checks the package against.

Nothing here imports the package.  Disk eigenvalues come from the exact
binomial expansion of the Laguerre polynomial,

    lambda_n(a) = (-1)^n sum_k C(n, k) (-2)^k P(k + 1, a^2),

where P is the regularized lower incomplete gamma function, evaluated
with mpmath and summed in exact integer arithmetic at a precision that
covers the 3^n cancellation.  That is a different algorithm from the
package's quadrature (and from any recurrence-based closed form), so a
match is evidence, not an echo.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath


def package_cutoff(radius: float) -> int:
    """The exact route's default eigenvalue scan cutoff."""
    return max(50, math.ceil(10.0 * radius * radius))


def scan_top(radius: float) -> int:
    """How far the reference scans: twice the package's cutoff, plus 20."""
    return 2 * package_cutoff(radius) + 20


@lru_cache(maxsize=None)
def disk_spectrum(radius: float, n_top: int) -> tuple[float, ...]:
    """lambda_0(a) .. lambda_{n_top}(a) for the centred disk of radius a."""
    if radius == 0.0:
        return (0.0,) * (n_top + 1)
    bits = math.ceil(n_top * math.log2(3.0)) + 96
    big_a = mpmath.mpf(radius) ** 2
    scaled = []  # (-2)^k P(k+1, A) in fixed point with `bits` fraction bits
    with mpmath.workprec(bits + 64):
        decay = mpmath.exp(-big_a)
        term = mpmath.mpf(1)
        partial = mpmath.mpf(1)
        for k in range(n_top + 1):
            p_k = 1 - decay * partial
            scaled.append(int(mpmath.nint(mpmath.ldexp(p_k, bits))) * (-2) ** k)
            term = term * big_a / (k + 1)
            partial += term
    one = 1 << bits
    out = []
    row = [1]
    for n in range(n_top + 1):
        acc = sum(c * s for c, s in zip(row, scaled))
        out.append((-1) ** n * acc / one)
        row = [1] + [row[k] + row[k + 1] for k in range(n)] + [1]
    return tuple(out)


def disk_extremes(radius: float) -> tuple[float, float]:
    vals = disk_spectrum(radius, scan_top(radius))
    return min(vals), max(vals)


def annulus_spectrum(r_inner: float, r_outer: float) -> list[float]:
    top = scan_top(r_outer)
    outer = disk_spectrum(r_outer, top)
    inner = disk_spectrum(r_inner, top)
    return [o - i for o, i in zip(outer, inner)]


def annulus_extremes(r_inner: float, r_outer: float) -> tuple[float, float]:
    vals = annulus_spectrum(r_inner, r_outer)
    return min(vals), max(vals)


def closed_form(n: int, a: float) -> float:
    """lambda_n(a) for n <= 3 in elementary functions (acceptance test A1)."""
    e = math.exp(-a * a)
    return (
        1 - e,
        1 - (1 + 2 * a**2) * e,
        1 - (1 + 2 * a**4) * e,
        1 - (1 + 2 * a**2 - 2 * a**4 + (4.0 / 3.0) * a**6) * e,
    )[n]


def self_check() -> float:
    """Largest gap between disk_spectrum and the n <= 3 closed forms."""
    worst = 0.0
    for a in (0.3, 1.0, 2.0, 3.0, 4.9):
        vals = disk_spectrum(a, scan_top(a))
        for n in range(4):
            worst = max(worst, abs(vals[n] - closed_form(n, a)))
    return worst


def gaussian_disk_mass(offset: float, radius: float) -> float:
    """Mass of the coherent-state Wigner function (1/pi) e^{-r^2} inside a
    disk of the given radius whose centre lies `offset` from the Gaussian's."""
    d = mpmath.mpf(offset)

    def ring(r):
        return 2 * r * mpmath.exp(-(r * r + d * d)) * mpmath.besseli(0, 2 * r * d)

    return float(mpmath.quad(ring, [0, radius]))


def gaussian_ellipse_mass(semi_major: float, semi_minor: float) -> float:
    """Mass of (1/pi) e^{-r^2} inside a concentric ellipse."""
    a, b = mpmath.mpf(semi_major), mpmath.mpf(semi_minor)

    def wedge(t):
        rho2 = 1 / ((mpmath.cos(t) / a) ** 2 + (mpmath.sin(t) / b) ** 2)
        return 1 - mpmath.exp(-rho2)

    return float(mpmath.quad(wedge, [0, mpmath.pi / 2]) * 2 / mpmath.pi)
