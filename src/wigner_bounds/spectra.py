"""Extreme eigenvalues of region kernels, exact and discretized.

The eigenvalues of a disk kernel of radius a are

    lambda_n(a) = (-1)^n Integral_0^{a^2} L_n(2u) e^{-u} du,  n >= 0,

with L_n the Laguerre polynomials; eigenvalue n belongs to the n-th
oscillator eigenfunction.  The generating function
Sum t^n L_n(x) = e^{-xt/(1-t)} / (1-t) turns the integral into a
closed form that one Laguerre recurrence sweeps for every n at once
(disk_spectrum).  The largest is always lambda_0(a) and the most
negative scallops between consecutive odd-indexed curves as a grows,
so the sharp bounds on the disk integral of any Wigner function come
from scanning these curves.  Annulus eigenvalues are differences of
disk eigenvalues at the two radii with a shared eigenbasis.  For
regions without a closed form the discretized kernel from
kernels.assemble is diagonalized directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelMatrix
from .states import WavefunctionGrid

__all__ = [
    "DISK_RADIUS_LIMIT",
    "SpectrumResult",
    "annulus_eigenvalue",
    "annulus_envelope",
    "crossing_radius",
    "disk_eigenvalue",
    "disk_envelope",
    "disk_spectrum",
    "extremal_eigenvalues",
]

# past this radius e^{-a^2} leaves the normal float range and the sweep
# loses digits (2e-15 at a = 26, 1e-8 at a = 27, order one at a = 27.5)
DISK_RADIUS_LIMIT = 26.0


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Extreme eigenvalues of a region kernel.

    method is "exact" (closed-form eigenvalue curves) or "nystrom"
    (discretized kernel).  n_min/n_max index the eigenvalue curves on
    the exact route; residual and the eigenvector grids belong to the
    discretized route.
    """

    lambda_min: float
    lambda_max: float
    method: str
    n_min: int | None = None
    n_max: int | None = None
    residual: float | None = None
    psi_min: WavefunctionGrid | None = None
    psi_max: WavefunctionGrid | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in ("exact", "nystrom"):
            raise ValueError("method must be 'exact' or 'nystrom'")
        if not self.lambda_min <= self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")
        object.__setattr__(self, "warnings", tuple(self.warnings))


def disk_spectrum(a, n_top: int) -> np.ndarray:
    """lambda_0(a) .. lambda_{n_top}(a) for centered disks of radius a.

    The closed form

        lambda_n = 1 - (-1)^n e^{-a^2} T_n,
        T_0 = 1,  T_n = L_n(2a^2) - L_{n-1}(2a^2) - T_{n-1},

    is swept forward as lambda_n = lambda_{n-1} - (-1)^n (l_n - l_{n-1})
    with l_n = e^{-a^2} L_n(2a^2), which gathers rounding only while
    lambda_n is near 1.  e^{-a^2} is folded into the starting Laguerre
    values, so every l_n stays within [-1, 1].  a may be a scalar or an
    array; the result has shape a.shape + (n_top + 1,).  Radii above
    DISK_RADIUS_LIMIT are refused.
    """
    if n_top < 0:
        raise ValueError("eigenvalue scan cutoff must be nonnegative")
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("radius must be nonnegative")
    if not np.all(a <= DISK_RADIUS_LIMIT):
        raise ValueError("exact disk spectrum needs radius <= %g" % DISK_RADIUS_LIMIT)
    x = 2.0 * a * a
    out = np.empty(a.shape + (n_top + 1,))
    lm = np.zeros_like(x)
    lc = np.exp(-a * a)
    out[..., 0] = 1.0 - lc
    for n in range(1, n_top + 1):
        # n L_n = (2n - 1 - x) L_{n-1} - (n - 1) L_{n-2}
        lm, lc = lc, ((2 * n - 1 - x) * lc - (n - 1) * lm) / n
        out[..., n] = out[..., n - 1] + (lc - lm if n % 2 else lm - lc)
    return out


def disk_eigenvalue(n: int, a: float) -> float:
    """lambda_n(a) for the centered disk of radius a."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return float(disk_spectrum(a, n)[n])


def annulus_eigenvalue(n: int, r_inner: float, r_outer: float) -> float:
    """Eigenvalue n of the centered annulus kernel.

    The disk kernels at both radii share the oscillator eigenbasis, so
    this is exactly disk_eigenvalue(n, r_outer) - disk_eigenvalue(n, r_inner).
    """
    if not 0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    return disk_eigenvalue(n, r_outer) - disk_eigenvalue(n, r_inner)


def _cutoff(radius: float) -> int:
    return max(50, math.ceil(10.0 * radius * radius))


def _envelope(values: np.ndarray) -> SpectrumResult:
    # crossing radii carry exact degeneracies (a = 1 is even threefold,
    # lambda_1 = lambda_2 = lambda_4 there); break ties toward smaller n
    # through a tolerance well above rounding noise
    n_min = int(np.argmax(values <= values.min() + 1e-12))
    n_max = int(np.argmax(values >= values.max() - 1e-12))
    notes = []
    if n_min == len(values) - 1 or n_max == len(values) - 1:
        notes.append("eigenvalue scan hit its cutoff at n = %d" % (len(values) - 1))
    return SpectrumResult(
        lambda_min=float(values[n_min]),
        lambda_max=float(values[n_max]),
        method="exact",
        n_min=n_min,
        n_max=n_max,
        warnings=notes,
    )


def disk_envelope(a: float, n_max: int | None = None) -> SpectrumResult:
    """Sharp bounds for a disk of radius a from the eigenvalue curves.

    Scans n up to n_max, defaulting to max(50, ceil(10 a^2)); the
    extremes of physical disks sit far below that, and a warning is
    attached if the scan ends on the cutoff.
    """
    return _envelope(disk_spectrum(a, _cutoff(a) if n_max is None else n_max))


def annulus_envelope(
    r_inner: float, r_outer: float, n_max: int | None = None
) -> SpectrumResult:
    """Sharp bounds for a centered annulus; scans both envelope sides.

    Unlike the disk, the largest annulus eigenvalue need not be n = 0,
    so both extremes come from the same scan over n.
    """
    if not 0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    ncut = _cutoff(r_outer) if n_max is None else n_max
    inner, outer = disk_spectrum((r_inner, r_outer), ncut)
    return _envelope(outer - inner)


def crossing_radius(n: int, tol: float = 1e-10) -> float:
    """Radius where eigenvalue curves n and n+1 cross, handing off the
    lower envelope of the disk spectrum.

    Scans (0, n+3] in steps of 0.01 for the last sign change of
    lambda_{n+1} - lambda_n, then bisects to tol.
    """
    if n < 1:
        raise ValueError("crossings are indexed from n = 1")

    def diff(a):
        spec = disk_spectrum(a, n + 1)
        return spec[..., n + 1] - spec[..., n]

    grid = np.arange(0.01, n + 3 + 1e-12, 0.01)
    vals = diff(grid)
    # a crossing can fall exactly on a grid point (a = 1 for n = 1), so a
    # zero product brackets one; once both curves round to 1 their
    # difference is rounding noise, which brackets nothing
    flips = np.nonzero((vals[:-1] * vals[1:] <= 0) & (np.abs(np.diff(vals)) > 1e-12))[0]
    if len(flips) == 0:
        raise ValueError("no crossing of curves %d and %d below a = %g" % (n, n + 1, n + 3))
    lo, hi = grid[flips[-1]], grid[flips[-1] + 1]
    flo = diff(lo)
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        fmid = diff(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return (lo + hi) / 2.0


def extremal_eigenvalues(km: KernelMatrix) -> SpectrumResult:
    """Extreme eigenvalues of a discretized kernel with eigenvectors.

    Eigenvectors come back as wavefunctions on the kernel grid,
    normalized so that sum |psi|^2 dx = 1; the residual is the larger of
    ||A v - lambda v||_2 over the two extremes.
    """
    a = km.a
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ValueError("matrix must be Hermitian to 1e-10")
    w, v = np.linalg.eigh(a)
    vmin, vmax = v[:, 0], v[:, -1]
    res = max(
        float(np.linalg.norm(a @ vmin - w[0] * vmin)),
        float(np.linalg.norm(a @ vmax - w[-1] * vmax)),
    )
    scale = 1.0 / math.sqrt(km.dx)
    return SpectrumResult(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        method="nystrom",
        residual=res,
        psi_min=WavefunctionGrid(km.x0, km.dx, vmin * scale),
        psi_max=WavefunctionGrid(km.x0, km.dx, vmax * scale),
        warnings=km.warnings,
    )
