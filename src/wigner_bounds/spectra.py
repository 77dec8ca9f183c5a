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
disk eigenvalues at the two radii with a shared eigenbasis.

A band between two parallel lines is sheared by (q, p) -> (q, p - s q)
onto a momentum band, whose kernel is a projection, so its sharp
bounds are exactly 0 and 1, both attained.

Any other bounded region takes the Fock route (fock_extremes): the
kernel's matrix in the number basis, <m|K_S|n> = integral over S of the
cross-Wigner function W_mn, is integrated with a rule exact in the
region's geometry, and the extremes of its leading blocks converge
from inside by Cauchy interlacing.  An unbounded region without a
closed form (a graph that is not a band, or a band under
method="numeric") takes the Nystrom route (nystrom_extremes): the
kernel discretized by kernels.assemble on a named window, whose value
is the kernel compressed to the window: an inner estimate that moves
with the window, not a bound.

bounds(region) is the one entry point that picks among these routes
from the region alone: the closed forms for disks, ellipses (reduced
to the disk of equal area), annuli and bands; otherwise the Fock route
for a bounded region and the discretized kernel for an unbounded one.
method="numeric" skips the closed forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import DEFAULT_POINTS_PER_UNIT, assemble
from .regions import Annulus, Disk, Ellipse, Graph, Region, bounding_box, quadrature
from .specfun import cross_wigner_matrix, oscillator_basis
from .states import WavefunctionGrid

__all__ = [
    "DISK_RADIUS_LIMIT",
    "FOCK_MAX_BASIS",
    "FOCK_TOL",
    "NYSTROM_MAX_POINTS",
    "SpectrumResult",
    "annulus_eigenvalue",
    "annulus_envelope",
    "bounds",
    "crossing_radius",
    "disk_curves",
    "disk_eigenvalue",
    "disk_envelope",
    "disk_spectrum",
    "fock_extremes",
    "nystrom_extremes",
]

# past this radius e^{-a^2} leaves the normal float range and the sweep
# loses digits (2e-15 at a = 26, 1e-8 at a = 27, order one at a = 27.5)
DISK_RADIUS_LIMIT = 26.0

# the Fock route stops once the extremes of two leading blocks FOCK_STEP
# states apart differ by less than FOCK_TOL; a matrix whose blocks have
# not settled is rebuilt FOCK_GROWTH times larger, up to FOCK_MAX_BASIS
FOCK_TOL = 1e-10
FOCK_STEP = 8
FOCK_MAX_BASIS = 400
FOCK_GROWTH = 1.5
# quadrature nodes per unit length per unit of sqrt(2N + 1), the largest
# phase-plane wavenumber of the basis over two
FOCK_DENSITY = 0.75

# the Nystrom route's memory grows as n^2 (a 190 MB peak at 1251
# points, 669 MB at 2501, on a 2-core 8 GB VM); its grid stops at a span
# of 40 at DEFAULT_POINTS_PER_UNIT, about 1.7 GB by the same scaling
NYSTROM_MAX_POINTS = 4001


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Extreme eigenvalues of a region kernel.

    method is "exact" (closed-form eigenvalue curves, or the [0, 1] of
    a band), "fock" (number basis matrix) or "nystrom" (discretized
    kernel).  n_min/n_max index the eigenvalue curves of a conic on the
    exact route; a band has none and leaves them None.  The Fock route
    reports its basis_size and, as error_estimate, the last change of the
    extremes as the basis grew; that change is a convergence signal, not
    a bound on the error, which can be larger (1.2e-10 against an
    estimate of 7.7e-11 on two radius-0.7 disks at (+-1.8, 0)).  The
    Nystrom route reports the residual.
    Both attach the extreme eigenvectors as position grids.
    """

    lambda_min: float
    lambda_max: float
    method: str
    n_min: int | None = None
    n_max: int | None = None
    residual: float | None = None
    psi_min: WavefunctionGrid | None = None
    psi_max: WavefunctionGrid | None = None
    basis_size: int | None = None
    error_estimate: float | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in ("exact", "fock", "nystrom"):
            raise ValueError("method must be 'exact', 'fock' or 'nystrom'")
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


def disk_envelope(a: float) -> SpectrumResult:
    """Sharp bounds for a disk of radius a from the eigenvalue curves.

    Scans n up to max(50, ceil(10 a^2)); the extremes of physical disks
    sit far below that, and a warning is attached if the scan ends on
    the cutoff.
    """
    return _envelope(disk_spectrum(a, _cutoff(a)))


def disk_curves(radii, n_top: int) -> tuple[np.ndarray, list[SpectrumResult]]:
    """lambda_0..lambda_{n_top} and the sharp bounds for each radius, from one sweep.

    Row i of the table holds the curves at radii[i]; its bounds scan the
    same sweep up to that radius's own default cutoff, so they equal
    disk_envelope(radii[i]).
    """
    radii = np.asarray(radii, dtype=float)
    tops = [_cutoff(a) for a in radii]
    table = disk_spectrum(radii, max([n_top, *tops]))
    return table[:, : n_top + 1], [_envelope(row[: top + 1]) for row, top in zip(table, tops)]


def annulus_envelope(r_inner: float, r_outer: float) -> SpectrumResult:
    """Sharp bounds for a centered annulus; scans both envelope sides.

    Unlike the disk, the largest annulus eigenvalue need not be n = 0,
    so both extremes come from the same scan over n, up to the outer
    radius's cutoff max(50, ceil(10 r_outer^2)).
    """
    if not 0 <= r_inner < r_outer:
        raise ValueError("need 0 <= r_inner < r_outer")
    inner, outer = disk_spectrum((r_inner, r_outer), _cutoff(r_outer))
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


def _fock_vectors(vecs: np.ndarray, center) -> list[WavefunctionGrid]:
    # column c holds the coefficients on the displaced number states
    # D(q0, p0)|n>, whose wavefunctions are e^{i p0 (x - q0)} h_n(x - q0)
    # up to one common phase; the grid spans every basis function
    half = math.sqrt(2.0 * vecs.shape[0] + 1.0) + 4.0
    count = int(round(2.0 * half * DEFAULT_POINTS_PER_UNIT)) + 1
    dx = 2.0 * half / (count - 1)
    xs = np.linspace(-half, half, count)
    phase = np.exp(1j * center[1] * xs)
    basis = oscillator_basis(vecs.shape[0] - 1, xs)
    return [
        WavefunctionGrid(center[0] - half, dx, phase * (vecs[:, c] @ basis))
        for c in range(vecs.shape[1])
    ]


def fock_extremes(s: Region) -> SpectrumResult:
    """Extreme eigenvalues of a bounded region's kernel in the number basis.

    The basis is centred on the region's bounding-box centre (q0, p0),
    whose half-diagonal is the reach r.  M_mn = integral over S of
    W_mn(q - q0, p - p0) is built once for N = (r + 8)^2 / 2 states
    (regions.quadrature, specfun.cross_wigner_matrix); by Cauchy
    interlacing the extremes of its leading blocks move outward as the
    block grows.  Blocks are read from (r + 4)^2 / 2 states, where the
    basis first covers the region, in steps of FOCK_STEP until both
    extremes change by less than FOCK_TOL; that change is the
    error_estimate.  If they have not settled by N, M is rebuilt
    FOCK_GROWTH times larger and the reading goes on from N, up to
    FOCK_MAX_BASIS states; past that a RuntimeError is raised rather
    than an unconverged bound returned.
    """
    qmin, qmax, pmin, pmax = bounding_box(s)
    if not all(math.isfinite(v) for v in (qmin, qmax, pmin, pmax)):
        raise ValueError("the Fock route needs a bounded region")
    center = (0.5 * (qmin + qmax), 0.5 * (pmin + pmax))
    reach = 0.5 * math.hypot(qmax - qmin, pmax - pmin)
    size = min(FOCK_MAX_BASIS, math.ceil((reach + 4.0) ** 2 / 2.0))
    top = min(FOCK_MAX_BASIS, math.ceil((reach + 8.0) ** 2 / 2.0))
    while True:
        density = FOCK_DENSITY * math.sqrt(2.0 * top + 1.0)
        q, p, w = quadrature(s, density)
        m = cross_wigner_matrix(top - 1, q - center[0], p - center[1], w)
        prev = np.linalg.eigvalsh(m[:size, :size])
        while size < top:
            size = min(size + FOCK_STEP, top)
            vals = np.linalg.eigvalsh(m[:size, :size])
            change = max(abs(vals[0] - prev[0]), abs(vals[-1] - prev[-1]))
            prev = vals
            if change < FOCK_TOL:
                vals, vecs = np.linalg.eigh(m[:size, :size])
                psi_min, psi_max = _fock_vectors(vecs[:, [0, -1]], center)
                return SpectrumResult(
                    lambda_min=float(vals[0]),
                    lambda_max=float(vals[-1]),
                    method="fock",
                    psi_min=psi_min,
                    psi_max=psi_max,
                    basis_size=size,
                    error_estimate=float(change),
                )
        if top >= FOCK_MAX_BASIS:
            raise RuntimeError(
                "Fock basis did not settle to %g within %d states" % (FOCK_TOL, FOCK_MAX_BASIS)
            )
        top = min(FOCK_MAX_BASIS, math.ceil(FOCK_GROWTH * top))


def nystrom_extremes(s: Region, window) -> SpectrumResult:
    """Extreme eigenvalues of s's kernel discretized on the window (LO, HI).

    The window gets round((HI - LO) DEFAULT_POINTS_PER_UNIT) + 1 uniform
    points, at least 2 and at most NYSTROM_MAX_POINTS, checked before
    anything is allocated; kernels.assemble builds the matrix and the
    whole of it is diagonalized.  Eigenvectors come back as
    wavefunctions on the grid, normalized so that sum |psi|^2 dx = 1;
    the residual is the larger of ||A v - lambda v||_2 over the two
    extremes.  On an unbounded region the value is the kernel
    compressed to the window, and the result carries a warning that it
    is not a bound.
    """
    if window is None:
        raise ValueError("unbounded region with no closed form needs a window (--window LO HI)")
    lo, hi = (float(v) for v in window)
    n = round((hi - lo) * DEFAULT_POINTS_PER_UNIT) + 1
    if n < 2:
        raise ValueError("window %g..%g holds fewer than 2 grid points" % (lo, hi))
    if n > NYSTROM_MAX_POINTS:
        raise ValueError(
            "window %g..%g needs %d grid points, past the Nystrom limit of %d"
            % (lo, hi, n, NYSTROM_MAX_POINTS)
        )
    dx = (hi - lo) / (n - 1)
    a = assemble(s, lo, dx, n)
    w, v = np.linalg.eigh(a)
    vmin, vmax = v[:, 0], v[:, -1]
    res = max(
        float(np.linalg.norm(a @ vmin - w[0] * vmin)),
        float(np.linalg.norm(a @ vmax - w[-1] * vmax)),
    )
    notes = []
    if not all(math.isfinite(edge) for edge in bounding_box(s)):
        notes.append(
            "unbounded region: this is the kernel compressed to the window %g..%g,"
            " an inner estimate that moves with the window, not a bound" % (lo, hi)
        )
    scale = 1.0 / math.sqrt(dx)
    return SpectrumResult(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        method="nystrom",
        residual=res,
        psi_min=WavefunctionGrid(lo, dx, vmin * scale),
        psi_max=WavefunctionGrid(lo, dx, vmax * scale),
        warnings=notes,
    )


def _band_bounds(s: Region) -> SpectrumResult | None:
    """Sharp bounds for a band between two parallel lines, or None.

    s is a band when it is a Graph with b = -inf, c = +inf and every
    segment of f1 and f2 has one slope, to 1e-12 relative to
    max(1, |slope|); the two lines are read as extended past their
    outermost knots.  The shear (q, p) -> (q, p - slope q) is canonical
    and maps the band onto a momentum band, whose kernel is the
    projection onto that momentum interval, so the bounds are exactly
    0 and 1, both attained; coincident lines leave an empty region and
    (0, 0).
    """
    if not (isinstance(s, Graph) and s.b == -math.inf and s.c == math.inf):
        return None
    slopes = np.concatenate([np.diff(f.values) / np.diff(f.qs) for f in (s.f1, s.f2)])
    if np.ptp(slopes) > 1e-12 * max(1.0, float(np.max(np.abs(slopes)))):
        return None
    # the gap f2 - f1 is constant, and Graph has checked that it is not
    # negative; read it at the first knot of f1
    gap = s.f2.values[0] + slopes[0] * (s.f1.qs[0] - s.f2.qs[0]) - s.f1.values[0]
    return SpectrumResult(lambda_min=0.0, lambda_max=1.0 if gap > 1e-12 else 0.0, method="exact")


def bounds(s: Region, method: str = "auto", window=None) -> SpectrumResult:
    """Sharp bounds on the integral of any Wigner function over s.

    method "auto" takes the closed forms for disks, ellipses and annuli
    (see disk_envelope) and for bands between parallel lines ([0, 1],
    with n_min/n_max None), and the Fock route for any other bounded
    region; "numeric" skips the closed forms.  The result's method
    names the route taken.  An unbounded region left without a closed
    form takes nystrom_extremes, which needs a window (LO, HI); its
    result carries a warning that it is the kernel compressed to the
    window, not a bound.  A window that is not finite with LO < HI is
    refused on every region; on a bounded one a valid window is ignored.
    """
    if method not in ("auto", "numeric"):
        raise ValueError("method must be 'auto' or 'numeric', got %r" % (method,))
    if window is not None:
        lo, hi = (float(v) for v in window)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("window must be finite LO HI with LO < HI")
    if method == "auto":
        if isinstance(s, Disk):
            return disk_envelope(s.radius)
        if isinstance(s, Ellipse):
            return disk_envelope(math.sqrt(s.semi_major * s.semi_minor))
        if isinstance(s, Annulus):
            return annulus_envelope(s.r_inner, s.r_outer)
        band = _band_bounds(s)
        if band is not None:
            return band
    if all(math.isfinite(v) for v in bounding_box(s)):
        return fock_extremes(s)
    return nystrom_extremes(s, window)
