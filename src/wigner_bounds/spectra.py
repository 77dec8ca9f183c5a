"""Extreme eigenvalues of region kernels, in closed form or in the number basis.

The eigenvalues of a disk kernel of radius a are

    lambda_n(a) = (-1)^n Integral_0^{a^2} L_n(2u) e^{-u} du,  n >= 0,

with L_n the Laguerre polynomials; eigenvalue n belongs to the n-th
oscillator eigenfunction.  The generating function
Sum t^n L_n(x) = e^{-xt/(1-t)} / (1-t) turns the integral into a
closed form that one sweep of e^{-a^2} L_n(2a^2) gives for every n at
once (disk_spectrum).  The largest is always lambda_0(a) and the most
negative scallops between consecutive odd-indexed curves as a grows,
so the sharp bounds on the disk integral of any Wigner function come
from scanning these curves.  Concentric rings r_in < r_out share that
eigenbasis, with eigenvalues Sum lambda_n(r_out) - lambda_n(r_in).

A band between two parallel lines is sheared by (q, p) -> (q, p - s q)
onto a momentum band, whose kernel is a projection, so its sharp
bounds are exactly 0 and 1, both attained.

Any other bounded region takes the Fock route (fock_extremes): the
kernel's matrix in the number basis, <m|K_S|n> = integral over S of the
cross-Wigner function W_mn, is turned by Green's theorem into a line
integral around the region's boundary, integrated with a rule exact in
the region's geometry, and the extremes of its leading blocks converge
from inside by Cauchy interlacing.  An unbounded region that is not a
band has no sharp bound here and is refused.

bounds(region) is the one entry point that picks among these routes
from the region alone: the closed forms for concentric rings (disks,
annuli, their unions about one centre, and ellipses as the disk of
equal area) and bands; otherwise the Fock route for a bounded region
and a refusal for an unbounded one.
method="numeric" skips the closed forms.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .regions import Annulus, Disk, Ellipse, Graph, Region, RegionUnion, _conic, boundary_rule, bounding_box
from .specfun import _laguerre_terms, boundary_wigner_columns

__all__ = [
    "DISK_MAX_TERMS",
    "FOCK_MAX_BASIS",
    "FOCK_TOL",
    "SpectrumResult",
    "bounds",
    "crossing_radius",
    "disk_curves",
    "disk_spectrum",
    "fock_extremes",
    "rings_envelope",
]

# the exact route scans max(50, ceil(10 a^2)) eigenvalues of a disk of radius
# a, and refuses a scan past DISK_MAX_TERMS (radius 40), whose time it bounds
DISK_MAX_TERMS = 16000

# the Fock route reads leading blocks FOCK_STEP states apart and stops
# once the extremes of two consecutive ones differ by less than FOCK_TOL,
# within FOCK_MAX_BASIS states.  Its one matrix is grown column by column
# as far as the block read; a block past it rebuilds it FOCK_GROWTH times
# larger
FOCK_TOL = 1e-10
FOCK_STEP = 8
FOCK_MAX_BASIS = 400
FOCK_GROWTH = 1.5
# boundary nodes per unit length of boundary per unit of sqrt(2N + 1),
# the largest phase-plane wavenumber of the basis over two; doubling it
# moves no extreme of the Fock test regions by 1e-12
FOCK_DENSITY = 0.75


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Extreme eigenvalues of a region kernel.

    method is "exact" (closed-form eigenvalue curves, or the [0, 1] of
    a band) or "fock" (number basis matrix).  n_min/n_max index the
    eigenvalue curves of concentric rings on the exact route; a band has
    none and leaves them None.  The Fock route reports its basis_size
    and, as error_estimate, the change of the extremes between its last
    two blocks, FOCK_STEP states apart; that change is a convergence
    signal, not a bound on the error, which can be larger (1.2e-10 from
    a 260-state build, against an estimate of 7.7e-11, on two radius-0.7
    disks at (+-1.8, 0)).  No route returns eigenvectors.
    """

    lambda_min: float
    lambda_max: float
    method: str
    n_min: int | None = None
    n_max: int | None = None
    basis_size: int | None = None
    error_estimate: float | None = None

    def __post_init__(self):
        if self.method not in ("exact", "fock"):
            raise ValueError("method must be 'exact' or 'fock'")
        if not self.lambda_min <= self.lambda_max:
            raise ValueError("lambda_min exceeds lambda_max")


def disk_spectrum(a, n_top: int) -> np.ndarray:
    """lambda_0(a) .. lambda_{n_top}(a) for centered disks of radius a.

    The closed form

        lambda_n = 1 - (-1)^n e^{-a^2} T_n,
        T_0 = 1,  T_n = L_n(2a^2) - L_{n-1}(2a^2) - T_{n-1},

    is swept forward as lambda_n = lambda_{n-1} - (-1)^n (l_n - l_{n-1})
    with l_n = e^{-a^2} L_n(2a^2), which gathers rounding only while
    lambda_n is near 1.  specfun's sweep keeps each l_n in [-1, 1] and
    finite past e^{-a^2} = 1e-304.  a may be a scalar or an array; the
    result has shape a.shape + (n_top + 1,).  A radius whose own scan
    passes DISK_MAX_TERMS, NaN or inf is refused.
    """
    if n_top < 0:
        raise ValueError("eigenvalue scan cutoff must be nonnegative")
    a = np.asarray(a, dtype=float)
    if np.any(a < 0):
        raise ValueError("radius must be nonnegative")
    _cutoff(np.max(a, initial=0.0))  # the cap check
    out = np.empty(a.shape + (n_top + 1,))
    lam, prev = 1.0, 0.0
    for n, term in zip(range(n_top + 1), _laguerre_terms(2.0 * a * a)):
        lam = lam + (term - prev if n % 2 else prev - term)
        out[..., n] = lam
        prev = term
    return out


def _cutoff(radius) -> int:
    terms = 10.0 * float(radius) * float(radius)  # inf, not a warning, past 1e154
    if not terms <= DISK_MAX_TERMS:
        msg = "exact disk spectrum scans at most %d terms, radius <= %g"
        raise ValueError(msg % (DISK_MAX_TERMS, math.sqrt(DISK_MAX_TERMS / 10.0)))
    return max(50, math.ceil(terms))


def _envelope(table: np.ndarray, tops) -> list[SpectrumResult]:
    """Sharp bounds of each row of a 2-D eigenvalue table, row i scanned
    over n = 0..tops[i]; the rule behind every exact envelope.  An
    extreme on its row's cutoff raises RuntimeError, since the scan may
    have stopped short of it."""
    scanned = np.arange(table.shape[1]) <= np.asarray(tops)[:, None]
    lo = np.min(table, axis=1, keepdims=True, where=scanned, initial=np.inf)
    hi = np.max(table, axis=1, keepdims=True, where=scanned, initial=-np.inf)
    # crossing radii carry exact degeneracies (a = 1 is even threefold,
    # lambda_1 = lambda_2 = lambda_4 there); break ties toward smaller n
    # through a tolerance well above rounding noise.  Each extreme lies
    # within its row's scan, so the first n within tolerance does too.
    n_min = np.argmax(table <= lo + 1e-12, axis=1)
    n_max = np.argmax(table >= hi - 1e-12, axis=1)
    rows = np.arange(len(table))
    for top, i, j in zip(tops, n_min.tolist(), n_max.tolist()):
        if top in (i, j):
            raise RuntimeError("eigenvalue scan hit its cutoff at n = %d" % top)
    return [
        SpectrumResult(lambda_min=v_min, lambda_max=v_max, method="exact", n_min=i, n_max=j)
        for i, j, v_min, v_max in zip(
            n_min.tolist(),
            n_max.tolist(),
            table[rows, n_min].tolist(),
            table[rows, n_max].tolist(),
        )
    ]


def rings_envelope(rings) -> SpectrumResult:
    """Sharp bounds for disjoint concentric (r_inner, r_outer) rings, a disk being (0, r).

    Eigenvalue n is the sum of lambda_n(r_outer) - lambda_n(r_inner) over
    the rings.  Both extremes come from one scan over n up to
    max(50, ceil(10 r^2)) for the largest radius r (the largest need not
    be n = 0); an extreme on that cutoff raises RuntimeError.  A scan
    past DISK_MAX_TERMS (radius 40) is refused, as by disk_spectrum.
    """
    if len(rings) == 0 or not all(0 <= r_in <= r_out for r_in, r_out in rings):
        raise ValueError("need 0 <= r_inner <= r_outer for at least one ring")
    top = _cutoff(max(r_out for _, r_out in rings))
    # a scalar sweep per radius: two of them to top = 100 took 0.45-0.50 ms
    # on a 2-core VM, one array sweep of both radii 0.70-0.78 ms (1.5x)
    values = np.zeros(top + 1)
    for r_in, r_out in rings:
        values += disk_spectrum(r_out, top)
        if r_in > 0:
            values -= disk_spectrum(r_in, top)
    return _envelope(values[None], [top])[0]


def disk_curves(radii, n_top: int) -> tuple[np.ndarray, list[SpectrumResult]]:
    """lambda_0..lambda_{n_top} and the sharp bounds for each radius, from one sweep.

    Row i of the table holds the curves at radii[i]; its bounds scan the
    same sweep up to that radius's own default cutoff, so they equal
    rings_envelope([(0, radii[i])]).  One envelope scan serves every row.
    """
    radii = np.asarray(radii, dtype=float)
    tops = [_cutoff(a) for a in radii]
    table = disk_spectrum(radii, max([n_top, *tops]))
    return table[:, : n_top + 1], _envelope(table, tops)


def crossing_radius(n: int) -> float:
    """Radius of the last crossing of eigenvalue curves n and n+1, where
    they hand off the lower envelope of the disk spectrum.

    By the generating function

        lambda_{n+1}(a) - lambda_n(a) = (-1)^{n+1} e^{-a^2} (2a^2 / (n+1)) L_n^(1)(2a^2),

    so 2a^2 is the largest zero of the associated Laguerre polynomial
    L_n^(1): the largest eigenvalue of the n x n Jacobi matrix with
    diagonal 2k + 2 (k = 0..n-1) and off-diagonal sqrt(k (k + 1))
    (k = 1..n-1), as in the Golub-Welsch method.
    """
    if n < 1:
        raise ValueError("crossings are indexed from n = 1")
    off = np.sqrt(np.arange(1.0, n) * np.arange(2.0, n + 1))
    jacobi = np.diag(np.arange(2.0, 2 * n + 1, 2)) + np.diag(off, 1) + np.diag(off, -1)
    return math.sqrt(np.linalg.eigvalsh(jacobi)[-1] / 2.0)


def fock_extremes(s: Region) -> SpectrumResult:
    """Extreme eigenvalues of a bounded region's kernel in the number basis.

    The basis is centred on the region's bounding-box centre (q0, p0),
    whose half-diagonal is the reach r.  M_mn = integral over S of
    W_mn(q - q0, p - p0) comes by Green's theorem from nodes on the
    boundary of S alone, weighted (q - q0) dp - (p - p0) dq
    (regions.boundary_rule, specfun.boundary_wigner_columns); by Cauchy
    interlacing the extremes of its leading blocks move outward as the
    block grows.  Blocks are read from (r + 4)^2 / 2 states, where the
    basis first covers the region, in steps of exactly FOCK_STEP until
    both extremes change by less than FOCK_TOL.  The extremes of the
    settled block are the result, with no eigenvectors, and their change
    is the error_estimate.

    M is built for FOCK_GROWTH^2 N states, N = (r + 8)^2 / 2 (at most
    FOCK_MAX_BASIS), with boundary nodes and Chebyshev radii sized for
    that many, but its columns are computed only as far as the block
    being read, so no column past the settled block is made.  A block
    that would pass the build rebuilds it FOCK_GROWTH times larger, and
    the block last read is read again from the new build before the
    steps go on.  A block that would pass FOCK_MAX_BASIS raises
    RuntimeError rather than return an unconverged bound, and an N past
    FOCK_MAX_BASIS is refused with a ValueError before any quadrature
    runs.
    """
    qmin, qmax, pmin, pmax = bounding_box(s)
    if not all(math.isfinite(v) for v in (qmin, qmax, pmin, pmax)):
        raise ValueError("the Fock route needs a bounded region")
    center = (0.5 * (qmin + qmax), 0.5 * (pmin + pmax))
    reach = 0.5 * math.hypot(qmax - qmin, pmax - pmin)
    size = math.ceil((reach + 4.0) ** 2 / 2.0)
    top = math.ceil((reach + 8.0) ** 2 / 2.0)
    if top > FOCK_MAX_BASIS:
        msg = "the Fock route needs %d states for this region, past its limit of %d"
        raise ValueError(msg % (top, FOCK_MAX_BASIS))
    states = min(FOCK_MAX_BASIS, math.ceil(FOCK_GROWTH * math.ceil(FOCK_GROWTH * top)))
    while True:
        density = FOCK_DENSITY * math.sqrt(2.0 * states + 1.0)
        q, p, dq, dp = boundary_rule(s, density, center)
        columns = boundary_wigner_columns(states - 1, q, p, q * dp - p * dq)
        m = np.zeros((states, states), dtype=complex)
        prev = _leading_block(m, columns, 0, size)
        while size + FOCK_STEP <= states:
            size += FOCK_STEP
            vals = _leading_block(m, columns, size - FOCK_STEP, size)
            change = max(abs(vals[0] - prev[0]), abs(vals[-1] - prev[-1]))
            prev = vals
            if change < FOCK_TOL:
                return SpectrumResult(
                    lambda_min=float(vals[0]),
                    lambda_max=float(vals[-1]),
                    method="fock",
                    basis_size=size,
                    error_estimate=float(change),
                )
        if size + FOCK_STEP > FOCK_MAX_BASIS:
            raise RuntimeError("Fock basis did not settle to %g within %d states" % (FOCK_TOL, FOCK_MAX_BASIS))
        # the next block passes this build
        states = min(FOCK_MAX_BASIS, math.ceil(FOCK_GROWTH * states))


def _leading_block(m: np.ndarray, columns, read: int, size: int) -> np.ndarray:
    """Eigenvalues of m's leading size x size block, after filling rows
    read..size - 1 of its lower triangle, the one eigvalsh reads, from
    the next upper-triangle columns drawn from columns."""
    for k, col in zip(range(read, size), columns):
        m[k, : k + 1] = col.conj()
    return np.linalg.eigvalsh(m[:size, :size], UPLO="L")


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


def _rings(s: Region) -> list[tuple[float, float]] | None:
    """The rings of a disk, an annulus, an ellipse (as the disk of equal
    area) or a union of disks and annuli whose centres lie within 1e-12
    times the largest radius of each other; None for any other region.
    RegionUnion has already checked that the rings are disjoint.
    """
    parts = s.parts if isinstance(s, RegionUnion) else (s,)
    if not (isinstance(s, Ellipse) or all(isinstance(t, (Disk, Annulus)) for t in parts)):
        return None
    # sqrt(r r) is r exactly short of overflow and underflow: disks and annuli keep their radii
    rings = [(hole, math.sqrt(a * b)) for a, b, _, hole in map(_conic, parts)]
    tol = 1e-12 * max(r_out for _, r_out in rings)
    concentric = all(math.dist(t.center, u.center) <= tol for t, u in itertools.combinations(parts, 2))
    return rings if concentric else None


def bounds(s: Region, method: str = "auto") -> SpectrumResult:
    """Sharp bounds on the integral of any Wigner function over s.

    method "auto" takes the closed forms for concentric rings (see
    rings_envelope) and for bands between parallel lines ([0, 1],
    with n_min/n_max None), and the Fock route for any other bounded
    region; "numeric" skips the closed forms.  The result's method
    names the route taken.  An unbounded region left without a closed
    form (any unbounded region but a band, and a band under "numeric")
    has no sharp bound here and raises ValueError.
    """
    if method not in ("auto", "numeric"):
        raise ValueError("method must be 'auto' or 'numeric', got %r" % (method,))
    if method == "auto":
        rings = _rings(s)
        if rings is not None:
            return rings_envelope(rings)
        band = _band_bounds(s)
        if band is not None:
            return band
    if all(math.isfinite(v) for v in bounding_box(s)):
        return fock_extremes(s)
    raise ValueError("no sharp bound for this unbounded region; bands between parallel lines are exact")
