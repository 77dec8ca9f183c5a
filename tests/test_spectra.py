"""Eigenvalue curves, envelopes, crossings and the route bounds() picks."""
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import eval_laguerre

from wigner_bounds import (
    Annulus,
    Disk,
    RegionUnion,
    SpectrumResult,
    bounds,
    crossing_radius,
    disk_curves,
    disk_spectrum,
    fock_extremes,
    region_from_dict,
    rings_envelope,
)
from wigner_bounds import spectra
from wigner_bounds.spectra import DISK_MAX_TERMS
from oracle import CanonicalMap, apply_canonical, nystrom_extremes, reduce_ellipse

# greatest root of lambda_3(a) = lambda_4(a), frozen from a dense scan
# of the quadrature curves refined by bisection
A3_CROSSING = 1.9696155060244161

# the largest radius the exact route takes: its scan of ceil(10 a^2)
# eigenvalues is DISK_MAX_TERMS long
CAP_RADIUS = math.sqrt(DISK_MAX_TERMS / 10.0)
CAP_REFUSAL = "^exact disk spectrum scans at most %d terms, radius <= %g$" % (DISK_MAX_TERMS, CAP_RADIUS)


def lam_closed(n, a):
    e = math.exp(-a * a)
    if n == 0:
        return 1 - e
    if n == 1:
        return 1 - (1 + 2 * a**2) * e
    if n == 2:
        return 1 - (1 + 2 * a**4) * e
    return 1 - (1 + 2 * a**2 - 2 * a**4 + (4.0 / 3.0) * a**6) * e


def test_disk_eigenvalue_closed_forms():
    for a in (0.3, 1.0, 2.0, 3.0):
        for n in range(4):
            assert abs(disk_spectrum(a, n)[n] - lam_closed(n, a)) < 1e-12


def test_disk_eigenvalue_edge_cases():
    for n in (0, 3, 17):
        assert disk_spectrum(0.0, n)[n] == 0.0
    with pytest.raises(ValueError):
        disk_spectrum(1.0, -1)
    with pytest.raises(ValueError):
        disk_spectrum(-0.5, 0)


def test_disk_eigenvalue_saturates_for_large_disk():
    # lambda_n -> 1 once the disk swallows the state: radius past the
    # classical turning point sqrt(2n+1) plus four units of tail
    for n in range(21):
        for a in (math.sqrt(2 * n + 1) + 4.0, 12.0, 15.0, 20.0):
            assert abs(disk_spectrum(a, n)[n] - 1.0) < 1e-10


def quadrature_eigenvalues(a, n_top):
    """(-1)^n Integral_0^{a^2} L_n(2u) e^{-u} du for n = 0 .. n_top, all
    on one (n_top + 32)-node Gauss-Legendre rule: an oracle independent
    of the Laguerre sweep."""
    x, w = leggauss(n_top + 32)
    u = 0.5 * a * a * (x + 1.0)
    n = np.arange(n_top + 1)
    return (-1.0) ** n * 0.5 * a * a * (eval_laguerre(n[:, None], 2.0 * u) @ (w * np.exp(-u)))


def test_disk_spectrum_matches_quadrature():
    # leggauss nodes and weights for 672 points cap this oracle at about
    # 1.2e-12 for a = 8 (at n = 1 and n = 300) against a 60-digit
    # reference, where the sweep itself is off by 4e-16
    for a in (0.5, 2.0, 5.0, 8.0):
        n_top = max(50, math.ceil(10.0 * a * a))
        spec = disk_spectrum(a, n_top)
        assert spec.shape == (n_top + 1,)
        assert np.max(np.abs(spec - quadrature_eigenvalues(a, n_top))) < 3e-12


def incomplete_gamma_eigenvalues(mpmath, radius, ns):
    """lambda_n(radius) for each n in ns from the binomial expansion of
    L_n, lambda_n = (-1)^n sum_k C(n, k) (-2)^k P(k + 1, a^2), with P the
    regularized lower incomplete gamma function from its exponential
    series.  The P are rounded to fixed point with enough fraction bits
    to cover the 3^n cancellation and summed in exact integers, so no
    Laguerre recurrence and no float sweep runs."""
    top = max(ns)
    bits = math.ceil(top * math.log2(3.0)) + 96
    with mpmath.workprec(bits + 64):
        big_a = mpmath.mpf(radius) ** 2
        decay = mpmath.exp(-big_a)
        term = partial = mpmath.mpf(1)
        fixed = []
        for k in range(top + 1):
            fixed.append(int(mpmath.nint(mpmath.ldexp(1 - decay * partial, bits))))
            term = term * big_a / (k + 1)
            partial += term
    out = []
    for n in ns:
        total, coeff = 0, 1  # coeff = C(n, k) (-2)^k
        for k in range(n + 1):
            total += coeff * fixed[k]
            coeff = -2 * (coeff * (n - k) // (k + 1))
        out.append((-1) ** n * total / (1 << bits))
    return out


def test_disk_spectrum_past_the_float_range_of_its_start():
    """Past radius 26.46, e^{-a^2} is below the normal float range and
    the sweep carries a scale factor until its terms come back into it.
    At radii 27, 30 and the cap's 40, lambda_n matches the incomplete
    gamma sums to 1e-14 at the envelope's n_min, at the turning point
    a^2 / 2 where the terms stop growing, at 2 a^2 and past it.  Shedding
    by 1e-200 instead of exp(-_SHED) errs by 2.9e-14 at radius 40."""
    mpmath = pytest.importorskip("mpmath")
    for a, n_min in ((27.0, 375), (30.0, 461), (CAP_RADIUS, 813)):
        a2 = round(a * a)
        ns = [n_min, a2 // 2, 2 * a2, 2 * a2 + 75]
        got = disk_spectrum(a, max(ns))
        assert np.argmin(got) == n_min
        want = incomplete_gamma_eigenvalues(mpmath, a, ns)
        for n, value in zip(ns, want):
            assert abs(got[n] - value) < 1e-14, (a, n, got[n] - value)


def test_disk_spectrum_array_radii():
    radii = np.array([0.0, 0.3, 1.0, 2.5, 7.0])
    spec = disk_spectrum(radii, 40)
    assert spec.shape == (5, 41)
    for k, a in enumerate(radii):
        assert np.array_equal(spec[k], disk_spectrum(float(a), 40))
    assert np.array_equal(disk_spectrum(0.0, 30), np.zeros(31))


def test_disk_spectrum_refuses_out_of_range():
    assert disk_spectrum(CAP_RADIUS, 10).shape == (11,)
    with pytest.raises(ValueError):
        disk_spectrum(CAP_RADIUS + 0.5, 10)
    with pytest.raises(ValueError):
        disk_spectrum(np.array([1.0, CAP_RADIUS + 1.0]), 10)
    with pytest.raises(ValueError):
        disk_spectrum(1.0, -1)
    with pytest.raises(ValueError):
        disk_spectrum(-0.5, 3)
    for bad in (float("nan"), float("inf"), np.array([1.0, np.nan]), np.array([[1.0], [np.inf]])):
        with pytest.raises(ValueError, match=CAP_REFUSAL):
            disk_spectrum(bad, 3)
    with pytest.raises(ValueError):
        rings_envelope([(0.0, CAP_RADIUS + 1.0)])
    with pytest.raises(ValueError):
        rings_envelope([(0.0, 1.0), (2.0, CAP_RADIUS + 1.0)])
    with pytest.raises(ValueError, match=CAP_REFUSAL):
        rings_envelope([(0.0, float("inf"))])
    for bad in (float("inf"), float("nan"), 1e200):
        with pytest.raises(ValueError, match=CAP_REFUSAL):
            disk_curves([1.0, bad], 3)
    for rings in ([(1.0, 0.5)], [(-0.1, 1.0)], [(0.0, 0.5), (1.5, 1.2)], [(0.0, float("nan"))], []):
        with pytest.raises(ValueError, match="need 0 <= r_inner <= r_outer"):
            rings_envelope(rings)
    # an empty ring adds nothing; the zero disk has every eigenvalue 0
    got, want = rings_envelope([(0.0, 0.5), (1.5, 1.5)]), rings_envelope([(0.0, 0.5)])
    assert abs(got.lambda_min - want.lambda_min) < 1e-15 and got.n_min == want.n_min
    assert rings_envelope([(0.0, 0.0)]).lambda_max == 0.0


def test_annulus_eigenvalue_values():
    """An annulus with no hole is the disk, and a small hole takes
    lambda_0(r) off the top eigenvalue, n = 0, in closed form."""
    assert rings_envelope([(0.0, 1.0)]).lambda_max == disk_spectrum(1.0, 0)[0]
    env = rings_envelope([(0.1, 1.0)])
    assert env.n_max == 0
    assert abs(env.lambda_max - (math.exp(-0.01) - math.exp(-1.0))) < 1e-14


def test_disk_envelope_branches():
    assert rings_envelope([(0.0, 0.5)]).n_min == 1
    assert rings_envelope([(0.0, 1.2)]).n_min == 2
    env = rings_envelope([(0.0, 1.0)])
    assert env.n_min == 1  # threefold tie at a = 1 breaks toward smaller n
    assert abs(env.lambda_min - (1 - 3 / math.e)) < 1e-12
    assert env.n_max == 0
    assert env.method == "exact"


def test_disk_envelope_lambda_max_is_lambda0():
    for a in np.linspace(0.1, 3.0, 12):
        env = rings_envelope([(0.0, float(a))])
        assert env.n_max == 0
        assert abs(env.lambda_max - disk_spectrum(float(a), 0)[0]) < 1e-15


def test_disk_envelope_cutoff_warning():
    """An extreme on the scan's cutoff may not be the row's extreme, so
    the envelope refuses it rather than return it."""
    with pytest.raises(RuntimeError, match="^eigenvalue scan hit its cutoff at n = 1$"):
        spectra._envelope(disk_spectrum(1.0, 1)[None], [1])


def test_envelopes_end_inside_their_scans():
    """No extreme of a disk up to the cap radius, nor of a seeded random
    annulus, lies on its scan's cutoff max(50, ceil(10 r^2)), so none of
    these envelopes raises."""
    radii = np.linspace(0.01, CAP_RADIUS, 200)
    _, envelopes = disk_curves(radii, 0)
    assert len(envelopes) == len(radii)
    rng = np.random.default_rng(2024)
    for r_out in rng.uniform(0.01, 12.0, 60):
        env = rings_envelope([(rng.uniform(0.0, r_out), r_out)])
        assert env.method == "exact"


def test_disk_curves_envelopes_equal_rings_envelope_field_by_field():
    """The one envelope scan over a disk_curves table gives, row by row,
    the SpectrumResult of rings_envelope on that radius alone: at a = 0,
    at the crossings where the lower envelope changes hands, and at the
    largest radius the exact route takes."""
    radii = [0.0, 1.0, *(crossing_radius(n) for n in range(1, 6)), CAP_RADIUS]
    _, envelopes = disk_curves(radii, 3)
    assert len(envelopes) == len(radii)
    for a, got in zip(radii, envelopes):
        want = rings_envelope([(0.0, a)])
        assert got.method == want.method == "exact"
        assert got.lambda_min == want.lambda_min
        assert got.lambda_max == want.lambda_max
        assert got.n_min == want.n_min
        assert got.n_max == want.n_max


def test_crossing_radii():
    assert abs(crossing_radius(1) - 1.0) < 1e-9
    assert abs(crossing_radius(2) - math.sqrt((3 + math.sqrt(3)) / 2)) < 1e-9
    assert abs(crossing_radius(3) - A3_CROSSING) < 1e-8
    # past n = 5 both curves round to 1 well inside the scan; that tail
    # must not pass for a crossing
    radii = [crossing_radius(n) for n in range(1, 11)]
    assert all(r1 < r2 < r1 + 1.0 for r1, r2 in zip(radii, radii[1:]))
    for n, r in enumerate(radii, start=1):
        assert abs(disk_spectrum(r, n + 1)[n + 1] - disk_spectrum(r, n)[n]) < 1e-9
    with pytest.raises(ValueError):
        crossing_radius(0)
    for n in (23, 40, 60):
        r = crossing_radius(n)
        diff = [disk_spectrum(a, n + 1)[n + 1] - disk_spectrum(a, n)[n] for a in (r - 1e-7, r + 1e-7)]
        assert diff[0] * diff[1] < 0


def test_nystrom_matches_envelope():
    env = rings_envelope([(0.0, 1.5)])
    lo, hi = nystrom_extremes(Disk((0.0, 0.0), 1.5), (-6.0, 6.0))
    assert abs(lo - env.lambda_min) < 1e-4
    assert abs(hi - env.lambda_max) < 1e-4


def test_annulus_envelope_scans_both_sides():
    env = rings_envelope([(1.0, 2.0)])
    vals = disk_spectrum(2.0, 59) - disk_spectrum(1.0, 59)
    assert abs(env.lambda_min - min(vals)) < 1e-15
    assert abs(env.lambda_max - max(vals)) < 1e-15
    assert env.n_max != 0  # the widest ring mode is not the ground mode here


def test_spectrum_result_validation():
    with pytest.raises(ValueError):
        SpectrumResult(lambda_min=1.0, lambda_max=0.0, method="exact")
    for method in ("magic", "nystrom"):
        with pytest.raises(ValueError, match="method must be 'exact' or 'fock'"):
            SpectrumResult(lambda_min=0.0, lambda_max=1.0, method=method)


# bounds() against the route it picks, called directly.  The conics are
# off centre, the ellipse rotated.
SHAPES = {
    "disk": {"type": "disk", "center": [0.3, -0.2], "radius": 1.0},
    "ellipse": {"type": "ellipse", "center": [0.4, -0.3], "semi_major": 1.5,
                "semi_minor": 0.6, "angle": 0.7},
    "annulus": {"type": "annulus", "center": [0.2, 0.1], "r_inner": 0.5, "r_outer": 1.2},
    "graph": {"type": "graph", "b": -1.0, "c": 1.0,
              "f1": [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]],
              "f2": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]},
    "union": {"type": "union", "parts": [
        {"type": "disk", "center": [-1.2, 0.0], "radius": 0.6},
        {"type": "disk", "center": [1.0, 0.3], "radius": 0.5}]},
    "strip": {"type": "graph", "b": "-inf", "c": "+inf",
              "f1": [[-20.0, -0.5], [20.0, -0.5]], "f2": [[-20.0, 0.5], [20.0, 0.5]]},
    "concentric": {"type": "union", "parts": [
        {"type": "annulus", "center": [0.2, -0.1], "r_inner": 0.8, "r_outer": 1.1},
        {"type": "disk", "center": [0.2, -0.1], "radius": 0.4}]},
}
# unbounded above and below, but the upper line bends up at q = +-6
KINKED = {"type": "graph", "b": "-inf", "c": "+inf",
          "f1": [[-20.0, -0.5], [20.0, -0.5]],
          "f2": [[-20.0, 7.5], [-6.0, 0.5], [6.0, 0.5], [20.0, 7.5]]}
GRIDS = {
    "no-grid": {},
}
# bounds() takes neither a grid count nor a window, so these calls are refused
REMOVED_GRIDS = {
    "count": {"grid_count": 201},
    "window": {"window": (-2.5, 2.5)},
    "window-count": {"window": (-2.5, 2.5), "grid_count": 151},
}


CLOSED_FORMS = {
    "disk": lambda s: rings_envelope([(0.0, s.radius)]),
    "ellipse": lambda s: rings_envelope([(0.0, reduce_ellipse(s)[0])]),
    "annulus": lambda s: rings_envelope([(s.r_inner, s.r_outer)]),
    "concentric": lambda s: rings_envelope([(0.8, 1.1), (0.0, 0.4)]),
}


REFUSAL = "no sharp bound for this unbounded region; bands between parallel lines are exact"


def expected_route(shape, method):
    """The direct call bounds() must match, or None where it must raise."""
    if shape in CLOSED_FORMS and method != "numeric":
        return CLOSED_FORMS[shape]
    if shape == "strip" and method != "numeric":  # a band: [0, 1] in closed form
        return lambda s: SpectrumResult(lambda_min=0.0, lambda_max=1.0, method="exact")
    if shape == "strip":  # a band under "numeric" is refused
        return None
    return fock_extremes  # every bounded region


@pytest.mark.parametrize("grid", [*GRIDS, *REMOVED_GRIDS])
@pytest.mark.parametrize("method", ["auto", "exact", "numeric"])
@pytest.mark.parametrize("shape", SHAPES)
def test_bounds_matches_direct_route(shape, method, grid):
    s = region_from_dict(SHAPES[shape])
    if grid in REMOVED_GRIDS:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            bounds(s, method, **REMOVED_GRIDS[grid])
        return
    if method == "exact":  # no longer a method: auto already takes every closed form
        with pytest.raises(ValueError, match="method must be"):
            bounds(s, method, **GRIDS[grid])
        return
    route = expected_route(shape, method)
    if route is None:
        with pytest.raises(ValueError, match=REFUSAL):
            bounds(s, method, **GRIDS[grid])
        return
    got, want = bounds(s, method, **GRIDS[grid]), route(s)
    for field in ("lambda_min", "lambda_max", "method", "n_min", "n_max", "basis_size",
                  "error_estimate"):
        assert getattr(got, field) == getattr(want, field), field


def test_bounds_refusals():
    disk = region_from_dict(SHAPES["disk"])
    for method in ("exact", "fock", True, None):
        with pytest.raises(ValueError, match="method must be"):
            bounds(disk, method)


def band(f1, f2, b="-inf", c="+inf"):
    return region_from_dict({"type": "graph", "b": b, "c": c, "f1": f1, "f2": f2})


def test_bands_between_parallel_lines_are_exact():
    """A shear maps any band onto a momentum band, whose kernel is a
    projection: the bounds are exactly 0 and 1, however the lines are
    drawn."""
    exact = (0.0, 1.0, "exact", None, None)
    horizontal = band([[-20.0, -0.5], [20.0, -0.5]], [[-20.0, 0.5], [20.0, 0.5]])
    sheared = band([[-20.0, -10.3], [20.0, 9.7]], [[-3.0, 1.5], [3.0, 4.5]])
    collinear = band(
        [[q, -0.3 * q - 1.0] for q in (-9.0, -1.5, 0.25, 9.0)],
        [[q, -0.3 * q + 0.2] for q in (-9.0, 2.0, 9.0)],
    )
    images = [
        apply_canonical(horizontal, CanonicalMap(alpha=a, beta=0.0, gamma=g, mu=1.0 / a, nu=n, rho=r))
        for a, g, n, r in ((1.0, 0.0, 0.5, 0.0), (1.7, -0.4, -2.3, 0.8), (-0.6, 1.1, 0.9, -3.0))
    ]
    for s in (horizontal, sheared, collinear, *images):
        got = bounds(s)
        assert (got.lambda_min, got.lambda_max, got.method, got.n_min, got.n_max) == exact
    empty = band([[-5.0, 0.5], [5.0, 3.0]], [[-1.0, 1.5], [1.0, 2.0]])
    got = bounds(empty)
    assert (got.lambda_min, got.lambda_max, got.method) == (0.0, 0.0, "exact")


def test_bands_refuse_reversed_lines():
    # the graph itself refuses a reversed band: where the knot ranges
    # overlap it compares the lines, and where they share no q nowhere
    # are both defined, whichever line lies on top
    with pytest.raises(ValueError, match="upper boundary must dominate"):
        band([[-9.0, 1.0], [9.0, 1.0]], [[-9.0, -1.0], [9.0, -1.0]])
    with pytest.raises(ValueError, match="knot ranges must overlap"):
        band([[-9.0, 1.0], [-5.0, 1.0]], [[5.0, -1.0], [9.0, -1.0]])
    with pytest.raises(ValueError, match="knot ranges must overlap"):
        band([[-9.0, -1.0], [-5.0, -1.0]], [[5.0, 1.0], [9.0, 1.0]])


def test_not_bands_take_no_closed_form():
    """A kink, a finite end or non-parallel lines leave an unbounded
    region without a closed form; bounds() refuses each, as it does a
    band under "numeric", rather than return a value that is not a
    bound.  A union with a band part is refused where it is built."""
    half = band([[-20.0, -0.5], [20.0, -0.5]], [[-20.0, 0.5], [20.0, 0.5]], b=-1.0)
    converging = band([[-20.0, -0.5], [20.0, -0.5]], [[-20.0, 0.5], [20.0, 0.5 + 1e-6]])
    with pytest.raises(ValueError, match="^union parts must be bounded$"):
        region_from_dict({"type": "union", "parts": [
            SHAPES["strip"], {"type": "disk", "center": [0.0, 3.0], "radius": 1.0}]})
    strip = region_from_dict(SHAPES["strip"])
    for s, method in ((region_from_dict(KINKED), "auto"), (half, "auto"), (converging, "auto"),
                      (strip, "numeric")):
        with pytest.raises(ValueError, match="^%s$" % REFUSAL):
            bounds(s, method)


# the disk r = 0.5 and the rings 1-1.5 and 2-2.2, all about (0.3, 0.2)
RINGS = ((0.0, 0.5), (1.0, 1.5), (2.0, 2.2))


def concentric(center, rings):
    return RegionUnion(tuple(
        Disk(center, r_out) if r_in == 0 else Annulus(center, r_in, r_out) for r_in, r_out in rings
    ))


def random_concentric(rng):
    """Two or three disjoint rings about a random centre, the innermost
    a disk half of the time."""
    m = int(rng.integers(2, 4))
    rings = np.sort(rng.uniform(0.2, 2.2, 2 * m)).reshape(m, 2)
    if rng.random() < 0.5:
        rings[0, 0] = 0.0
    return concentric(tuple(rng.uniform(-1.0, 1.0, 2)), [tuple(r) for r in rings])


def test_concentric_unions_are_exact():
    """A union of disks and annuli about one centre is diagonal in the
    number basis there: bounds() takes the closed form, and the Fock
    route agrees with it."""
    regions = [concentric((0.3, 0.2), RINGS)]
    regions += [random_concentric(np.random.default_rng(seed)) for seed in (11, 12, 13)]
    for s in regions:
        got = bounds(s)
        assert got.method == "exact"
        fock = fock_extremes(s)
        assert abs(got.lambda_min - fock.lambda_min) < 1e-10
        assert abs(got.lambda_max - fock.lambda_max) < 1e-10
    got = bounds(regions[0])
    assert abs(got.lambda_min - -0.32260646847454) < 1e-13
    assert abs(got.lambda_max - 0.49408801837531) < 1e-13


def test_off_centre_union_takes_fock():
    """Centres 1e-9 apart are past the 1e-12 relative tolerance, so the
    union takes the Fock route, which still lands next to the closed
    form of the centred union."""
    parts = concentric((0.3, 0.2), RINGS).parts
    moved = RegionUnion((Disk((0.3 + 1e-9, 0.2), 0.5), *parts[1:]))
    got = bounds(moved)
    assert got.method == "fock"
    exact = rings_envelope(RINGS)
    assert abs(got.lambda_min - exact.lambda_min) < 1e-8
    assert abs(got.lambda_max - exact.lambda_max) < 1e-8


def test_one_part_union_is_the_part():
    for part in (Disk((0.3, -0.2), 1.3), Annulus((-0.4, 0.1), 0.6, 1.9)):
        got, want = bounds(RegionUnion((part,))), bounds(part)
        for field in ("lambda_min", "lambda_max", "method", "n_min", "n_max"):
            assert getattr(got, field) == getattr(want, field), field
