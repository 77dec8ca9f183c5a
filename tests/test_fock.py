"""The Fock-basis route against closed forms, the Nystrom oracle and itself."""
import json
import math

import numpy as np
import pytest

from wigner_bounds import (
    Annulus,
    Disk,
    Ellipse,
    Graph,
    PiecewiseLinear,
    RegionUnion,
    area,
    bounding_box,
    fock_extremes,
    region_from_dict,
    rings_envelope,
)
from wigner_bounds.cli import main
from wigner_bounds.regions import boundary_rule
from wigner_bounds.spectra import FOCK_DENSITY, FOCK_STEP
from wigner_bounds.specfun import boundary_wigner_columns
from oracle import assemble, boundary_wigner_matrix, closed_form_area, cross_wigner_matrix, quadrature
from test_acceptance import random_regions


def polyline(*knots):
    arr = np.array(knots, dtype=float)
    return PiecewiseLinear(arr[:, 0], arr[:, 1])


# the README's graph region
DIAMOND = Graph(-1.0, 1.0, polyline((-1, 0), (0, -1), (1, 0)), polyline((-1, 0), (0, 1), (1, 0)))
QUADRILATERAL = Graph(
    -1.2, 1.4,
    polyline((-1.2, 0.0), (0.25, -1.1), (1.4, 0.2)),
    polyline((-1.2, 0.3), (-0.25, 1.3), (1.4, 0.5)),
)
UNION = RegionUnion((
    Disk((-1.4, 0.1), 0.85),
    Graph(-0.1, 2.1, polyline((-0.1, -0.5), (2.1, -0.6)), polyline((-0.1, 0.5), (0.9, 0.9), (2.1, 0.4))),
))


CONIC_CASES = [
    (Disk((0.7, -0.4), 1.0), rings_envelope([(0.0, 1.0)])),
    (Disk((-1.1, 0.6), 1.7), rings_envelope([(0.0, 1.7)])),
    (Annulus((0.3, 0.2), 0.5, 1.5), rings_envelope([(0.5, 1.5)])),
    (Annulus((-0.5, 0.8), 1.0, 2.0), rings_envelope([(1.0, 2.0)])),
    (Ellipse((0.3, -0.6), 2.0, 0.5, 0.8), rings_envelope([(0.0, 1.0)])),
    (Ellipse((-0.2, 0.4), 1.8, 1.1, 2.3), rings_envelope([(0.0, math.sqrt(1.8 * 1.1))])),
]
# every region the Fock route is tested on here
FOCK_REGIONS = [region for region, _ in CONIC_CASES] + [DIAMOND, QUADRILATERAL, UNION]


def box_centre(region):
    box = bounding_box(region)
    return 0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3])


@pytest.mark.parametrize("region, exact", CONIC_CASES)
def test_fock_matches_closed_forms(region, exact):
    res = fock_extremes(region)
    assert res.method == "fock"
    assert abs(res.lambda_min - exact.lambda_min) < 1e-10
    assert abs(res.lambda_max - exact.lambda_max) < 1e-10
    assert res.error_estimate < 1e-10


def test_fock_readme_diamond():
    res = fock_extremes(DIAMOND)
    assert abs(res.lambda_min - -0.197566043) < 1e-9
    assert abs(res.lambda_max - 0.466612775) < 1e-9
    assert res.basis_size < 60 and res.error_estimate < 1e-10


def diamond(q0, p0, half):
    """|q - q0| + |p - p0| < half, as a graph."""
    qs = (q0 - half, q0, q0 + half)
    return Graph(qs[0], qs[2], polyline(*zip(qs, (p0, p0 - half, p0))), polyline(*zip(qs, (p0, p0 + half, p0))))


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_fock_far_diamond_matches_the_centred_one(offset):
    """The route takes its nodes about the box centre, from the vertices
    less it: a translate by whole numbers has the same nodes and so the
    same extremes.  Rounded at absolute coordinates, they moved by 1.0e-9
    at (1e8, -1e8), past FOCK_TOL, and by 5.0e-12 at (1e6, -1e6)."""
    want = fock_extremes(diamond(0.0, 0.0, 3.0))
    got = fock_extremes(diamond(offset, -offset, 3.0))
    assert abs(got.lambda_min - want.lambda_min) < 1e-12
    assert abs(got.lambda_max - want.lambda_max) < 1e-12


def mirror(region, centre, axis):
    """region reflected through q = q0 (axis 0) or p = p0 (axis 1)."""
    q0, p0 = centre
    if isinstance(region, RegionUnion):
        return RegionUnion(tuple(mirror(part, centre, axis) for part in region.parts))
    if isinstance(region, Disk):
        q, p = region.center
        return Disk((2 * q0 - q, p) if axis == 0 else (q, 2 * p0 - p), region.radius)
    if axis == 0:
        def flip(f):
            return PiecewiseLinear(2 * q0 - f.qs[::-1], f.values[::-1])
        return Graph(2 * q0 - region.c, 2 * q0 - region.b, flip(region.f1), flip(region.f2))
    def flip(f):
        return PiecewiseLinear(f.qs, 2 * p0 - f.values)
    return Graph(region.b, region.c, flip(region.f2), flip(region.f1))


@pytest.mark.parametrize("region", [DIAMOND, QUADRILATERAL, UNION])
def test_fock_mirror_invariance(region):
    """Reflections through the bounding-box centre are antiunitary, so they
    keep the kernel's spectrum; the mirrored regions keep that centre
    and so the basis the whole Fock route builds on."""
    box = bounding_box(region)
    centre = (0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))
    want = fock_extremes(region)
    for axis in (0, 1):
        image = mirror(region, centre, axis)
        assert np.allclose(bounding_box(image), box, rtol=0, atol=1e-12)
        got = fock_extremes(image)
        assert abs(got.lambda_min - want.lambda_min) < 1e-10
        assert abs(got.lambda_max - want.lambda_max) < 1e-10


def test_fock_leading_blocks_interlace():
    """Extremes of the leading N x N blocks move outward as N grows."""
    box = bounding_box(QUADRILATERAL)
    q, p, w = quadrature(QUADRILATERAL, 8.0)
    m = cross_wigner_matrix(59, q - 0.5 * (box[0] + box[1]), p - 0.5 * (box[2] + box[3]), w)
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    ext = np.array([np.linalg.eigvalsh(m[:n, :n])[[0, -1]] for n in range(1, 61)])
    assert np.all(np.diff(ext[:, 0]) <= 1e-14)
    assert np.all(np.diff(ext[:, 1]) >= -1e-14)
    assert ext[-1, 0] < ext[10, 0] - 1e-4  # the blocks really do move


def counting_builds(monkeypatch):
    """[states, columns drawn] for every build fock_extremes makes."""
    import wigner_bounds.spectra as spectra

    builds = []
    inner = spectra.boundary_wigner_columns

    def counting(n_top, q, p, w):
        builds.append([n_top + 1, 0])
        for col in inner(n_top, q, p, w):
            builds[-1][1] += 1
            yield col

    monkeypatch.setattr(spectra, "boundary_wigner_columns", counting)
    return builds


def recording_reads(monkeypatch):
    """The size of every leading block fock_extremes reads, in order."""
    import wigner_bounds.spectra as spectra

    sizes = []
    inner = spectra._leading_block

    def recording(m, columns, read, size):
        sizes.append(size)
        return inner(m, columns, read, size)

    monkeypatch.setattr(spectra, "_leading_block", recording)
    return sizes


BAR = Graph(-2.0, 2.0, polyline((-2, -0.25), (2, -0.25)), polyline((-2, 0.25), (2, 0.25)))


# (states built, basis_size settled at); the settled sizes are pinned,
# since sizing the one build larger and reading it by columns must not
# move them
@pytest.mark.parametrize("region, states, basis", [
    (DIAMOND, 102, 39),
    (QUADRILATERAL, 108, 57),
    (UNION, 122, 101),
])
def test_fock_builds_once_and_computes_no_column_past_the_settled_block(region, states, basis, monkeypatch):
    builds = counting_builds(monkeypatch)
    res = fock_extremes(region)
    assert res.basis_size == basis
    assert builds == [[states, basis]]


def test_fock_rebuilds_a_region_that_reads_past_its_first_build(monkeypatch):
    """A 4 x 0.5 bar starts at 19 states, is built for 116 and has not
    settled at block 115, so it is rebuilt 1.5 times larger, reads block
    115 again and settles at 155.  The bar is the diamond squeezed and
    turned, a canonical map, so its extremes are the diamond's."""
    builds = counting_builds(monkeypatch)
    res = fock_extremes(BAR)
    assert builds == [[116, 115], [174, 155]] and res.basis_size == 155
    assert abs(res.lambda_min - -0.197566043) < 1e-9
    assert abs(res.lambda_max - 0.466612775) < 1e-9


@pytest.mark.parametrize("region", [DIAMOND, QUADRILATERAL, UNION, BAR], ids=["diamond", "quadrilateral", "union", "bar"])
def test_fock_reads_blocks_exactly_one_step_apart(region, monkeypatch):
    """Every block read is FOCK_STEP states past the one before, so each
    stop compares blocks FOCK_STEP apart, as FOCK_TOL is set for; the one
    repeat is the block read again from a rebuild."""
    sizes = recording_reads(monkeypatch)
    res = fock_extremes(region)
    steps = np.diff(sizes)
    box = bounding_box(region)
    reach = 0.5 * math.hypot(box[1] - box[0], box[3] - box[2])
    assert sizes[0] == math.ceil((reach + 4.0) ** 2 / 2.0)
    assert sizes[-1] == res.basis_size
    assert set(steps.tolist()) <= {0, FOCK_STEP}
    assert np.count_nonzero(steps == 0) == (region is BAR)


# two unions of the benchmark's graph workload (seeds 1003 and 1017),
# with their extremes from a 260-state build, which a 320-state one
# matches to 1e-13; comparing blocks 3 states apart stops them 4.0e-10
# and 1.5e-9 off
BENCH_UNIONS = [
    ({"type": "union", "parts": [
        {"type": "disk", "center": [-1.3195808194489516, -0.06477883304885768], "radius": 0.8717347373592663},
        {"type": "graph", "b": -0.020276816645986878, "c": 1.9131988663776727,
         "f1": [[-0.020276816645986878, -0.5543063570816265], [1.9131988663776727, -0.5923705867728534]],
         "f2": [[-0.020276816645986878, 0.41225502091594957], [0.7376133964267757, 0.9119632460959202],
                [1.9131988663776727, 0.30016943535223284]]},
    ]}, (-0.2509378568149, 0.6910011197350)),
    ({"type": "union", "parts": [
        {"type": "disk", "center": [-1.3740219407798238, -0.21979036553929082], "radius": 0.8623750630615573},
        {"type": "graph", "b": -0.08428526320887797, "c": 2.004539801347724,
         "f1": [[-0.08428526320887797, -0.45381209915942033], [2.004539801347724, -0.6069882409087005]],
         "f2": [[-0.08428526320887797, 0.4148980103254741], [1.190191890629921, 0.9274829558536739],
                [2.004539801347724, 0.35052370644999536]]},
    ]}, (-0.2289211088396, 0.7024818454799)),
]


@pytest.mark.parametrize("spec, want", BENCH_UNIONS, ids=["seed1003", "seed1017"])
def test_fock_settles_the_benchmark_unions(spec, want):
    res = fock_extremes(region_from_dict(spec))
    assert abs(res.lambda_min - want[0]) < 1e-10
    assert abs(res.lambda_max - want[1]) < 1e-10


@pytest.mark.parametrize("n_top", [30, 70])
def test_column_reads_match_the_full_builds(n_top):
    """The lower triangle read column by column, as fock_extremes reads
    it, is the full build's on boundary and area nodes alike; its leading
    blocks have the full build's eigenvalues, and the full builds are
    exactly Hermitian."""
    import wigner_bounds.specfun as specfun

    q0, p0 = box_centre(QUADRILATERAL)
    q, p, dq, dp = boundary_rule(QUADRILATERAL, FOCK_DENSITY * math.sqrt(2.0 * n_top + 3.0))
    q, p = q - q0, p - p0
    qa, pa, wa = quadrature(QUADRILATERAL, 8.0)
    cases = [
        (boundary_wigner_columns(n_top, q, p, q * dp - p * dq), boundary_wigner_matrix(n_top, q, p, q * dp - p * dq)),
        (specfun._laguerre_columns(*specfun._node_sums(n_top, qa - q0, pa - p0, wa)), cross_wigner_matrix(n_top, qa - q0, pa - p0, wa)),
    ]
    for columns, full in cases:
        assert np.array_equal(full - full.conj().T, np.zeros_like(full))
        read = np.zeros_like(full)
        for k, col in enumerate(columns):
            assert col.shape == (k + 1,)
            read[k, : k + 1] = col.conj()
        assert k == n_top
        assert np.max(np.abs(read - np.tril(full))) < 1e-15
        for size in (1, n_top // 2, n_top + 1):
            got = np.linalg.eigvalsh(read[:size, :size], UPLO="L")
            assert np.array_equal(got, np.linalg.eigvalsh(full[:size, :size]))
    with pytest.raises(ValueError, match="nonnegative"):
        boundary_wigner_columns(-1, q, p, q * dp - p * dq)


def test_fock_against_nystrom_on_random_regions():
    """Nystrom's bias is O(h): on these regions it peaks at 8.6e-4 for
    h = 0.02 (4.2e-4 at h = 0.01), so the routes must agree to 0.05 h.
    The window [-8, 8] holds every extreme eigenvector."""
    h = 0.02
    worst = 0.0
    for region in random_regions(np.random.default_rng(20260814)):
        fock = fock_extremes(region)
        nys = np.linalg.eigvalsh(assemble(region, -8.0, h, 801))
        worst = max(worst, abs(fock.lambda_min - nys[0]), abs(fock.lambda_max - nys[-1]))
    assert worst < 0.05 * h


def test_fock_refuses_unsettled_and_unbounded_regions(tmp_path, capsys, monkeypatch):
    strip = Graph(-math.inf, math.inf, polyline((-9, -0.5), (9, -0.5)), polyline((-9, 0.5), (9, 0.5)))
    with pytest.raises(ValueError, match="bounded"):
        fock_extremes(strip)
    # the union starts at 54 states: a cap below that refuses it before
    # any quadrature runs
    monkeypatch.setattr("wigner_bounds.spectra.FOCK_MAX_BASIS", 40)
    with pytest.raises(ValueError, match="^the Fock route needs 54 states for this region, past its limit of 40$"):
        fock_extremes(UNION)
    # it settles at 101 states; with a cap of 64 it must raise, and
    # the command line must print no bound
    monkeypatch.setattr("wigner_bounds.spectra.FOCK_MAX_BASIS", 64)
    with pytest.raises(RuntimeError, match="did not settle"):
        fock_extremes(UNION)
    path = tmp_path / "union.json"
    path.write_text(json.dumps({
        "type": "union",
        "parts": [
            {"type": "disk", "center": [-1.4, 0.1], "radius": 0.85},
            {"type": "graph", "b": -0.1, "c": 2.1, "f1": [[-0.1, -0.5], [2.1, -0.6]],
             "f2": [[-0.1, 0.5], [0.9, 0.9], [2.1, 0.4]]},
        ],
    }))
    assert main(["bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "did not settle" in captured.err


def test_quadrature_integrates_gaussians_exactly():
    """Weights sum to the area, and a centred Gaussian integrates to its
    closed form on a disk and an annulus and, mapped through the axes,
    on an ellipse."""
    cases = [
        (Disk((0.0, 0.0), 1.3), math.pi * (1 - math.exp(-1.3**2))),
        (Annulus((0.0, 0.0), 0.4, 1.6), math.pi * (math.exp(-0.16) - math.exp(-2.56))),
        (DIAMOND, None),
        (UNION, None),
        (Ellipse((0.5, -0.2), 2.0, 0.5, 0.3), None),
    ]
    for region, gauss in cases:
        q, p, w = quadrature(region, 5.0)
        assert abs(np.sum(w) - area(region)) < 1e-12
        if gauss is not None:
            assert abs(np.sum(w * np.exp(-q * q - p * p)) - gauss) < 1e-12
    # the ellipse x^2/a^2 + y^2/b^2 < 1 has second moment pi a^3 b / 4 along a
    e = Ellipse((0.5, -0.2), 2.0, 0.5, 0.3)
    q, p, w = quadrature(e, 5.0)
    u = math.cos(0.3) * (q - 0.5) + math.sin(0.3) * (p + 0.2)
    assert abs(np.sum(w * u * u) - math.pi * 2.0**3 * 0.5 / 4) < 1e-12
    with pytest.raises(ValueError):
        quadrature(Graph(-math.inf, 1.0, polyline((-9, 0), (1, 0)), polyline((-9, 1), (1, 1))), 5.0)


def test_boundary_rule_caches_legendre_rules(monkeypatch):
    """Each Gauss-Legendre node count is built once, and the cached,
    read-only rules give the same nodes and tangents bit for bit as a
    fresh leggauss per edge."""
    import numpy.polynomial.legendre as legendre
    import wigner_bounds.regions as regions

    regions_under_test = (DIAMOND, QUADRILATERAL, UNION, Disk((0.7, -0.4), 1.0), Annulus((0.3, 0.2), 0.5, 1.5))
    fresh = legendre.leggauss
    counts = []

    def counting(count):
        counts.append(count)
        return fresh(count)

    monkeypatch.setattr(legendre, "leggauss", counting)
    regions._legendre_rule.cache_clear()
    cached = [boundary_rule(s, d) for d in (0.75, 5.0) for s in regions_under_test]
    assert counts and len(counts) == len(set(counts))
    first = len(counts)
    again = [boundary_rule(s, d) for d in (0.75, 5.0) for s in regions_under_test]
    assert len(counts) == first
    t, w = regions._legendre_rule(counts[0])
    assert not t.flags.writeable and not w.flags.writeable

    monkeypatch.setattr(regions, "_legendre_rule", fresh)
    uncached = [boundary_rule(s, d) for d in (0.75, 5.0) for s in regions_under_test]
    for a, b, c in zip(cached, again, uncached):
        for x, y, z in zip(a, b, c):
            assert np.array_equal(x, z) and np.array_equal(y, z)


def test_boundary_rule_splits_long_edges_into_panels(monkeypatch):
    """At 320 nodes per unit length, as check takes on a 0.05 grid, every
    edge of the quadrilateral needs more than 12 + 128 nodes: it is
    split into equal panels, so no Legendre rule is built past that size,
    and the panels still integrate q^2 dp (a cubic along each edge)
    around the region to the area integral of 2 q."""
    import numpy.polynomial.legendre as legendre
    import wigner_bounds.regions as regions

    fresh = legendre.leggauss
    counts = []

    def counting(count):
        counts.append(count)
        return fresh(count)

    monkeypatch.setattr(legendre, "leggauss", counting)
    regions._legendre_rule.cache_clear()
    q, p, dq, dp = boundary_rule(QUADRILATERAL, 320.0)
    assert counts and max(counts) <= 12 + 128
    assert abs(np.sum(q * dp - p * dq) - 2.0 * closed_form_area(QUADRILATERAL)) < 1e-13
    qa, _, wa = quadrature(QUADRILATERAL, 5.0)
    assert abs(np.sum(q * q * dp) - np.sum(2.0 * qa * wa)) < 1e-13


def about_box_centre(region):
    return region, box_centre(region)


# regions where the boundary form of the build is most likely to slip,
# each with the basis centre it is built about
GREEN_CASES = [about_box_centre(region) for region in FOCK_REGIONS] + [
    # a bowtie pinched at its box centre, so its boundary runs through it
    (Graph(-1.0, 1.0, polyline((-1, -1), (0, 0), (1, -1)), polyline((-1, 1), (0, 0), (1, 1))), (0.0, 0.0)),
    # a triangle whose long edge runs through its box centre
    (Graph(-1.0, 1.0, polyline((-1, -1), (1, 1)), polyline((-1, 1), (1, 1))), (0.0, 0.0)),
    # a sliver 1e-6 thick
    about_box_centre(Graph(-1.0, 1.0, polyline((-1, 0.1), (1, 0.3)), polyline((-1, 0.1 + 1e-6), (1, 0.3 + 1e-6)))),
    # a small region far from the basis centre
    (Graph(3.0, 3.2, polyline((3.0, 2.0), (3.2, 2.1)), polyline((3.0, 2.3), (3.2, 2.2))), (0.0, 0.0)),
    (Disk((1.3, -0.9), 0.6), (0.0, 0.0)),
    (Annulus((-0.4, 0.7), 0.3, 1.1), (0.0, 0.0)),
    (Ellipse((0.4, 0.2), 1.5, 0.4, 2.1), (0.0, 0.0)),
    about_box_centre(RegionUnion((Disk((2.2, 1.2), 0.5), QUADRILATERAL))),
]
GREEN_IDS = ["%s-%d" % (type(region).__name__, k) for k, (region, _) in enumerate(GREEN_CASES)]


@pytest.mark.parametrize("region, centre", GREEN_CASES, ids=GREEN_IDS)
def test_boundary_build_matches_area_build(region, centre):
    """Green's theorem: the boundary build on boundary_rule is the area
    build on quadrature, here at twice the density, for bases from 1 to
    250 states."""
    q0, p0 = centre
    for n_top in (0, 1, 53, 121, 249):
        density = FOCK_DENSITY * math.sqrt(2.0 * n_top + 3.0)
        q, p, dq, dp = boundary_rule(region, density)
        q, p = q - q0, p - p0
        got = boundary_wigner_matrix(n_top, q, p, q * dp - p * dq)
        q, p, w = quadrature(region, 2.0 * density)
        want = cross_wigner_matrix(n_top, q - q0, p - p0, w)
        assert np.max(np.abs(got - want)) < 1e-13
        assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("region", [region for region, _ in GREEN_CASES], ids=GREEN_IDS)
def test_boundary_rule_encloses_the_area(region):
    """sum (q dp - p dq) is twice the closed-form area: the rule runs
    around the region once, with the region on its left.  area, which
    sums the same form about the box centre at density 0, agrees."""
    exact = closed_form_area(region)
    for density in (0.5, 7.0):
        q, p, dq, dp = boundary_rule(region, density)
        assert abs(np.sum(q * dp - p * dq) - 2.0 * exact) < 1e-14
    assert abs(area(region) - exact) < 1e-14


def test_boundary_rule_refuses_unbounded_graphs():
    for b, c in ((-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf)):
        strip = Graph(b, c, polyline((-9, 0), (9, 0)), polyline((-9, 1), (9, 1)))
        with pytest.raises(ValueError, match="bounded"):
            boundary_rule(strip, 5.0)
        # and no union holds one, so no union reaches boundary_rule unbounded
        with pytest.raises(ValueError, match="^union parts must be bounded$"):
            RegionUnion((Disk((20.0, 0.0), 1.0), strip))


@pytest.mark.parametrize("region", FOCK_REGIONS)
def test_fock_extremes_hold_at_twice_the_density(region, monkeypatch):
    """The boundary rule's error is below the stopping tolerance: doubling
    FOCK_DENSITY moves no extreme by 1e-12."""
    want = fock_extremes(region)
    monkeypatch.setattr("wigner_bounds.spectra.FOCK_DENSITY", 2.0 * FOCK_DENSITY)
    got = fock_extremes(region)
    assert got.basis_size == want.basis_size
    assert abs(got.lambda_min - want.lambda_min) < 1e-12
    assert abs(got.lambda_max - want.lambda_max) < 1e-12


def test_radial_mean_tables_are_cached(monkeypatch):
    """Each C_L table of the boundary build is made once per L (one
    leggauss call each), is read-only, and is the same bit for bit as a
    fresh table."""
    import numpy.polynomial.legendre as legendre
    import wigner_bounds.specfun as specfun

    builds = []
    for region in (DIAMOND, QUADRILATERAL, UNION, Disk((0.7, -0.4), 1.0), Annulus((0.3, 0.2), 0.5, 1.5)):
        q0, p0 = box_centre(region)
        for n_top in (30, 44, 70):
            q, p, dq, dp = boundary_rule(region, FOCK_DENSITY * math.sqrt(2.0 * n_top + 3.0))
            builds.append((n_top, q - q0, p - p0, (q - q0) * dp - (p - p0) * dq))
    fresh, cached = legendre.leggauss, specfun._radial_mean
    counts, sizes = [], []

    def counting(count):
        counts.append(count)
        return fresh(count)

    def recording(size):
        sizes.append(size)
        return cached(size)

    monkeypatch.setattr(legendre, "leggauss", counting)
    monkeypatch.setattr(specfun, "_radial_mean", recording)
    cached.cache_clear()
    first = [boundary_wigner_matrix(*build) for build in builds]
    assert len(sizes) == len(builds) > len(set(sizes))
    assert len(counts) == len(set(sizes))
    again = [boundary_wigner_matrix(*build) for build in builds]
    assert len(counts) == len(set(sizes))
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    for size in set(sizes):
        table = cached(size)
        assert not table.flags.writeable
        assert np.array_equal(table, cached.__wrapped__(size))


def test_radial_mean_table_is_built_in_blocks(monkeypatch):
    """At L = 600 the C_L table's barycentric rows stay within
    L x max(256, L // 2 + 1) entries a block, and the table maps tau^k on
    its Chebyshev points to the radial mean int_0^1 (tau u)^k u du =
    tau^k / (k + 2)."""
    import wigner_bounds.specfun as specfun

    entries = []
    rows = specfun._lagrange_rows

    def recording(x, nodes):
        entries.append(x.size * nodes.size)
        return rows(x, nodes)

    monkeypatch.setattr(specfun, "_lagrange_rows", recording)
    size = 600
    table = specfun._radial_mean.__wrapped__(size)
    assert len(entries) > 1
    assert max(entries) <= size * max(256, size // 2 + 1)
    tau = specfun._chebyshev_points(size, 1.0)
    for k in (0, 1, 7, 40, 300, size - 1):
        assert np.max(np.abs(table @ tau**k - tau**k / (k + 2))) < 1e-13


@pytest.mark.parametrize("size", [40, 53, 97, 108, 129])
def test_radial_mean_blocks_match_one_block(size):
    """C_L built in row blocks is C_L built in one block, bit for bit:
    its rows are independent, so the block size moves no rounding."""
    import wigner_bounds.specfun as specfun

    tau = specfun._chebyshev_points(size, 1.0)
    t, wt = np.polynomial.legendre.leggauss(size // 2 + 1)
    u = 0.5 * (t + 1.0)
    ell = specfun._lagrange_rows(np.outer(tau, u).ravel(), tau)
    whole = (0.5 * wt * u) @ ell.reshape(size, u.size, size)
    assert specfun._radial_mean(size).tobytes() == whole.tobytes()


def test_radial_mean_builds_within_half_a_megabyte():
    """A cold C_L at L = 108 peaks within 0.5 MB of its own bytes.  Rows
    built in blocks of 2048 points, each block's barycentric rows alive
    while the next were made, peaked about 3.8 MB over."""
    import tracemalloc

    import wigner_bounds.specfun as specfun

    specfun._radial_mean(40)  # first-call imports stay out of the trace
    specfun._radial_mean.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = specfun._radial_mean(108)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 0.5e6, (peak - table.nbytes) / 1e6


def test_node_sums_hold_one_block():
    """The node sums of 6244 nodes at n_top = 60 (L = 117, four blocks of
    2048) peak within 1.2 times one block's barycentric rows and phases.
    With each block's arrays alive while the next were made, the peak was
    1.65 times."""
    import tracemalloc

    import wigner_bounds.specfun as specfun

    rng = np.random.default_rng(5)
    q, p = rng.uniform(-3.0, 3.0, (2, 6244))
    w = rng.uniform(-1.0, 1.0, 6244)
    specfun._node_sums(60, q[:10], p[:10], w[:10])  # first-call imports stay out of the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, sigma, _ = specfun._node_sums(60, q, p, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    block = specfun._POINT_BLOCK * (8 * sigma.size + 16 * 61)  # ell and phase
    assert sigma.size == 117
    assert peak <= 1.2 * block, peak / block
