"""Phase-plane regions: membership, geometry, canonical maps, JSON."""
import json
import math
import re

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
    bounds,
    load_region,
    region_from_dict,
    region_to_dict,
)
from wigner_bounds.cli import main
from oracle import CanonicalMap, apply_canonical, indicator, reduce_ellipse


def tent_graph():
    up = PiecewiseLinear(np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    dn = PiecewiseLinear(np.array([-1.0, 0.0, 1.0]), np.array([0.0, -1.0, 0.0]))
    return Graph(b=-1.0, c=1.0, f1=dn, f2=up)


def strip_graph():
    ones = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    mones = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([-1.0, -1.0]))
    return Graph(b=-1.0, c=1.0, f1=mones, f2=ones)


def test_disk_membership():
    s = Disk((1.0, -0.5), 0.5)
    assert indicator(s, 1.0, -0.5) == 1
    assert indicator(s, 1.5, -0.5) == 0  # boundary is outside
    assert indicator(s, 2.0, 0.0) == 0
    got = indicator(s, np.array([1.0, 2.0]), np.array([-0.5, 0.0]))
    assert got.tolist() == [1, 0]


def test_ellipse_membership_rotated():
    s = Ellipse((0.0, 0.0), 2.0, 0.5, angle=np.pi / 2)
    # major axis now points along p
    assert indicator(s, 0.0, 1.8) == 1
    assert indicator(s, 1.8, 0.0) == 0


def test_annulus_membership():
    s = Annulus((0.0, 0.0), 0.5, 1.0)
    assert indicator(s, 0.7, 0.0) == 1
    assert indicator(s, 0.2, 0.0) == 0
    assert indicator(s, 1.2, 0.0) == 0


def test_graph_membership_and_no_eval_outside_strip():
    s = tent_graph()
    assert indicator(s, 0.0, 0.5) == 1
    assert indicator(s, 0.0, 1.5) == 0
    # q = 5 lies outside the knot tables; indicator must not evaluate them there
    assert indicator(s, 5.0, 0.0) == 0


def test_area():
    assert abs(area(Disk((3.0, 1.0), 2.0)) - 4 * math.pi) < 1e-12
    assert abs(area(Ellipse((0.0, 0.0), 2.0, 0.5, 0.3)) - math.pi) < 1e-12
    assert abs(area(Annulus((0.0, 0.0), 1.0, 2.0)) - 3 * math.pi) < 1e-12
    assert abs(area(tent_graph()) - 2.0) < 1e-12
    two = RegionUnion((Disk((-3.0, 0.0), 1.0), Disk((3.0, 0.0), 1.0)))
    assert abs(area(two) - 2 * math.pi) < 1e-12
    # summed about the box centre, a region away from the origin does not
    # cancel (about the origin this one errs by 3.8e-14)
    assert abs(area(Ellipse((50.0, 7.0), 0.2, 0.05, 0.4)) / (math.pi * 0.01) - 1.0) < 1e-14


def test_area_far_from_the_origin_keeps_its_digits():
    """area takes its nodes about the box centre, from the centre or the
    vertices less it, never at absolute coordinates: rounded at 1e8, the
    nodes of a disk of radius 1e-3 at (1e8, -1e8) put its area 1.3e-6
    low.  Integer translates keep the diamond's vertices exact."""
    for c in (0.0, 1e4, 1e6, 1e8):
        cases = [
            (Disk((c, -c), 1e-3), math.pi * 1e-6),
            (Ellipse((c, -c), 2e-3, 5e-4, 0.3), math.pi * 1e-6),
            (Annulus((c, -c), 1e-3, 2e-3), 3 * math.pi * 1e-6),
        ]
        for s, want in cases:
            assert abs(area(s) / want - 1.0) < 1e-14, (s, area(s) / want - 1.0)
        diamond = Graph(c - 3.0, c + 3.0, PiecewiseLinear([c - 3.0, c, c + 3.0], [-c, -c - 3.0, -c]),
                        PiecewiseLinear([c - 3.0, c, c + 3.0], [-c, -c + 3.0, -c]))
        assert area(diamond) == 18.0


def test_unbounded_graph_area_is_infinite():
    f1 = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([-1.0, -1.0]))
    f2 = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    s = Graph(b=-math.inf, c=math.inf, f1=f1, f2=f2)
    assert area(s) == math.inf
    assert bounding_box(s)[0] == -math.inf


def test_bounding_box():
    assert bounding_box(Disk((1.0, 2.0), 0.5)) == (0.5, 1.5, 1.5, 2.5)
    qmin, qmax, pmin, pmax = bounding_box(tent_graph())
    assert (qmin, qmax) == (-1.0, 1.0)
    assert (pmin, pmax) == (-1.0, 1.0)


def test_union_overlap_rejected():
    with pytest.raises(ValueError, match="union parts overlap"):
        RegionUnion((Disk((0.0, 0.0), 1.0), Disk((0.5, 0.0), 1.0)))
    RegionUnion((Disk((0.0, 0.0), 1.0), Disk((2.5, 0.0), 1.0)))
    # a part wholly inside a disk or an ellipse whose centre is the inner
    # part's test point, so only that point can show the overlap
    inner = Disk((0.0, 0.0), 1.0)
    for outer in (Disk((0.5, 0.0), 3.0), Ellipse((0.5, 0.0), 3.0, 2.0)):
        for parts in ((inner, outer), (outer, inner)):
            with pytest.raises(ValueError, match="union parts overlap"):
                RegionUnion(parts)


def test_union_of_rings_is_decided_exactly():
    """Disk and annulus pairs are decided exactly, so a lens too thin for
    sampling to hit is refused and touching parts are not, also where
    the centre distance rounds below the sum of the radii."""
    thin_lens = (Disk((0.0, 0.0), 1.0), Disk((1.9999, 0.0), 1.0))
    rim_overlap = (Annulus((0.0, 0.0), 2.0, 3.0), Disk((0.5, 0.0), 1.5 + 1e-6))
    ring_overlap = (Annulus((0.0, 0.0), 2.0, 3.0), Annulus((5.9999, 0.0), 1.0, 3.0))
    for parts in (thin_lens, rim_overlap, ring_overlap):
        with pytest.raises(ValueError, match="union parts overlap"):
            RegionUnion(parts)
    tangent = (Disk((0.0, 0.0), 1.0), Disk((2.0, 0.0), 1.0))
    in_hole = (Annulus((0.0, 0.0), 2.0, 3.0), Disk((0.5, 0.0), 1.5))
    nested_rings = (Annulus((0.0, 0.0), 2.0, 3.0), Annulus((0.25, 0.0), 0.5, 1.75))
    ring_in_ring = (Annulus((0.0, 0.0), 0.5, 2.0), Annulus((0.0, 0.0), 2.0, 3.0))
    # built tangent; the distance of the centres is 1.1e-16 short of the radii's sum
    rounded = (Disk((0.2970944141596501, 0.39243199334031087), 0.10283115866678873),
               Disk((1.0562098891759082, 0.2646599262262779), 0.6669623237320637))
    for parts in (tangent, in_hole, nested_rings, ring_in_ring, rounded):
        RegionUnion(parts)
        RegionUnion(parts[::-1])
    # a disk with an ellipse is decided by the same rule
    with pytest.raises(ValueError, match="union parts overlap"):
        RegionUnion((Disk((0.0, 0.0), 1.0), Ellipse((0.0, 0.0), 2.0, 0.5)))


def graph(b, c, f1, f2):
    """The graph b < q < c between the polylines through the (q, p) knots f1 and f2."""
    return Graph(b, c, PiecewiseLinear(*zip(*f1)), PiecewiseLinear(*zip(*f2)))


def slanted(eps):
    """The unit disk and the graph above q + p = sqrt(2) (1 - eps) over
    -1 < q < 3: for eps > 0 they share a thin lens at (1, 1) / sqrt(2)."""
    k = math.sqrt(2.0) * (1.0 - eps)
    return Disk((0.0, 0.0), 1.0), graph(-1.0, 3.0, [(-1.0, k + 1.0), (3.0, k - 3.0)], [(-1.0, 3.0), (3.0, 3.0)])


def test_thin_lens_with_a_graph_is_refused(tmp_path, capsys):
    """The lens of area 1.9e-6 at eps = 1e-4, which 100k samples in the
    boxes' overlap missed, is refused like the one of 9.8e-6 at eps =
    3e-4, in both part orders and through bounds with one error line;
    the tangent line (eps = 0) and a line 1e-12 clear are accepted."""
    for eps in (3e-4, 1e-4, 1e-8):
        for parts in (slanted(eps), slanted(eps)[::-1]):
            with pytest.raises(ValueError, match="^union parts overlap$"):
                RegionUnion(parts)
    for eps in (0.0, -1e-12):
        RegionUnion(slanted(eps))
        RegionUnion(slanted(eps)[::-1])
    for eps in (3e-4, 1e-4):
        path = tmp_path / "lens.json"
        path.write_text(json.dumps({"type": "union", "parts": [region_to_dict(part) for part in slanted(eps)]}))
        assert main(["bounds", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: union parts overlap\n"


DIAMOND = graph(-1.0, 1.0, [(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)], [(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
TOUCHING = {
    "line-over-disk": (Disk((0.0, 0.0), 1.0), graph(-2.0, 2.0, [(-2.0, 1.0), (2.0, 1.0)], [(-2.0, 2.0), (2.0, 2.0)])),
    "side-beside-disk": (Disk((0.0, 0.0), 1.0), graph(1.0, 2.0, [(1.0, -1.0), (2.0, -1.0)], [(1.0, 1.0), (2.0, 1.0)])),
    "diamond-in-hole": (Annulus((0.0, 0.0), 1.0, 2.0), DIAMOND),
    "shared-edge": (
        graph(0.0, 2.0, [(0.0, -1.0), (1.0, -0.5), (2.0, -1.0)], [(0.0, 0.0), (0.7, 0.3), (2.0, 0.1)]),
        graph(0.0, 2.0, [(0.0, 0.0), (0.7, 0.3), (2.0, 0.1)], [(0.0, 1.0), (2.0, 1.0)]),
    ),
    "shared-edge-other-knots": (
        graph(0.0, 2.0, [(0.0, -1.0), (2.0, -1.0)], [(0.0, 0.0), (2.0, 1.0)]),
        graph(0.0, 2.0, [(0.0, 0.0), (0.3, 0.15), (2.0, 1.0)], [(0.0, 2.0), (2.0, 2.0)]),
    ),
    "shared-side": (
        graph(0.0, 1.0, [(0.0, -1.0), (1.0, -1.0)], [(0.0, 1.0), (1.0, 1.0)]),
        graph(1.0, 2.0, [(1.0, -1.0), (2.0, 0.0)], [(1.0, 1.0), (2.0, 0.5)]),
    ),
    "ellipses-along-an-axis": (Ellipse((0.0, 0.0), 2.0, 1.0), Ellipse((3.0, 0.0), 1.0, 0.5)),
    "ellipse-in-hole": (
        Annulus((0.0, 0.0), 1.0, 2.0),
        Ellipse((0.5 * math.cos(0.7), 0.5 * math.sin(0.7)), 0.5, 0.2, 0.7),
    ),
}


@pytest.mark.parametrize("name", TOUCHING)
def test_touching_parts_are_disjoint_in_both_orders(name):
    """Boundary points lie outside every region, so parts that touch,
    along an edge or at a point, make a union in either order."""
    parts = TOUCHING[name]
    assert RegionUnion(parts).parts == parts
    assert RegionUnion(parts[::-1]).parts == parts[::-1]


def test_zero_width_stretch_bounds_no_area():
    """A graph that closes to a line on 1 < q < 2 has no area there, so a
    disk across that line but clear of the triangle on 0 < q < 1 is a
    disjoint part; moved 0.2 down, it reaches into the triangle."""
    pinched = graph(0.0, 2.0, [(0.0, -1.0), (1.0, 0.0), (2.0, 0.0)], [(0.0, 1.0), (1.0, 0.0), (2.0, 0.0)])
    clear, into = Disk((1.5, 0.5), 0.6), Disk((1.5, 0.3), 0.6)
    RegionUnion((clear, pinched))
    RegionUnion((pinched, clear))
    for parts in ((into, pinched), (pinched, into)):
        with pytest.raises(ValueError, match="^union parts overlap$"):
            RegionUnion(parts)


def random_leaf(rng):
    """A disk, ellipse, annulus or graph about the origin; a graph's
    boundaries pinch together at about a third of its knots."""
    kind = rng.integers(4)
    center = tuple(rng.uniform(-1.5, 1.5, 2))
    if kind == 0:
        return Disk(center, rng.uniform(0.1, 1.2))
    if kind == 1:
        return Ellipse(center, rng.uniform(0.1, 1.5), rng.uniform(0.05, 0.8), rng.uniform(-3.0, 3.0))
    if kind == 2:
        r_inner = rng.uniform(0.05, 0.9)
        return Annulus(center, r_inner, r_inner + rng.uniform(0.05, 1.0))
    qs = np.linspace(-2.0, 2.0, 5)[: rng.integers(2, 6)] + rng.uniform(-0.3, 0.3)
    lower = rng.uniform(-1.5, 1.0, len(qs))
    width = rng.uniform(0.0, 1.2, len(qs)) * (rng.random(len(qs)) > 0.3)
    return Graph(qs[0], qs[-1], PiecewiseLinear(qs, lower), PiecewiseLinear(qs, lower + width))


def makes_union(parts) -> bool:
    try:
        RegionUnion(parts)
    except ValueError as exc:
        assert str(exc) == "union parts overlap"
        return False
    return True


def test_random_pairs_are_decided_alike_in_both_orders():
    """Over seeded random pairs of every kind, the verdict does not hang
    on the order of the parts, and wherever sampling the two parts'
    common box finds a point inside both, the pair is refused."""
    rng = np.random.default_rng(36)
    verdicts = []
    for _ in range(300):
        s, t = random_leaf(rng), random_leaf(rng)
        disjoint = makes_union((s, t))
        assert makes_union((t, s)) == disjoint
        (q0, q1, p0, p1), (r0, r1, u0, u1) = bounding_box(s), bounding_box(t)
        q0, q1, p0, p1 = max(q0, r0), min(q1, r1), max(p0, u0), min(p1, u1)
        if q0 < q1 and p0 < p1:
            q, p = rng.uniform(q0, q1, 4000), rng.uniform(p0, p1, 4000)
            assert not (disjoint and np.any(indicator(s, q, p) & indicator(t, q, p)))
        verdicts.append(disjoint)
    assert 50 < sum(verdicts) < 250


def test_union_with_unbounded_part_is_checked(tmp_path, capsys):
    """No route bounds a union with an unbounded part, so RegionUnion
    refuses one where it is built, in either part order and before any
    pair is checked: a disk inside a band and a disk beside it get the
    same refusal.  bounds and check exit 2 on such a union with one
    error line."""
    knots = np.array([-20.0, 20.0])
    strip = Graph(
        b=-math.inf,
        c=math.inf,
        f1=PiecewiseLinear(knots, np.array([-0.5, -0.5])),
        f2=PiecewiseLinear(knots, np.array([0.5, 0.5])),
    )
    band = Graph(
        b=-math.inf,
        c=math.inf,
        f1=PiecewiseLinear(knots, knots - 0.5),
        f2=PiecewiseLinear(knots, knots + 0.5),
    )
    half = Graph(b=-1.0, c=math.inf, f1=strip.f1, f2=strip.f2)
    for graph in (strip, band, half):
        with pytest.raises(ValueError, match="^union parts must be bounded$"):
            RegionUnion((graph,))
        for disk in (Disk((0.0, 0.0), 1.0), Disk((0.0, 5.0), 1.0)):
            for parts in ((graph, disk), (disk, graph)):
                with pytest.raises(ValueError, match="^union parts must be bounded$"):
                    RegionUnion(parts)

    grid = str(tmp_path / "w.csv")
    assert main(["wigner", "oscillator:0", "--out", grid, "--dq", "0.5", "--dp", "0.5"]) == 0
    disk = {"type": "disk", "center": [0.0, 3.0], "radius": 1.0}
    for parts in ([region_to_dict(strip), disk], [disk, region_to_dict(strip)]):
        union = tmp_path / "union.json"
        union.write_text(json.dumps({"type": "union", "parts": parts}))
        for argv in (["bounds", str(union)], ["check", grid, str(union)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == "error: union parts must be bounded\n"


def test_graph_validation():
    up = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    dn = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([-1.0, -1.0]))
    with pytest.raises(ValueError):
        Graph(b=1.0, c=-1.0, f1=dn, f2=up)
    with pytest.raises(ValueError, match="dominate"):
        Graph(b=-1.0, c=1.0, f1=up, f2=dn)
    with pytest.raises(ValueError, match="span"):
        Graph(b=-2.0, c=1.0, f1=dn, f2=up)


def test_graph_knot_ranges_must_overlap():
    """An unbounded graph is defined only where both knot lists reach;
    with no such q interval it is refused, not left to fail at every
    evaluation.  Ranges that only touch share no interval either."""
    def line(q0, q1, v):
        return PiecewiseLinear(np.array([q0, q1]), np.array([v, v]))

    with pytest.raises(ValueError, match="knot ranges must overlap"):
        Graph(b=-math.inf, c=math.inf, f1=line(-9.0, -5.0, -1.0), f2=line(5.0, 9.0, 1.0))
    with pytest.raises(ValueError, match="knot ranges must overlap"):
        Graph(b=-math.inf, c=math.inf, f1=line(-9.0, 0.0, -1.0), f2=line(0.0, 9.0, 1.0))
    # an overlap outside (b, c) does not count
    with pytest.raises(ValueError, match="knot ranges must overlap"):
        Graph(b=2.0, c=math.inf, f1=line(-9.0, 1.0, -1.0), f2=line(-5.0, 9.0, 1.0))
    s = Graph(b=-math.inf, c=math.inf, f1=line(-9.0, 1.0, -1.0), f2=line(-1.0, 9.0, 1.0))
    assert indicator(s, np.array([0.0, 0.0]), np.array([0.0, 2.0])).tolist() == [1.0, 0.0]


def test_piecewise_linear():
    f = PiecewiseLinear(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 0.0]))
    assert f.evaluate(0.5) == 1.0
    assert np.allclose(f.evaluate(np.array([1.0, 2.0])), [2.0, 1.0])
    with pytest.raises(ValueError, match="outside knot range"):
        f.evaluate(3.5)
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([0.0, 0.0]), np.array([1.0, 1.0]))


def test_canonical_map_validation_and_apply():
    with pytest.raises(ValueError, match="unit determinant"):
        CanonicalMap(alpha=2.0, beta=0.0, gamma=0.0, nu=0.0, mu=1.0, rho=0.0)
    m = CanonicalMap(alpha=1.0, beta=0.0, gamma=2.0, nu=0.0, mu=1.0, rho=-1.0)
    q, p = m.apply(1.0, 1.0)
    assert (q, p) == (3.0, 0.0)


def test_apply_canonical_translation():
    m = CanonicalMap(alpha=1.0, beta=0.0, gamma=2.0, nu=0.0, mu=1.0, rho=0.5)
    out = apply_canonical(Disk((0.0, 0.0), 1.0), m)
    assert isinstance(out, Disk)
    assert out.center == (2.0, 0.5)
    assert out.radius == 1.0


def test_apply_canonical_shear_on_disk_gives_golden_ellipse():
    """The unit disk under [[1,1],[0,1]] becomes an ellipse whose axes are
    the shear's singular values, the golden ratio and its inverse."""
    m = CanonicalMap(alpha=1.0, beta=1.0, gamma=0.0, nu=0.0, mu=1.0, rho=0.0)
    out = apply_canonical(Disk((0.0, 0.0), 1.0), m)
    assert isinstance(out, Ellipse)
    sv = np.linalg.svd(np.array([[1.0, 1.0], [0.0, 1.0]]), compute_uv=False)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(sv[0] - phi) < 1e-12
    assert abs(out.semi_major - phi) < 1e-10
    assert abs(out.semi_minor - 1 / phi) < 1e-10
    # image membership agrees with mapped source membership
    rng = np.random.default_rng(7)
    qs, ps = rng.uniform(-2, 2, 500), rng.uniform(-2, 2, 500)
    inside_src = indicator(Disk((0.0, 0.0), 1.0), qs, ps)
    iq, ip = m.apply(qs, ps)
    assert np.array_equal(indicator(out, iq, ip), inside_src)


def test_apply_canonical_annulus_rigid_only():
    rot = CanonicalMap(
        alpha=math.cos(0.3), beta=-math.sin(0.3), gamma=0.0,
        nu=math.sin(0.3), mu=math.cos(0.3), rho=0.0,
    )
    out = apply_canonical(Annulus((0.0, 0.0), 0.5, 1.0), rot)
    assert isinstance(out, Annulus)
    shear = CanonicalMap(alpha=1.0, beta=1.0, gamma=0.0, nu=0.0, mu=1.0, rho=0.0)
    with pytest.raises(ValueError, match="shape not closed under map"):
        apply_canonical(Annulus((0.0, 0.0), 0.5, 1.0), shear)


def test_apply_canonical_graph():
    s = tent_graph()
    squeeze = CanonicalMap(alpha=2.0, beta=0.0, gamma=1.0, nu=0.0, mu=0.5, rho=0.0)
    out = apply_canonical(s, squeeze)
    assert isinstance(out, Graph)
    assert (out.b, out.c) == (-1.0, 3.0)
    assert abs(out.f2.evaluate(1.0) - 0.5) < 1e-12
    assert abs(area(out) - area(s)) < 1e-12
    shear = CanonicalMap(alpha=1.0, beta=0.5, gamma=0.0, nu=0.0, mu=1.0, rho=0.0)
    with pytest.raises(ValueError, match="shape not closed under map"):
        apply_canonical(s, shear)


def test_apply_canonical_union():
    m = CanonicalMap(alpha=1.0, beta=0.0, gamma=5.0, nu=0.0, mu=1.0, rho=0.0)
    two = RegionUnion((Disk((-3.0, 0.0), 1.0), Disk((3.0, 0.0), 1.0)))
    out = apply_canonical(two, m)
    assert isinstance(out, RegionUnion)
    assert out.parts[0].center == (2.0, 0.0)


def test_reduce_ellipse():
    e = Ellipse((1.0, -2.0), 2.0, 0.5, angle=0.7)
    radius, m = reduce_ellipse(e)
    assert abs(radius - 1.0) < 1e-12
    assert abs(m.alpha * m.mu - m.beta * m.nu - 1.0) < 1e-12
    # the ellipse boundary lands on the circle of that radius
    t = np.linspace(0, 2 * np.pi, 37)
    ca, sa = math.cos(e.angle), math.sin(e.angle)
    bq = e.center[0] + 2.0 * np.cos(t) * ca - 0.5 * np.sin(t) * sa
    bp = e.center[1] + 2.0 * np.cos(t) * sa + 0.5 * np.sin(t) * ca
    iq, ip = m.apply(bq, bp)
    assert np.max(np.abs(np.hypot(iq, ip) - radius)) < 1e-10


def test_region_json_round_trip():
    regions = [
        Disk((0.5, -1.0), 1.5),
        Ellipse((0.0, 0.0), 2.0, 0.5, 0.3),
        Annulus((1.0, 0.0), 0.5, 1.0),
        tent_graph(),
        RegionUnion((Disk((-3.0, 0.0), 1.0), Disk((3.0, 0.0), 1.0))),
    ]
    for s in regions:
        back = region_from_dict(json.loads(json.dumps(region_to_dict(s))))
        assert type(back) is type(s)
        assert abs(area(back) - area(s)) < 1e-12


@pytest.mark.parametrize(
    "region, want",
    [
        (Disk((0.5, -1.0), 1.5), {"type": "disk", "center": [0.5, -1.0], "radius": 1.5}),
        (Annulus((1.0, 0.0), 0.5, 1.0), {"type": "annulus", "center": [1.0, 0.0], "r_inner": 0.5, "r_outer": 1.0}),
        (
            Ellipse((0.0, 2.0), 2.0, 0.5, 0.3),
            {"type": "ellipse", "center": [0.0, 2.0], "semi_major": 2.0, "semi_minor": 0.5, "angle": 0.3},
        ),
        (
            Ellipse((0.0, 2.0), 2.0, 0.5),
            {"type": "ellipse", "center": [0.0, 2.0], "semi_major": 2.0, "semi_minor": 0.5, "angle": 0.0},
        ),
    ],
    ids=["disk", "annulus", "ellipse", "ellipse-default-angle"],
)
def test_region_to_dict_of_each_conic(region, want):
    """The exact dict, keys in order, and its round trip through JSON."""
    got = region_to_dict(region)
    assert got == want and list(got) == list(want)
    assert region_from_dict(json.loads(json.dumps(got))) == region


def test_region_json_conic_defaults():
    """The centre, and an ellipse's angle, may be left out."""
    assert region_from_dict({"type": "disk", "radius": 2}) == Disk((0.0, 0.0), 2.0)
    assert region_from_dict({"type": "annulus", "r_inner": 0, "r_outer": 1}) == Annulus((0.0, 0.0), 0.0, 1.0)
    ellipse = region_from_dict({"type": "ellipse", "center": [1, 2], "semi_major": 2, "semi_minor": 1})
    assert ellipse == Ellipse((1.0, 2.0), 2.0, 1.0, 0.0)


@pytest.mark.parametrize("kind", [[1], {"disk": 1}, "polygon", "Disk", None, 1])
def test_region_json_unknown_type(kind):
    """A type that is not a key of any shape, hashable or not, is named."""
    with pytest.raises(ValueError, match=r"^malformed region: unknown type %s$" % re.escape(repr(kind))):
        region_from_dict({"type": kind, "radius": 1.0})


def test_region_json_infinite_interval():
    f1 = [[-5.0, -1.0], [5.0, -1.0]]
    f2 = [[-5.0, 1.0], [5.0, 1.0]]
    s = region_from_dict({"type": "graph", "b": "-inf", "c": 5.0, "f1": f1, "f2": f2})
    assert s.b == -math.inf
    d = region_to_dict(s)
    assert d["b"] == "-inf"


@pytest.mark.parametrize(
    "center",
    [[0.5, 0.0, 7.0], [0.0, 0.0, "x"], [1.0], [], "12", 5.0, None, [[0.0, 0.0]], [0.0, [1.0, 2.0]], [0.0, "x"]],
)
def test_center_must_be_two_numbers(center):
    for make in (lambda c: Disk(c, 1.0), lambda c: Ellipse(c, 2.0, 1.0), lambda c: Annulus(c, 0.5, 1.0)):
        with pytest.raises(ValueError, match=r"center must be two numbers \[q, p\]"):
            make(center)
    for kind in ("disk", "ellipse", "annulus"):
        obj = {"type": kind, "center": center, "radius": 1.0, "semi_major": 2.0, "semi_minor": 1.0,
               "r_inner": 0.5, "r_outer": 1.0}
        with pytest.raises(ValueError, match="center must be two numbers"):
            region_from_dict(obj)


GRAPH_KNOTS = {"f1": [[-1, 0], [1, 0]], "f2": [[-1, 1], [1, 1]]}


@pytest.mark.parametrize(
    "obj, field",
    [
        ({"type": "disk", "center": ["0.5", 1], "radius": 1}, "center"),
        ({"type": "disk", "center": [True, 0], "radius": 1}, "center"),
        ({"type": "disk", "center": [0, 0], "radius": "1"}, "radius"),
        ({"type": "disk", "radius": True}, "radius"),
        ({"type": "ellipse", "semi_major": "2", "semi_minor": 1}, "semi_major"),
        ({"type": "ellipse", "semi_major": 2, "semi_minor": 1, "angle": False}, "angle"),
        ({"type": "annulus", "r_inner": 0.5, "r_outer": "1"}, "r_outer"),
        ({"type": "graph", "b": "-1", "c": 1, **GRAPH_KNOTS}, "b"),
        ({"type": "graph", "b": -1, "c": "1", **GRAPH_KNOTS}, "c"),
        ({"type": "graph", "b": -1, "c": "-inf", **GRAPH_KNOTS}, "c"),
        ({"type": "graph", "b": -1, "c": 1, "f1": [["-1", 0], [1, 0]], "f2": GRAPH_KNOTS["f2"]}, "knots"),
        ({"type": "graph", "b": -1, "c": 1, "f1": GRAPH_KNOTS["f1"], "f2": [[-1, 1], [1, True]]}, "knots"),
    ],
)
def test_region_json_takes_only_json_numbers(obj, field):
    """float() would take "1" and true; a region file holds numbers."""
    with pytest.raises(ValueError, match="^%s must be" % field):
        region_from_dict(obj)


FLAT = PiecewiseLinear([-1.0, 1.0], [0.0, 0.0])
ROOF = PiecewiseLinear([-1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize(
    "make, message, obj, json_message",
    [
        (lambda: Disk((0, 0), True), "radius must be a number, not True",
         {"type": "disk", "radius": True}, None),
        (lambda: Disk((0, 0), "1"), "radius must be a number, not '1'",
         {"type": "disk", "radius": "1"}, None),
        (lambda: Ellipse((0, 0), "2", 1), "semi_major must be a number, not '2'",
         {"type": "ellipse", "semi_major": "2", "semi_minor": 1}, None),
        (lambda: Ellipse((0, 0), 2, 1, None), "angle must be a number, not None",
         {"type": "ellipse", "semi_major": 2, "semi_minor": 1, "angle": None}, None),
        (lambda: Annulus((0, 0), 0.5, "1"), "r_outer must be a number, not '1'",
         {"type": "annulus", "r_inner": 0.5, "r_outer": "1"}, None),
        (lambda: Graph("-1", 1, FLAT, ROOF), "b must be a number, not '-1'",
         {"type": "graph", "b": "-1", "c": 1, **GRAPH_KNOTS}, 'b must be a number or "-inf", not \'-1\''),
        (lambda: Graph(-1, True, FLAT, ROOF), "c must be a number, not True",
         {"type": "graph", "b": -1, "c": True, **GRAPH_KNOTS}, 'c must be a number, "inf" or "+inf", not True'),
    ],
    ids=["bool-radius", "str-radius", "str-semi-major", "none-angle", "str-r-outer", "str-b", "bool-c"],
)
def test_constructors_take_only_numbers(make, message, obj, json_message):
    """Each shape refuses a field that float() would take, or that > cannot
    compare, with a ValueError that names it; the region file's refusal
    keeps its words, the graph ends' with their "-inf" rule."""
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        make()
    with pytest.raises(ValueError, match="^%s$" % re.escape(json_message or message)):
        region_from_dict(obj)


def three_parts():
    """A disk, an ellipse and a tent graph, pairwise apart."""
    tent = Graph(2.5, 4.5, PiecewiseLinear([2.5, 3.5, 4.5], [0.0, -1.0, 0.0]),
                 PiecewiseLinear([2.5, 3.5, 4.5], [0.0, 1.0, 0.0]))
    return Disk((-2.0, 0.0), 1.0), Ellipse((1.0, 0.2), 0.8, 0.4, 0.3), tent


def test_union_indicator_is_the_or_of_its_leaves():
    """indicator of a union, flat or nested in another, is 1 exactly where
    one of its leaves' is, so boundary points stay outside."""
    disk, ellipse, tent = three_parts()
    q, p = np.meshgrid(np.linspace(-3.5, 5.0, 86), np.linspace(-1.5, 1.5, 31))
    want = indicator(disk, q, p) | indicator(ellipse, q, p) | indicator(tent, q, p)
    assert 0 < want.sum() < want.size
    for s in (RegionUnion((disk, ellipse, tent)), RegionUnion((disk, RegionUnion((ellipse, tent)))),
              RegionUnion((RegionUnion((disk, ellipse)), tent))):
        assert np.array_equal(indicator(s, q, p), want)
        # on the disk's circle and at the tent's apex
        assert indicator(s, -1.0, 0.0) == 0 and indicator(s, 3.5, 1.0) == 0


def test_nested_union_matches_the_flat_union():
    """A union that holds a union of other shapes has the flat union's
    boundary nodes, in the same order: its box, area and bounds are bit
    for bit the flat union's.  Its overlap check reaches the parts of
    the inner union."""
    disk, ellipse, tent = three_parts()
    flat = RegionUnion((disk, ellipse, tent))
    nested = RegionUnion((disk, RegionUnion((ellipse, tent))))
    assert bounding_box(nested) == bounding_box(flat)
    assert area(nested) == area(flat)
    assert vars(bounds(nested)) == vars(bounds(flat))
    with pytest.raises(ValueError, match="^union parts overlap$"):
        RegionUnion((Disk((1.0, 0.2), 0.3), RegionUnion((ellipse, tent))))


def test_nested_concentric_union_is_exact():
    """A union inside a union is replaced by its parts where it is built,
    so concentric rings nested a level down take the closed form, field
    for field as the flat union, and are written flat."""
    c = (0.3, 0.2)
    nested = RegionUnion((Disk(c, 0.5), RegionUnion((Annulus(c, 1.0, 1.5),))))
    flat = RegionUnion((Disk(c, 0.5), Annulus(c, 1.0, 1.5)))
    assert nested.parts == flat.parts
    assert region_to_dict(nested) == region_to_dict(flat)
    got, want = bounds(nested), bounds(flat)
    assert got.method == "exact"
    assert vars(got) == vars(want)


def test_region_json_numbers_and_graph_ends():
    """Integers, floats and the graph ends' "-inf", "inf" and "+inf" read
    as before; a radius past the float range is refused in one line."""
    assert region_from_dict({"type": "disk", "center": [1, -0.5], "radius": 2}) == Disk((1.0, -0.5), 2.0)
    for c in ("inf", "+inf"):
        s = region_from_dict({"type": "graph", "b": "-inf", "c": c, **GRAPH_KNOTS})
        assert (s.b, s.c) == (-math.inf, math.inf)
    with pytest.raises(ValueError, match="must be finite"):
        region_from_dict({"type": "disk", "radius": 1e400})
    with pytest.raises(ValueError, match="malformed region: int too large"):
        region_from_dict({"type": "disk", "radius": 10**400})
    with pytest.raises(ValueError, match="center must be two numbers"):
        region_from_dict({"type": "disk", "center": [10**400, 0], "radius": 1})


def test_region_json_malformed():
    for obj in (
        [],
        {"type": "polygon"},
        {"type": "disk"},
        {"type": "graph", "b": 0.0, "c": 1.0, "f1": [[0.0, 1.0]], "f2": [[0.0, 2.0]]},
    ):
        with pytest.raises(ValueError, match="malformed region|knot"):
            region_from_dict(obj)


def test_load_region(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text('{"type": "disk", "center": [0, 0], "radius": 2}')
    assert load_region(path) == Disk((0.0, 0.0), 2.0)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed region"):
        load_region(bad)
