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
    indicator,
    load_region,
    region_from_dict,
    region_to_dict,
)
from oracle import CanonicalMap, apply_canonical, reduce_ellipse


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


def test_union_of_rings_is_decided_exactly():
    """Disk and annulus pairs are decided from the centre distance, so a
    lens too thin for sampling to hit is refused and touching parts
    are not."""
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
    for parts in (tangent, in_hole, nested_rings, ring_in_ring):
        RegionUnion(parts)
        RegionUnion(parts[::-1])
    # pairs with another shape are still sampled
    with pytest.raises(ValueError, match="union parts overlap"):
        RegionUnion((Disk((0.0, 0.0), 1.0), Ellipse((0.0, 0.0), 2.0, 0.5)))


def test_union_with_unbounded_part_is_checked():
    """A pair with an unbounded graph is sampled where its box, cut to
    the graph's knots, meets the other part's box: a disk inside a band
    is refused, a disk beside a sloped band whose box it meets is not."""
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
    with pytest.raises(ValueError, match="union parts overlap"):
        RegionUnion((strip, Disk((0.0, 0.0), 1.0)))
    with pytest.raises(ValueError, match="union parts overlap"):
        RegionUnion((Disk((5.0, 5.2), 0.5), band))
    beside = Disk((0.0, 2.0), 1.0)  # 1.06 from the upper line p = q + 0.5
    assert bounding_box(beside)[2] < 1.5  # its box meets the band's at q = 1
    union = RegionUnion((band, beside))
    assert area(union) == math.inf


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
