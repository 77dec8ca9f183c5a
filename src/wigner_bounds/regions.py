"""Phase-plane regions, their areas, indicators and boundary rules.

A region is one of five shapes in the (q, p) plane:

* ``Graph``: b < q < c between two piecewise-linear boundaries f1 <= f2,
  with b = -inf or c = +inf allowed;
* ``Disk``, ``Ellipse``, ``Annulus``: the usual conic shapes;
* ``RegionUnion``: a pairwise-disjoint union of bounded regions of the
  above kinds, checked exactly for pairs of disks and annuli and by
  sampling where the other pairs' boxes meet; a part with an infinite
  box is refused.

Boundary points count as outside everywhere (a measure-zero convention
that keeps indicator complements exact).  ``boundary_rule`` gives each
bounded region nodes and weighted tangents around its boundary, exact
in its geometry, for the area integrals that Green's theorem turns into
line integrals: the number-basis matrix of the Fock route
(specfun.boundary_wigner_columns) and the mass of a Wigner grid
(wigner.quasiprobability).
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Annulus",
    "Disk",
    "Ellipse",
    "Graph",
    "PiecewiseLinear",
    "Region",
    "RegionUnion",
    "area",
    "bounding_box",
    "boundary_rule",
    "indicator",
    "load_region",
    "region_from_dict",
    "region_to_dict",
]

_UNION_SAMPLES = 100_000

# fewest nodes per Gauss-Legendre panel or circle, however small
_MIN_NODES = 12
# most nodes per panel beyond _MIN_NODES: a stretch that needs more is
# split into equal panels, because building a rule of n nodes costs
# O(n^3) time and O(n^2) memory (the rules of up to 2360 nodes that
# quasiprobability wanted for a quadrilateral on a 0.0125 grid took 3 s
# and 46 MB)
_PANEL_NODES = 128


def _require_finite(what: str, *values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ValueError("%s must be finite" % what)


def _number(value, what: str, rule: str = "a number") -> float:
    # a number, not a string or a boolean, which float() would also take
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be %s, not %r" % (what, rule, value))
    return float(value)


def _conic_fields(s, *names) -> None:
    # each named field a number, named in its refusal, and the centre
    # exactly two numbers (q, p), stored as floats; each shape checks that
    # they are finite along with its other parameters
    for name in names:
        _number(getattr(s, name), name)
    try:
        q, p = (_number(x, "center") for x in s.center)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("center must be two numbers [q, p], not %r" % (s.center,)) from None
    object.__setattr__(s, "center", (q, p))


@dataclass(frozen=True, eq=False)
class PiecewiseLinear:
    """Polyline q -> value over strictly increasing knots."""

    qs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        qs = np.asarray(self.qs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if qs.ndim != 1 or qs.shape != values.shape or qs.size < 2:
            raise ValueError("need matching 1-d knot arrays with at least 2 knots")
        _require_finite("knot positions and values", qs, values)
        if np.any(np.diff(qs) <= 0.0):
            raise ValueError("knot positions must be strictly increasing")
        qs.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "values", values)

    @property
    def qmin(self) -> float:
        return float(self.qs[0])

    @property
    def qmax(self) -> float:
        return float(self.qs[-1])

    def evaluate(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < self.qs[0]) or np.any(q > self.qs[-1]):
            raise ValueError(
                "evaluation outside knot range [%g, %g]: extend the knot"
                " lists to cover every q the region is evaluated at" % (self.qs[0], self.qs[-1])
            )
        out = np.interp(q, self.qs, self.values)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Disk:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        _conic_fields(self, "radius")
        _require_finite("disk center and radius", *self.center, self.radius)
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class Ellipse:
    center: tuple[float, float]
    semi_major: float
    semi_minor: float
    angle: float = 0.0

    def __post_init__(self):
        _conic_fields(self, "semi_major", "semi_minor", "angle")
        _require_finite(
            "ellipse center, semi-axes and angle",
            *self.center, self.semi_major, self.semi_minor, self.angle,
        )
        if not (self.semi_major > 0 and self.semi_minor > 0):
            raise ValueError("semi-axes must be positive")


@dataclass(frozen=True)
class Annulus:
    center: tuple[float, float]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        _conic_fields(self, "r_inner", "r_outer")
        _require_finite("annulus center and radii", *self.center, self.r_inner, self.r_outer)
        if self.r_inner < 0 or not self.r_outer > self.r_inner:
            raise ValueError("need 0 <= r_inner < r_outer")


@dataclass(frozen=True, eq=False)
class Graph:
    """Region b < q < c, f1(q) < p < f2(q).

    For finite b, c the knot tables of both boundaries must span [b, c];
    in any case they must share a q interval inside (b, c).
    The boundaries need not pinch together at b and c: open strips are
    legitimate regions.
    """

    b: float
    c: float
    f1: PiecewiseLinear
    f2: PiecewiseLinear

    def __post_init__(self):
        b, c = _number(self.b, "b"), _number(self.c, "c")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if math.isnan(b) or math.isnan(c):
            raise ValueError("graph ends b and c must not be NaN")
        if not b < c:
            raise ValueError("need b < c")
        for f in (self.f1, self.f2):
            if math.isfinite(b) and f.qmin > b:
                raise ValueError("boundary knots must span [b, c]")
            if math.isfinite(c) and f.qmax < c:
                raise ValueError("boundary knots must span [b, c]")
        qs = _graph_knots(self)
        if len(qs) < 2:
            raise ValueError("boundary knot ranges must overlap on (b, c)")
        # piecewise-linear difference attains its minimum at a knot
        if np.any(self.f2.evaluate(qs) < self.f1.evaluate(qs) - 1e-12):
            raise ValueError("upper boundary must dominate lower boundary on (b, c)")


def _rings_disjoint(s, t) -> bool:
    # disks are rings with no hole; touching counts as disjoint
    (out_s, _, _, in_s), (out_t, _, _, in_t) = _conic(s), _conic(t)
    d = math.hypot(s.center[0] - t.center[0], s.center[1] - t.center[1])
    return d >= out_s + out_t or d + out_s <= in_t or d + out_t <= in_s


@dataclass(frozen=True, eq=False)
class RegionUnion:
    """Pairwise-disjoint union of bounded regions.

    A part whose box is not finite is refused before any pair is
    checked: no route gives a union with an unbounded part a bound.
    Pairs of disks and annuli are decided exactly from their centre
    distance; any other pair is checked by Monte Carlo sampling in the
    intersection of the two parts' boxes, and skipped where those boxes
    do not meet.  The seeded generator is made only when a pair is
    sampled.
    """

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("union needs at least one part")
        object.__setattr__(self, "parts", parts)
        boxes = [bounding_box(part) for part in parts]
        if not all(math.isfinite(v) for box in boxes for v in box):
            raise ValueError("union parts must be bounded")
        rng = None
        for (s, (q0, q1, p0, p1)), (t, (r0, r1, u0, u1)) in itertools.combinations(zip(parts, boxes), 2):
            if isinstance(s, (Disk, Annulus)) and isinstance(t, (Disk, Annulus)):
                overlap = not _rings_disjoint(s, t)
            else:
                q0, q1, p0, p1 = max(q0, r0), min(q1, r1), max(p0, u0), min(p1, u1)
                if not (q0 < q1 and p0 < p1):
                    continue
                rng = rng or np.random.default_rng(181093)
                qs = rng.uniform(q0, q1, _UNION_SAMPLES)
                ps = rng.uniform(p0, p1, _UNION_SAMPLES)
                overlap = np.any((indicator(s, qs, ps) > 0) & (indicator(t, qs, ps) > 0))
            if overlap:
                raise ValueError("union parts overlap")


Region = Union[Disk, Ellipse, Annulus, Graph, RegionUnion]


def _graph_knots(s: Graph) -> np.ndarray:
    # every knot of both boundaries where both are defined: from
    # max(b, first knots) to min(c, last knots), ends included, so all
    # of [b, c] for a bounded graph; fewer than two when they share no q.
    # Sorted and deduplicated without np.unique, which in numpy 2 imports numpy.ma
    lo = max(s.b, s.f1.qmin, s.f2.qmin)
    hi = min(s.c, s.f1.qmax, s.f2.qmax)
    qs = np.sort(np.concatenate([s.f1.qs, s.f2.qs, [lo, hi]]))
    return qs[np.append(True, qs[1:] != qs[:-1]) & (qs >= lo) & (qs <= hi)]


def indicator(s: Region, q, p):
    """1 strictly inside s, else 0; vectorizes over q, p."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    q, p = np.broadcast_arrays(q, p)
    if isinstance(s, Disk):
        out = (q - s.center[0]) ** 2 + (p - s.center[1]) ** 2 < s.radius**2
    elif isinstance(s, Annulus):
        d2 = (q - s.center[0]) ** 2 + (p - s.center[1]) ** 2
        out = (d2 > s.r_inner**2) & (d2 < s.r_outer**2)
    elif isinstance(s, Ellipse):
        ca, sa = math.cos(s.angle), math.sin(s.angle)
        u = ca * (q - s.center[0]) + sa * (p - s.center[1])
        v = -sa * (q - s.center[0]) + ca * (p - s.center[1])
        out = (u / s.semi_major) ** 2 + (v / s.semi_minor) ** 2 < 1.0
    elif isinstance(s, Graph):
        out = np.zeros(q.shape, dtype=bool)
        strip = (q > s.b) & (q < s.c)
        if np.any(strip):
            qq, pp = q[strip], p[strip]
            out[strip] = (pp > s.f1.evaluate(qq)) & (pp < s.f2.evaluate(qq))
    elif isinstance(s, RegionUnion):
        out = np.zeros(q.shape, dtype=bool)
        for part in s.parts:
            out |= indicator(part, q, p) > 0  # an int at a single point
    else:
        raise TypeError("not a region: %r" % (s,))
    out = out.astype(int)
    return out if out.ndim else int(out)


def area(s: Region) -> float:
    """Region area by Green's theorem, sum (q dp - p dq) / 2 over boundary_rule(s, 0),
    exact on every edge and circle but for the rounding of its nodes; the
    nodes are taken about the box centre, so that far from the origin
    they keep their digits.  +inf if unbounded."""
    qmin, qmax, pmin, pmax = bounding_box(s)
    if not all(math.isfinite(v) for v in (qmin, qmax, pmin, pmax)):
        return math.inf
    q, p, dq, dp = _boundary_rule(s, 0.0, (0.5 * (qmin + qmax), 0.5 * (pmin + pmax)))
    return float(np.sum(q * dp - p * dq)) / 2.0


def _conic(s) -> tuple[float, float, float, float]:
    # semi-axes a, b along angle and angle + pi / 2, and the radius of a hole:
    # a disk is an ellipse with equal axes, an annulus that disk with a hole
    if isinstance(s, Disk):
        return s.radius, s.radius, 0.0, 0.0
    if isinstance(s, Annulus):
        return s.r_outer, s.r_outer, 0.0, s.r_inner
    return s.semi_major, s.semi_minor, s.angle, 0.0


def bounding_box(s: Region) -> tuple[float, float, float, float]:
    """(qmin, qmax, pmin, pmax) enclosing s; infinite for unbounded graphs."""
    if isinstance(s, (Disk, Ellipse, Annulus)):
        a, b, angle, _ = _conic(s)
        ca, sa = math.cos(angle), math.sin(angle)
        hq = math.hypot(a * ca, b * sa)
        hp = math.hypot(a * sa, b * ca)
        cq, cp = s.center
        return cq - hq, cq + hq, cp - hp, cp + hp
    if isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            return s.b, s.c, -math.inf, math.inf
        qs = _graph_knots(s)  # all of [b, c], which the knots of a bounded graph span
        return float(qs[0]), float(qs[-1]), float(np.min(s.f1.evaluate(qs))), float(np.max(s.f2.evaluate(qs)))
    if isinstance(s, RegionUnion):
        qmin, qmax, pmin, pmax = zip(*map(bounding_box, s.parts))
        return min(qmin), max(qmax), min(pmin), max(pmax)
    raise TypeError("not a region: %r" % (s,))


@functools.lru_cache(maxsize=256)
def _legendre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only, since every caller shares the cached arrays
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(count)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _gauss(lo: float, hi: float, length: float, density: float):
    # Gauss-Legendre nodes and weights on [lo, hi]: _MIN_NODES + density
    # * length of them on the fewest equal panels that keep each panel's
    # density * length within _PANEL_NODES, each panel getting its own
    # _MIN_NODES
    panels = max(1, math.ceil(density * length / _PANEL_NODES))
    t, w = _legendre_rule(_MIN_NODES + math.ceil(density * length / panels))
    half = 0.5 * (hi - lo) / panels
    starts = lo + (hi - lo) * np.arange(panels)[:, None] / panels
    return (starts + half * (t + 1.0)).ravel(), np.tile(half * w, panels)


def _polyline(f: PiecewiseLinear, b: float, c: float, origin) -> tuple[np.ndarray, np.ndarray]:
    # the vertices of f over [b, c], its knots inside and evaluated ends, less origin
    qs = np.concatenate([[b], f.qs[(f.qs > b) & (f.qs < c)], [c]])
    return qs - origin[0], f.evaluate(qs) - origin[1]


def _loop_rule(q, p, density: float):
    # Gauss nodes and weighted tangents on each edge of the closed
    # polygon through (q, p); edges of zero length carry no nodes
    parts = []
    for q0, p0, q1, p1 in zip(q, p, np.roll(q, -1), np.roll(p, -1)):
        dq, dp = q1 - q0, p1 - p0
        length = math.hypot(dq, dp)
        if length > 0.0:
            t, w = _gauss(0.0, 1.0, length, density)
            parts.append((q0 + dq * t, p0 + dp * t, dq * w, dp * w))
    return parts


def _ellipse_loop(center, a: float, b: float, angle: float, density: float):
    # uniform angles, counterclockwise, on the ellipse with semi-axes a, b
    # along angle and angle + pi / 2
    m = _MIN_NODES + math.ceil(density * 2.0 * math.pi * max(a, b))
    phi = 2.0 * math.pi * np.arange(m) / m
    ca, sa = math.cos(angle), math.sin(angle)
    cos, sin = np.cos(phi), np.sin(phi)
    u, v = a * cos, b * sin
    du, dv = -a * sin * (2.0 * math.pi / m), b * cos * (2.0 * math.pi / m)
    return (
        center[0] + ca * u - sa * v,
        center[1] + sa * u + ca * v,
        ca * du - sa * dv,
        sa * du + ca * dv,
    )


def boundary_rule(s: Region, density: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nodes q, p and weighted tangents dq, dp on the boundary of s, with s on the left.

    sum (f dp - g dq) over the nodes ~ the line integral of f dp - g dq
    around s, for functions f, g of (q, p).  By Green's theorem
    sum (q dp - p dq) / 2 is then the area of s, and area integrals
    become sums over these nodes: of a radial mean of the integrand
    (specfun.boundary_wigner_columns), or of its antiderivative along q
    (wigner.quasiprobability).
    Each polygon edge of a graph (f1 left to right, the side at c, f2
    right to left, the side at b) gets 12 + density * length
    Gauss-Legendre nodes, exact for integrands polynomial along it; an
    edge with density * length past 128 is split into equal panels with
    12 + density * length / panels nodes each;
    disks, ellipses and annuli get 12 + density * 2 pi * (largest
    semi-axis) uniform angles per circle, the inner circle of an annulus
    running clockwise; a union concatenates its parts' rules.
    Unbounded regions raise.
    """
    return _boundary_rule(s, density, (0.0, 0.0))


def _boundary_rule(s: Region, density: float, origin) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # boundary_rule about origin, from centres and vertices less origin
    if isinstance(s, (Disk, Ellipse, Annulus)):
        a, b, angle, hole = _conic(s)
        center = (s.center[0] - origin[0], s.center[1] - origin[1])
        parts = [_ellipse_loop(center, a, b, angle, density)]
        if hole > 0:
            q, p, dq, dp = _ellipse_loop(center, hole, hole, 0.0, density)
            parts.append((q, p, -dq, -dp))
    elif isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            raise ValueError("boundary rule needs a bounded region")
        q1, p1 = _polyline(s.f1, s.b, s.c, origin)
        q2, p2 = _polyline(s.f2, s.b, s.c, origin)
        parts = _loop_rule(np.concatenate([q1, q2[::-1]]), np.concatenate([p1, p2[::-1]]), density)
    elif isinstance(s, RegionUnion):
        parts = [_boundary_rule(part, density, origin) for part in s.parts]
    else:
        raise TypeError("not a region: %r" % (s,))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


# --- JSON serialization -------------------------------------------------

def _knots_from_json(rows) -> PiecewiseLinear:
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == 2 for r in rows)):
        raise ValueError("malformed region: knots must be [[q, value], ...]")
    rule = "[[q, value], ...] of numbers"
    return PiecewiseLinear(*([_number(r[i], "knots", rule) for r in rows] for i in (0, 1)))


# each conic's JSON type, class and number fields after its centre, in the
# order of both the class's fields and the JSON object's keys
_CONICS = {
    "disk": (Disk, ("radius",)),
    "ellipse": (Ellipse, ("semi_major", "semi_minor", "angle")),
    "annulus": (Annulus, ("r_inner", "r_outer")),
}


def region_from_dict(obj) -> Region:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("malformed region: expected an object with a 'type' key")
    kind = obj["type"]
    try:
        if isinstance(kind, str) and kind in _CONICS:  # a list type is no dict key
            cls, names = _CONICS[kind]
            given = {"center": (0.0, 0.0), "angle": 0.0, **obj}  # both may be left out
            return cls(given["center"], *(_number(given[name], name) for name in names))
        if kind == "graph":
            b = obj["b"]
            c = obj["c"]
            b = float("-inf") if b == "-inf" else _number(b, "b", 'a number or "-inf"')
            c = float("inf") if c in ("+inf", "inf") else _number(c, "c", 'a number, "inf" or "+inf"')
            return Graph(b=b, c=c, f1=_knots_from_json(obj["f1"]), f2=_knots_from_json(obj["f2"]))
        if kind == "union":
            return RegionUnion(tuple(region_from_dict(part) for part in obj["parts"]))
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError("malformed region: %s" % exc) from exc
    raise ValueError("malformed region: unknown type %r" % (kind,))


def region_to_dict(s: Region) -> dict:
    for kind, (cls, names) in _CONICS.items():
        if isinstance(s, cls):
            return {"type": kind, "center": list(s.center), **{name: getattr(s, name) for name in names}}
    if isinstance(s, Graph):
        return {
            "type": "graph",
            "b": "-inf" if math.isinf(s.b) else s.b,
            "c": "+inf" if math.isinf(s.c) else s.c,
            "f1": [[q, v] for q, v in zip(s.f1.qs, s.f1.values)],
            "f2": [[q, v] for q, v in zip(s.f2.qs, s.f2.values)],
        }
    if isinstance(s, RegionUnion):
        return {"type": "union", "parts": [region_to_dict(part) for part in s.parts]}
    raise TypeError("not a region: %r" % (s,))


def load_region(path) -> Region:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("malformed region: %s" % exc) from exc
    return region_from_dict(obj)
