"""Phase-plane regions, their areas, indicators and quadrature rules.

A region is one of five shapes in the (q, p) plane:

* ``Graph``: b < q < c between two piecewise-linear boundaries f1 <= f2,
  with b = -inf or c = +inf allowed;
* ``Disk``, ``Ellipse``, ``Annulus``: the usual conic shapes;
* ``RegionUnion``: a pairwise-disjoint union of the above, checked
  exactly for pairs of disks and annuli and by sampling where the
  other pairs' boxes meet.

Boundary points count as outside everywhere (a measure-zero convention
that keeps indicator complements exact).  ``quadrature`` gives each
bounded region an area rule that is exact in its geometry, and
``boundary_rule`` nodes and weighted tangents around its boundary, for
integrals that Green's theorem turns into line integrals.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
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
    "quadrature",
    "region_from_dict",
    "region_to_dict",
]

_UNION_SAMPLES = 100_000

# fewest nodes per direction of a quadrature panel, and per boundary
# edge or circle, however small
_MIN_NODES = 12


def _require_finite(what: str, *values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ValueError("%s must be finite" % what)


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
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
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
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
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
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
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
        b, c = float(self.b), float(self.c)
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
    (in_s, out_s), (in_t, out_t) = _ring_radii(s), _ring_radii(t)
    d = math.hypot(s.center[0] - t.center[0], s.center[1] - t.center[1])
    return d >= out_s + out_t or d + out_s <= in_t or d + out_t <= in_s


def _ring_radii(s) -> tuple[float, float]:
    return (0.0, s.radius) if isinstance(s, Disk) else (s.r_inner, s.r_outer)


@dataclass(frozen=True, eq=False)
class RegionUnion:
    """Pairwise-disjoint union.

    Pairs of disks and annuli are decided exactly from their centre
    distance; any other pair is checked by Monte Carlo sampling in the
    intersection of the two parts' sample boxes, and skipped where
    those boxes do not meet.
    """

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("union needs at least one part")
        object.__setattr__(self, "parts", parts)
        rng = np.random.default_rng(181093)
        for s, t in itertools.combinations(parts, 2):
            if isinstance(s, (Disk, Annulus)) and isinstance(t, (Disk, Annulus)):
                overlap = not _rings_disjoint(s, t)
            else:
                (q0, q1, p0, p1), (r0, r1, u0, u1) = _sample_box(s), _sample_box(t)
                q0, q1, p0, p1 = max(q0, r0), min(q1, r1), max(p0, u0), min(p1, u1)
                if not (q0 < q1 and p0 < p1):
                    continue
                qs = rng.uniform(q0, q1, _UNION_SAMPLES)
                ps = rng.uniform(p0, p1, _UNION_SAMPLES)
                overlap = np.any((indicator(s, qs, ps) > 0) & (indicator(t, qs, ps) > 0))
            if overlap:
                raise ValueError("union parts overlap")


Region = Union[Disk, Ellipse, Annulus, Graph, RegionUnion]


def _graph_knots(s: Graph) -> np.ndarray:
    # every knot of both boundaries where both are defined: from
    # max(b, first knots) to min(c, last knots), ends included, so all
    # of [b, c] for a bounded graph; fewer than two when they share no q
    lo = max(s.b, s.f1.qmin, s.f2.qmin)
    hi = min(s.c, s.f1.qmax, s.f2.qmax)
    qs = np.unique(np.concatenate([s.f1.qs, s.f2.qs, [lo, hi]]))
    return qs[(qs >= lo) & (qs <= hi)]


def _sample_box(s: Region) -> tuple[float, float, float, float]:
    # bounding_box, with a graph cut to the q range of its knots, the
    # only q where its boundaries are defined (all of [b, c] if finite)
    if isinstance(s, RegionUnion):
        return _hull([_sample_box(part) for part in s.parts])
    if not isinstance(s, Graph):
        return bounding_box(s)
    qs = _graph_knots(s)
    pmin, pmax = float(np.min(s.f1.evaluate(qs))), float(np.max(s.f2.evaluate(qs)))
    return float(qs[0]), float(qs[-1]), pmin, pmax


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
            out |= indicator(part, q, p).astype(bool)
    else:
        raise TypeError("not a region: %r" % (s,))
    out = out.astype(int)
    return out if out.ndim else int(out)


def area(s: Region) -> float:
    """Region area; exact for conics, trapezoid-exact for graphs, +inf if unbounded."""
    if isinstance(s, Disk):
        return math.pi * s.radius**2
    if isinstance(s, Ellipse):
        return math.pi * s.semi_major * s.semi_minor
    if isinstance(s, Annulus):
        return math.pi * (s.r_outer**2 - s.r_inner**2)
    if isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            return math.inf
        qs = _graph_knots(s)
        gap = s.f2.evaluate(qs) - s.f1.evaluate(qs)
        return float(np.sum((gap[1:] + gap[:-1]) * np.diff(qs)) / 2.0)
    if isinstance(s, RegionUnion):
        return sum(area(part) for part in s.parts)
    raise TypeError("not a region: %r" % (s,))


def bounding_box(s: Region) -> tuple[float, float, float, float]:
    """(qmin, qmax, pmin, pmax) enclosing s; infinite for unbounded graphs."""
    if isinstance(s, Disk):
        cq, cp = s.center
        return cq - s.radius, cq + s.radius, cp - s.radius, cp + s.radius
    if isinstance(s, Annulus):
        cq, cp = s.center
        return cq - s.r_outer, cq + s.r_outer, cp - s.r_outer, cp + s.r_outer
    if isinstance(s, Ellipse):
        ca, sa = math.cos(s.angle), math.sin(s.angle)
        hq = math.hypot(s.semi_major * ca, s.semi_minor * sa)
        hp = math.hypot(s.semi_major * sa, s.semi_minor * ca)
        cq, cp = s.center
        return cq - hq, cq + hq, cp - hp, cp + hp
    if isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            return s.b, s.c, -math.inf, math.inf
        return _sample_box(s)  # the knots of a bounded graph span [b, c]
    if isinstance(s, RegionUnion):
        return _hull([bounding_box(part) for part in s.parts])
    raise TypeError("not a region: %r" % (s,))


def _hull(boxes) -> tuple[float, float, float, float]:
    return (
        min(b[0] for b in boxes),
        max(b[1] for b in boxes),
        min(b[2] for b in boxes),
        max(b[3] for b in boxes),
    )


@functools.lru_cache(maxsize=256)
def _legendre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only, since every caller shares the cached arrays
    from numpy.polynomial.legendre import leggauss

    t, w = leggauss(count)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def _gauss(lo: float, hi: float, length: float, density: float):
    t, w = _legendre_rule(_MIN_NODES + math.ceil(density * length))
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


def _conic_rule(s, density: float):
    # polar rule on the unit-scaled shape, mapped through the axes
    if isinstance(s, Ellipse):
        a, b, angle, r0, r1 = s.semi_major, s.semi_minor, s.angle, 0.0, 1.0
    elif isinstance(s, Disk):
        a, b, angle, r0, r1 = s.radius, s.radius, 0.0, 0.0, 1.0
    else:
        a, b, angle, r0, r1 = 1.0, 1.0, 0.0, s.r_inner, s.r_outer
    reach = max(a, b)
    rho, w_rho = _gauss(r0, r1, (r1 - r0) * reach, density)
    m = _MIN_NODES + math.ceil(density * 2.0 * math.pi * r1 * reach)
    phi = 2.0 * math.pi * np.arange(m) / m
    u = a * np.outer(rho, np.cos(phi))
    v = b * np.outer(rho, np.sin(phi))
    ca, sa = math.cos(angle), math.sin(angle)
    q = s.center[0] + ca * u - sa * v
    p = s.center[1] + sa * u + ca * v
    w = np.outer(w_rho * rho * (2.0 * math.pi * a * b / m), np.ones(m))
    return q.ravel(), p.ravel(), w.ravel()


def quadrature(s: Region, density: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes q, p and weights w with sum w f(q, p) ~ integral of f over s.

    The rule is exact in the geometry: a tensor Gauss-Legendre rule on
    each trapezoid between consecutive knots of a graph, radial Gauss
    nodes times uniform angles on disks and annuli, the same mapped
    through the axes on ellipses, and the parts' rules concatenated for
    a union.  Every direction of every panel gets 12 + density * length
    nodes, so smooth integrands that vary on scales well above
    1/density are integrated to rounding.  Unbounded regions raise.
    """
    if isinstance(s, (Disk, Ellipse, Annulus)):
        return _conic_rule(s, density)
    if isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            raise ValueError("quadrature needs a bounded region")
        qs = _graph_knots(s)
        lo, hi = s.f1.evaluate(qs), s.f2.evaluate(qs)
        parts = []
        for i in range(len(qs) - 1):
            tq, wq = _gauss(qs[i], qs[i + 1], qs[i + 1] - qs[i], density)
            gap = max(hi[i] - lo[i], hi[i + 1] - lo[i + 1])
            tp, wp = _gauss(0.0, 1.0, gap, density)
            f1 = np.interp(tq, qs[i : i + 2], lo[i : i + 2])
            height = np.interp(tq, qs[i : i + 2], hi[i : i + 2]) - f1
            parts.append(
                (
                    np.repeat(tq, len(tp)),
                    (f1[:, None] + height[:, None] * tp).ravel(),
                    np.outer(wq * height, wp).ravel(),
                )
            )
    elif isinstance(s, RegionUnion):
        parts = [quadrature(part, density) for part in s.parts]
    else:
        raise TypeError("not a region: %r" % (s,))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _polyline(f: PiecewiseLinear, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    # the vertices of f over [b, c]: its knots inside, evaluated ends
    qs = np.concatenate([[b], f.qs[(f.qs > b) & (f.qs < c)], [c]])
    return qs, f.evaluate(qs)


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
    sum (q dp - p dq) / 2 is then the area of s, and with a radial mean
    of the integrand quadrature's area integrals become sums over these
    nodes (specfun.boundary_wigner_matrix).
    Each polygon edge of a graph (f1 left to right, the side at c, f2
    right to left, the side at b) gets 12 + density * length
    Gauss-Legendre nodes, exact for integrands polynomial along it;
    disks, ellipses and annuli get 12 + density * 2 pi * (largest
    semi-axis) uniform angles per circle, the inner circle of an annulus
    running clockwise; a union concatenates its parts' rules.
    Unbounded regions raise.
    """
    if isinstance(s, Disk):
        parts = [_ellipse_loop(s.center, s.radius, s.radius, 0.0, density)]
    elif isinstance(s, Ellipse):
        parts = [_ellipse_loop(s.center, s.semi_major, s.semi_minor, s.angle, density)]
    elif isinstance(s, Annulus):
        parts = [_ellipse_loop(s.center, s.r_outer, s.r_outer, 0.0, density)]
        if s.r_inner > 0:
            q, p, dq, dp = _ellipse_loop(s.center, s.r_inner, s.r_inner, 0.0, density)
            parts.append((q, p, -dq, -dp))
    elif isinstance(s, Graph):
        if not (math.isfinite(s.b) and math.isfinite(s.c)):
            raise ValueError("boundary rule needs a bounded region")
        q1, p1 = _polyline(s.f1, s.b, s.c)
        q2, p2 = _polyline(s.f2, s.b, s.c)
        parts = _loop_rule(np.concatenate([q1, q2[::-1]]), np.concatenate([p1, p2[::-1]]), density)
    elif isinstance(s, RegionUnion):
        parts = [boundary_rule(part, density) for part in s.parts]
    else:
        raise TypeError("not a region: %r" % (s,))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


# --- JSON serialization -------------------------------------------------

def _knots_from_json(rows) -> PiecewiseLinear:
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("malformed region: knots must be [[q, value], ...]") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("malformed region: knots must be [[q, value], ...]")
    return PiecewiseLinear(arr[:, 0].copy(), arr[:, 1].copy())


def region_from_dict(obj) -> Region:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("malformed region: expected an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "disk":
            return Disk(center=tuple(obj.get("center", (0.0, 0.0))), radius=float(obj["radius"]))
        if kind == "ellipse":
            return Ellipse(
                center=tuple(obj.get("center", (0.0, 0.0))),
                semi_major=float(obj["semi_major"]),
                semi_minor=float(obj["semi_minor"]),
                angle=float(obj.get("angle", 0.0)),
            )
        if kind == "annulus":
            return Annulus(
                center=tuple(obj.get("center", (0.0, 0.0))),
                r_inner=float(obj["r_inner"]),
                r_outer=float(obj["r_outer"]),
            )
        if kind == "graph":
            b = obj["b"]
            c = obj["c"]
            b = float("-inf") if b == "-inf" else float(b)
            c = float("inf") if c in ("+inf", "inf") else float(c)
            return Graph(b=b, c=c, f1=_knots_from_json(obj["f1"]), f2=_knots_from_json(obj["f2"]))
        if kind == "union":
            return RegionUnion(tuple(region_from_dict(part) for part in obj["parts"]))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError("malformed region: %s" % exc) from exc
    raise ValueError("malformed region: unknown type %r" % (kind,))


def region_to_dict(s: Region) -> dict:
    if isinstance(s, Disk):
        return {"type": "disk", "center": list(s.center), "radius": s.radius}
    if isinstance(s, Ellipse):
        return {
            "type": "ellipse",
            "center": list(s.center),
            "semi_major": s.semi_major,
            "semi_minor": s.semi_minor,
            "angle": s.angle,
        }
    if isinstance(s, Annulus):
        return {
            "type": "annulus",
            "center": list(s.center),
            "r_inner": s.r_inner,
            "r_outer": s.r_outer,
        }
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
