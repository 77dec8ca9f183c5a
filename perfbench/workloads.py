"""The three workloads: seeded inputs, the op list, and how each op is judged.

A workload is a fixed list of CLI invocations.  The seed moves region and
state parameters inside narrow ranges chosen so that every seed does the
same amount of work (same scan cutoffs to within a few percent, same
Nystrom grid size, same Wigner grid sizes); only the numbers change.
Each op carries a judge that reads the op's exit code and stdout and
returns a Judgement against independent references.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import reference as ref

# exact-route output has 9 significant digits; |lambda| < 1.2 here
EXACT_TOL = 1e-8
# the Nystrom route's documented accuracy is 1e-4 on disks; allow 5x
NYSTROM_TOL = 5e-4
# Nystrom eigenvalues of a strip sit in [0, 1]; allow eigh rounding only
STRIP_SLACK = 1e-9
# 9 significant digits against the true area bound
AREA_SLACK = 1e-9


@dataclass
class Judgement:
    problems: list = field(default_factory=list)
    errs: list = field(default_factory=list)  # |lambda_reported - lambda_ref|
    verdict_wrong: bool = False

    @property
    def right(self) -> bool:
        return not self.problems and not self.verdict_wrong


@dataclass
class Op:
    label: str
    argv: list
    judge: Callable[[int, str], Judgement]
    check: bool = False
    # the documented false alarm of `check` on fine grids: a wrong verdict
    # here is counted in the metrics but does not make the run incorrect
    known_defect: bool = False


def _last_line(out: str) -> str:
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return lines[-1] if lines else ""


def _parse_bounds(out: str) -> dict:
    fields = dict(tok.split("=", 1) for tok in _last_line(out).split() if "=" in tok)
    return {"lo": float(fields["lambda_min"]), "hi": float(fields["lambda_max"])}


def _compare(j: Judgement, lo: float, hi: float, ref_lo: float, ref_hi: float, tol: float) -> None:
    errs = [abs(lo - ref_lo), abs(hi - ref_hi)]
    j.errs.extend(errs)
    if max(errs) > tol:
        j.problems.append(
            "bounds (%.12g, %.12g) vs reference (%.12g, %.12g), tol %g" % (lo, hi, ref_lo, ref_hi, tol)
        )


def _area_check(j: Judgement, lo: float, hi: float, area: float) -> None:
    cap = area / math.pi + AREA_SLACK
    if max(abs(lo), abs(hi)) > cap or lo > hi:
        j.problems.append("bounds (%.9g, %.9g) break the area bound %.9g" % (lo, hi, cap))


def bounds_judge(ref_lo=None, ref_hi=None, tol=EXACT_TOL, area=None, strip=False):
    def judge(rc: int, out: str) -> Judgement:
        j = Judgement()
        if rc != 0:
            j.problems.append("exit %d" % rc)
            return j
        try:
            got = _parse_bounds(out)
        except (KeyError, ValueError):
            j.problems.append("unparseable output %r" % out[-200:])
            return j
        if ref_lo is not None:
            _compare(j, got["lo"], got["hi"], ref_lo, ref_hi, tol)
        if area is not None:
            _area_check(j, got["lo"], got["hi"], area)
        if strip and not (-STRIP_SLACK <= got["lo"] <= got["hi"] <= 1.0 + STRIP_SLACK):
            j.problems.append("strip bounds (%.9g, %.9g) leave [0, 1]" % (got["lo"], got["hi"]))
        return j

    return judge


def curves_judge(a_max: float, steps: int, n_max: int):
    grid = np.linspace(0.0, a_max, steps)
    spots = [1, steps // 2, steps - 1]
    top = {i: ref.scan_top(grid[i]) for i in spots}
    spectra = {i: ref.disk_spectrum(float(grid[i]), top[i]) for i in spots}

    def judge(rc: int, out: str) -> Judgement:
        j = Judgement()
        if rc != 0:
            j.problems.append("exit %d" % rc)
            return j
        rows = [ln.split("\t") for ln in out.splitlines() if ln]
        header = ["a"] + ["lambda%d" % n for n in range(n_max + 1)] + ["lambda_min", "lambda_max", "n_min"]
        if not rows or rows[0] != header or len(rows) != steps + 1:
            j.problems.append("curves table has the wrong header or row count")
            return j
        try:
            table = np.array([[float(c) for c in r] for r in rows[1:]])
        except ValueError:
            j.problems.append("curves table has a non-numeric cell")
            return j
        if np.max(np.abs(table[:, 0] - grid)) > 1e-12:
            j.problems.append("curves radius column is off the requested grid")
        worst = 0.0
        for n in range(min(3, n_max) + 1):
            exact = np.array([ref.closed_form(n, a) for a in grid])
            worst = max(worst, float(np.max(np.abs(table[:, 1 + n] - exact))))
        for i in spots:
            vals = spectra[i]
            row = table[i]
            worst = max(worst, max(abs(row[1 + n] - vals[n]) for n in range(n_max + 1)))
            worst = max(worst, abs(row[n_max + 2] - min(vals)), abs(row[n_max + 3] - max(vals)))
        if worst > 1e-9:
            j.problems.append("curves columns off the reference by %.3g" % worst)
        return j

    return judge


def wigner_judge(path: str):
    def judge(rc: int, out: str) -> Judgement:
        j = Judgement()
        if rc != 0:
            j.problems.append("exit %d" % rc)
        elif not os.path.exists(path):
            j.problems.append("no CSV written")
        else:
            with open(path, encoding="utf-8") as fh:
                if fh.readline().strip() != "q,p,w":
                    j.problems.append("CSV lacks the q,p,w header")
        return j

    return judge


def check_judge(truth, ref_lo=None, ref_hi=None, area=None, exact_q=None, q_tol=None):
    """truth is the verdict the grid deserves; exact_q, when known, is the
    true Wigner mass of the state in the region, which the reported
    q_value must match to the grid's discretization error q_tol."""

    def judge(rc: int, out: str) -> Judgement:
        j = Judgement()
        if rc not in (0, 1):
            j.problems.append("exit %d" % rc)
            return j
        try:
            rep = json.loads(_last_line(out))
            lo, hi, q, verdict = rep["lambda_min"], rep["lambda_max"], rep["q_value"], rep["verdict"]
        except (ValueError, KeyError, TypeError):
            j.problems.append("unparseable output %r" % out[-200:])
            return j
        if (rc == 0) != (verdict == "within"):
            j.problems.append("exit %d disagrees with verdict %s" % (rc, verdict))
        if ref_lo is not None:
            _compare(j, lo, hi, ref_lo, ref_hi, EXACT_TOL)
        if area is not None:
            _area_check(j, lo, hi, area)
        if exact_q is not None and abs(q - exact_q) > q_tol:
            j.problems.append("q_value %.9g vs true mass %.9g, tol %g" % (q, exact_q, q_tol))
        j.verdict_wrong = verdict != truth
        return j

    return judge


# --- input files --------------------------------------------------------

def _write_json(workdir: str, name: str, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _write_grid(workdir: str, name: str, lo: float, hi: float, h: float, fn) -> str:
    """Write fn(q, p) on a square grid in the q,p,w layout `check` reads."""
    axis = lo + h * np.arange(int(math.floor((hi - lo) / h + 1e-9)) + 1)
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("q,p,w\n")
        for q in axis:
            rows = np.column_stack([np.full_like(axis, q), axis, fn(q, axis)])
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",")
    return path


def _bump(q0: float, p0: float, sigma: float, sign: float):
    """Unit-mass Gaussian of width sigma: far above 1/pi at its peak, so
    no state has it as a Wigner function and its disk mass nears 1."""

    def fn(q, p):
        r2 = (q - q0) ** 2 + (p - p0) ** 2
        return sign * np.exp(-r2 / (2 * sigma * sigma)) / (2 * math.pi * sigma * sigma)

    return fn


def _coherent(q0: float, p0: float):
    def fn(q, p):
        return np.exp(-((q - q0) ** 2) - (p - p0) ** 2) / math.pi

    return fn


def _disk(center, radius) -> dict:
    return {"type": "disk", "center": list(center), "radius": radius}


def _annulus(center, r_inner, r_outer) -> dict:
    return {"type": "annulus", "center": list(center), "r_inner": r_inner, "r_outer": r_outer}


def _ellipse(center, a, b, angle) -> dict:
    return {"type": "ellipse", "center": list(center), "semi_major": a, "semi_minor": b, "angle": angle}


def _graph(b, c, f1, f2) -> dict:
    return {"type": "graph", "b": b, "c": c, "f1": f1, "f2": f2}


def _graph_area(b, c, f1, f2) -> float:
    qs = np.unique([q for q, _ in f1] + [q for q, _ in f2] + [b, c])
    gap = np.interp(qs, *zip(*f2)) - np.interp(qs, *zip(*f1))
    return float(np.sum((gap[1:] + gap[:-1]) * np.diff(qs)) / 2.0)


# --- workloads ----------------------------------------------------------

def exact_conics(rng: random.Random, workdir: str) -> list:
    u = rng.uniform

    def centre(span):
        return (u(-span, span), u(-span, span))

    ops = []

    def disk(label, center, r):
        path = _write_json(workdir, label + ".json", _disk(center, r))
        lo, hi = ref.disk_extremes(r)
        ops.append(Op(label, ["bounds", path], bounds_judge(lo, hi)))

    disk("disk_r5", (0.0, 0.0), u(4.9, 5.0))
    disk("disk_readme", (0.0, 0.0), 1.0)
    disk("disk_small", centre(2.0), u(0.5, 0.6))
    disk("disk_unit", centre(1.0), u(1.05, 1.2))
    disk("disk_r2", centre(1.0), u(2.0, 2.3))
    disk("disk_r3", (0.0, 0.0), u(3.4, 3.6))
    for label, (amaj, amin) in (("ellipse_thin", ((2.2, 2.6), (0.8, 1.0))), ("ellipse_wide", ((3.5, 4.0), (1.8, 2.2)))):
        a, b = u(*amaj), u(*amin)
        path = _write_json(workdir, label + ".json", _ellipse(centre(1.0), a, b, u(0.0, math.pi)))
        lo, hi = ref.disk_extremes(math.sqrt(a * b))
        ops.append(Op(label, ["bounds", path], bounds_judge(lo, hi)))
    for label, center, (rin, rout) in (
        ("annulus_centred", (0.0, 0.0), ((0.2, 0.4), (1.4, 1.6))),
        ("annulus_off", centre(1.0), ((2.5, 2.6), (3.0, 3.1))),
    ):
        r1, r2 = u(*rin), u(*rout)
        path = _write_json(workdir, label + ".json", _annulus(center, r1, r2))
        lo, hi = ref.annulus_extremes(r1, r2)
        ops.append(Op(label, ["bounds", path], bounds_judge(lo, hi)))
    ops.append(Op("curves_default", ["curves"], curves_judge(3.0, 301, 3)))
    ops.append(
        Op(
            "curves_wide",
            ["curves", "--a-max", "5", "--n-max", "8", "--steps", "51"],
            curves_judge(5.0, 51, 8),
        )
    )
    return ops


def nystrom_graphs(rng: random.Random, workdir: str) -> list:
    # every region keeps |q| <= 2.4, so the default window is [-6, 6] and
    # the Nystrom grid has 1201 points on every seed
    u = rng.uniform
    ops = []

    def graph(label, b, c, f1, f2):
        path = _write_json(workdir, label + ".json", _graph(b, c, f1, f2))
        area = _graph_area(b, c, f1, f2)
        ops.append(Op(label, ["bounds", path], bounds_judge(area=area)))
        return path, area

    x0 = u(-0.1, 0.1)
    diamond, diamond_area = graph("diamond", -1.0, 1.0, [[-1, 0], [x0, -u(0.95, 1.05)], [1, 0]], [[-1, 0], [x0, u(0.95, 1.05)], [1, 0]])
    b, c = u(-1.3, -1.1), u(1.3, 1.5)
    quad, quad_area = graph(
        "quadrilateral",
        b,
        c,
        [[b, 0.0], [u(0.1, 0.4), u(-1.2, -1.0)], [c, u(0.1, 0.3)]],
        [[b, u(0.2, 0.4)], [u(-0.4, -0.1), u(1.2, 1.4)], [c, u(0.4, 0.6)]],
    )

    dq, dr = u(-1.5, -1.3), u(0.8, 0.9)
    gb, gc = u(-0.2, 0.0), u(1.9, 2.3)
    g1, g2 = [[gb, u(-0.6, -0.4)], [gc, u(-0.7, -0.5)]], [[gb, u(0.4, 0.6)], [u(0.6, 1.2), u(0.8, 1.0)], [gc, u(0.3, 0.5)]]
    union = {"type": "union", "parts": [_disk((dq, u(-0.3, 0.3)), dr), _graph(gb, gc, g1, g2)]}
    path = _write_json(workdir, "union.json", union)
    area = math.pi * dr * dr + _graph_area(gb, gc, g1, g2)
    ops.append(Op("union", ["bounds", path], bounds_judge(area=area)))

    p0, w = u(-0.5, 0.5), u(0.35, 0.45)
    strip = _graph("-inf", "+inf", [[-20, p0 - w], [20, p0 - w]], [[-20, p0 + w], [20, p0 + w]])
    path = _write_json(workdir, "strip.json", strip)
    ops.append(Op("strip", ["bounds", path, "--window", "-6.25", "6.25"], bounds_judge(strip=True)))

    # the reference conics move by whole grid steps in q and freely in p:
    # the Nystrom grid maps onto itself up to a diagonal phase, so their
    # discretization error is the same on every seed (over radii alone it
    # swings from 1e-7 to 6e-5 with where the boundary falls between points)
    def shifted(reach):
        return (0.01 * rng.randint(-round(100 * reach), round(100 * reach)), u(-1.0, 1.0))

    path = _write_json(workdir, "disk_numeric.json", _disk(shifted(1.4), 1.0))
    lo, hi = ref.disk_extremes(1.0)
    ops.append(Op("disk_numeric", ["bounds", path, "--numeric"], bounds_judge(lo, hi, NYSTROM_TOL)))
    path = _write_json(workdir, "annulus_numeric.json", _annulus(shifted(0.9), 0.5, 1.5))
    lo, hi = ref.annulus_extremes(0.5, 1.5)
    ops.append(Op("annulus_numeric", ["bounds", path, "--numeric"], bounds_judge(lo, hi, NYSTROM_TOL)))

    grid = _write_grid(workdir, "coherent.csv", -3.0, 3.0, 0.05, _coherent(x0 + u(0.2, 0.35), u(-0.2, 0.2)))
    ops.append(Op("check_coherent_diamond", ["check", grid, diamond], check_judge("within", area=diamond_area), check=True))
    grid = _write_grid(workdir, "bump.csv", -3.0, 3.0, 0.05, _bump(u(-0.1, 0.1), u(0.0, 0.2), u(0.12, 0.16), 1.0))
    ops.append(Op("check_bump_quadrilateral", ["check", grid, quad], check_judge("above_max", area=quad_area), check=True))
    return ops


def wigner_check(rng: random.Random, workdir: str) -> list:
    u = rng.uniform
    ops = []

    def wigner(label, spec, h):
        path = os.path.join(workdir, label + ".csv")
        argv = ["wigner", spec, "--dq", repr(h), "--dp", repr(h), "--out", path]
        ops.append(Op("wigner_" + label, argv, wigner_judge(path)))
        return path

    def check(label, grid, region, truth, h, extremes, exact_q=None, known_defect=False):
        path = _write_json(workdir, label + ".json", region)
        lo, hi = extremes
        judge = check_judge(truth, lo, hi, exact_q=exact_q, q_tol=0.5 * h)
        ops.append(Op(label, ["check", grid, path], judge, check=True, known_defect=known_defect))

    r = u(1.9, 2.1)
    grid = wigner("n2", "oscillator:2", 0.05)
    spec = ref.disk_spectrum(r, ref.scan_top(r))
    check("check_n2_disk", grid, _disk((0, 0), r), "within", 0.05, ref.disk_extremes(r), spec[2])

    q0, p0 = u(-0.4, 0.4), u(-0.4, 0.4)
    grid = wigner("coherent", "coherent:%r,%r" % (q0, p0), 0.025)
    d, phi, r = u(0.6, 0.9), u(0.0, 2 * math.pi), u(1.2, 1.4)
    disk = _disk((q0 + d * math.cos(phi), p0 + d * math.sin(phi)), r)
    check("check_coherent_disk", grid, disk, "within", 0.025, ref.disk_extremes(r), ref.gaussian_disk_mass(d, r))
    a, b = u(1.6, 1.8), u(0.9, 1.0)
    ellipse = _ellipse((q0, p0), a, b, u(0.0, math.pi))
    extremes = ref.disk_extremes(math.sqrt(a * b))
    check("check_coherent_ellipse", grid, ellipse, "within", 0.025, extremes, ref.gaussian_ellipse_mass(a, b))

    w0 = round(u(0.3, 0.7), 3)
    grid = wigner("mix", "mix:%r oscillator:0 + %r oscillator:1" % (w0, round(1 - w0, 3)), 0.05)
    r1, r2 = u(0.4, 0.6), u(1.5, 1.7)
    ring = ref.annulus_spectrum(r1, r2)
    exact = w0 * ring[0] + (1 - w0) * ring[1]
    check("check_mix_annulus", grid, _annulus((0, 0), r1, r2), "within", 0.05, ref.annulus_extremes(r1, r2), exact)

    # oscillator:1 is the unit disk's lambda_min eigenstate, so its mass
    # sits exactly on the bound; `check` calls it below_min on fine grids
    unit = _disk((0, 0), 1.0)
    lam1 = ref.disk_spectrum(1.0, ref.scan_top(1.0))[1]
    for h, label, defect in ((0.05, "h05", False), (0.02, "h02", True), (0.0125, "h0125", True)):
        grid = wigner("n1_" + label, "oscillator:1", h)
        check("check_n1_unit_" + label, grid, unit, "within", h, ref.disk_extremes(1.0), lam1, known_defect=defect)

    h = 0.02
    grid = _write_grid(workdir, "bump_pos.csv", -1.5, 1.5, h, _bump(u(-0.2, 0.2), u(-0.2, 0.2), u(0.12, 0.16), 1.0))
    check("check_bump_unit", grid, unit, "above_max", h, ref.disk_extremes(1.0))
    r = u(1.4, 1.6)
    grid = _write_grid(workdir, "bump_neg.csv", -2.0, 2.0, h, _bump(u(-0.3, 0.3), u(-0.3, 0.3), u(0.12, 0.16), -1.0))
    check("check_antibump_disk", grid, _disk((0, 0), r), "below_min", h, ref.disk_extremes(r))
    return ops


WORKLOADS = {
    "exact-conics": exact_conics,
    "nystrom-graphs": nystrom_graphs,
    "wigner-check": wigner_check,
}
