"""End-to-end acceptance checks, one per headline claim.

Each test prints a single "A<k>: PASS/FAIL" line (visible with -s or on
failure) and asserts the same condition, so the suite doubles as a
checklist of the quantitative guarantees in the README.
"""
import json
import math
import time

import numpy as np

from wigner_bounds import (
    Annulus,
    Disk,
    Graph,
    PiecewiseLinear,
    RegionUnion,
    area,
    crossing_radius,
    disk_spectrum,
    quasiprobability,
    read_wigner_csv,
    rings_envelope,
    wigner_transform,
)
from wigner_bounds.cli import main
from oracle import (
    assemble,
    integral_identities,
    kernel_eval,
    nystrom_extremes,
    oscillator_fn,
    oscillator_state,
    pointwise_bound_report,
)


def report(label: str, ok: bool, detail: str = "") -> None:
    line = "%s: %s" % (label, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def closed_form(n: int, a: float) -> float:
    e = math.exp(-a * a)
    return (
        1 - e,
        1 - (1 + 2 * a**2) * e,
        1 - (1 + 2 * a**4) * e,
        1 - (1 + 2 * a**2 - 2 * a**4 + (4.0 / 3.0) * a**6) * e,
    )[n]


def test_A1_exact_disk_values():
    t0 = time.perf_counter()
    worst = max(
        abs(disk_spectrum(a, n)[n] - closed_form(n, a))
        for n in range(4)
        for a in (0.3, 1.0, 2.0, 3.0)
    )
    dt = time.perf_counter() - t0
    report("A1", worst < 1e-12 and dt < 1.0, "max err %.2e, %.2fs" % (worst, dt))


def test_A2_crossing_radii():
    t0 = time.perf_counter()
    e1 = abs(crossing_radius(1) - 1.0)
    e2 = abs(crossing_radius(2) - math.sqrt((3 + math.sqrt(3)) / 2))
    dt = time.perf_counter() - t0
    report("A2", e1 < 1e-14 and e2 < 1e-14 and dt < 5.0, "errs %.1e %.1e, %.1fs" % (e1, e2, dt))


def test_A3_nystrom_agreement():
    t0 = time.perf_counter()
    lam0, lam1 = closed_form(0, 1.0), closed_form(1, 1.0)
    errs = []
    for count in (961, 1921):  # window [-6, 6], dx halves between runs
        eigs = np.linalg.eigvalsh(assemble(Disk((0.0, 0.0), 1.0), -6.0, 12.0 / (count - 1), count))
        errs.append((abs(eigs[0] - lam1), abs(eigs[-1] - lam0)))
    dt = time.perf_counter() - t0
    ok = (
        errs[0][0] < 1e-4
        and errs[0][1] < 1e-4
        and errs[1][0] < errs[0][0]
        and errs[1][1] < errs[0][1]
        and dt < 30.0
    )
    report("A3", ok, "errs %.1e %.1e -> %.1e %.1e, %.1fs" % (*errs[0], *errs[1], dt))


def test_A4_eigen_relation_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    states = [oscillator_state(n) for n in range(6)]
    # every state lies on the default grid, so one kernel per radius
    # serves all six; out is apply_kernel(disk, psi).values
    xs, dx = states[0].xs, states[0].dx
    for a in (0.5, 1.0, 2.0):
        k = kernel_eval(Disk((0.0, 0.0), a), xs[:, None], xs[None, :])
        for n, psi in enumerate(states):
            out = (k @ psi.values) * dx
            diff = out - disk_spectrum(a, n)[n] * psi.values
            worst = max(worst, math.sqrt(float(np.sum(np.abs(diff) ** 2)) * dx))
    dt = time.perf_counter() - t0
    report("A4", worst < 1e-4 and dt < 30.0, "max residual %.2e, %.1fs" % (worst, dt))


def test_A5_wigner_identities():
    t0 = time.perf_counter()
    axes = -8.0 + 0.05 * np.arange(321)
    i0 = 160  # axes[160] == 0.0
    worst_total = worst_purity = worst_origin = 0.0
    bounded = True
    for n in range(5):
        w = wigner_transform(oscillator_state(n), axes, axes)
        ids = integral_identities(w)
        worst_total = max(worst_total, abs(ids.total - 1.0))
        worst_purity = max(worst_purity, abs(ids.purity - 1 / (2 * math.pi)))
        bounded = bounded and pointwise_bound_report(w).ok
        worst_origin = max(worst_origin, abs(w.w[i0, i0] - (-1.0) ** n / math.pi))
    dt = time.perf_counter() - t0
    ok = (
        worst_total < 1e-6
        and worst_purity < 1e-4
        and bounded
        and worst_origin < 5e-6
        and dt < 120.0
    )
    report(
        "A5", ok,
        "total %.1e, purity %.1e, origin %.1e, %.1fs"
        % (worst_total, worst_purity, worst_origin, dt),
    )


def test_A6_consistency_loop():
    qs = -6.0 + 0.0125 * (np.arange(961) + 0.381966)  # off lattice: no cell
    # boundary ever lands on the disk rim
    worst = 0.0
    for n in range(4):
        psi = oscillator_state(n, -8.0, 0.01, 1601)
        w = wigner_transform(psi, qs, qs)
        for a in (0.5, 1.0, 2.0):
            got = quasiprobability(w, Disk((0.0, 0.0), a))
            worst = max(worst, abs(got - disk_spectrum(a, n)[n]))
    report("A6", worst < 5e-4, "max gap %.2e" % worst)


def ellipse_polyline(m=1201):
    theta = np.pi * np.arange(m) / (m - 1)
    qs = -2.0 * np.cos(theta)
    vals = 0.5 * np.sqrt(np.maximum(1.0 - (qs / 2.0) ** 2, 0.0))
    up = PiecewiseLinear(qs, vals)
    dn = PiecewiseLinear(qs, -vals)
    return Graph(b=-2.0, c=2.0, f1=dn, f2=up)


def test_A7_ellipse_invariance(tmp_path, capsys):
    env = rings_envelope([(0.0, 1.0)])
    lo, hi = nystrom_extremes(ellipse_polyline(), (-6.0, 6.0))
    e_min = abs(lo - env.lambda_min)
    e_max = abs(hi - env.lambda_max)

    disk = tmp_path / "disk.json"
    disk.write_text('{"type": "disk", "center": [0, 0], "radius": 1}')
    ell = tmp_path / "ell.json"
    ell.write_text(
        '{"type": "ellipse", "center": [0.3, -0.6], "semi_major": 2,'
        ' "semi_minor": 0.5, "angle": 0.8}'
    )
    assert main(["bounds", str(disk)]) == 0
    disk_line = capsys.readouterr().out
    assert main(["bounds", str(ell)]) == 0
    same = capsys.readouterr().out == disk_line
    report("A7", e_min < 2e-4 and e_max < 2e-4 and same,
           "kernel errs %.1e %.1e, verbatim %s" % (e_min, e_max, same))


def random_regions(rng):
    tent_q = np.array([-1.0, 0.2, 1.3])
    regions = [
        Disk((0.8, -0.6), 1.1),
        Disk((-0.5, 0.3), float(rng.uniform(0.4, 0.9))),
        Disk((0.0, 1.2), float(rng.uniform(0.5, 1.0))),
        Annulus((0.2, -0.3), 0.4, 0.9),
        Annulus((0.0, 0.0), float(rng.uniform(0.3, 0.6)), float(rng.uniform(1.0, 1.5))),
        Graph(
            b=-1.0, c=1.3,
            f1=PiecewiseLinear(tent_q, rng.uniform(-1.2, -0.3, 3)),
            f2=PiecewiseLinear(tent_q, rng.uniform(0.3, 1.2, 3)),
        ),
        Graph(
            b=-0.8, c=0.8,
            f1=PiecewiseLinear(np.array([-0.8, 0.8]), np.array([-0.4, -0.9])),
            f2=PiecewiseLinear(np.array([-0.8, 0.8]), np.array([1.1, 0.2])),
        ),
        Graph(
            b=-1.5, c=1.5,
            f1=PiecewiseLinear(np.array([-1.5, 0.0, 1.5]), np.array([0.0, -0.8, 0.0])),
            f2=PiecewiseLinear(np.array([-1.5, 0.0, 1.5]), np.array([0.0, 0.8, 0.0])),
        ),
        RegionUnion((Disk((-1.8, 0.0), 0.7), Disk((1.8, 0.0), 0.7))),
        RegionUnion((Disk((-2.0, -1.0), 0.5), Annulus((1.5, 1.0), 0.3, 0.8))),
    ]
    return regions


def test_A8_area_bound():
    rng = np.random.default_rng(20260814)
    coeffs = rng.normal(size=(50, 10)) + 1j * rng.normal(size=(50, 10))
    worst_q = worst_spec = -math.inf
    for s in random_regions(rng):
        xs = -6.25 + 0.01 * np.arange(1251)  # covers every region
        a = assemble(s, xs[0], 0.01, len(xs))
        cap = area(s) / math.pi
        basis = np.array([oscillator_fn(n, xs) for n in range(10)])
        states = coeffs @ basis
        states /= np.sqrt(np.sum(np.abs(states) ** 2, axis=1) * 0.01)[:, None]
        qvals = np.real(np.einsum("si,ij,sj->s", states.conj(), a, states, optimize=True)) * 0.01
        worst_q = max(worst_q, float(np.max(np.abs(qvals))) - cap)
        eigs = np.linalg.eigvalsh(a)
        worst_spec = max(worst_spec, float(np.max(np.abs(eigs))) - cap)
    ok = worst_q < 1e-3 and worst_spec < 1e-3
    report("A8", ok, "worst |Q|-A/pi %.1e, worst |eig|-A/pi %.1e" % (worst_q, worst_spec))


def test_A9_annulus_routes():
    env = rings_envelope([(0.5, 1.0)])
    lo, hi = nystrom_extremes(Annulus((0.0, 0.0), 0.5, 1.0), (-6.0, 6.0))
    e_min = abs(lo - env.lambda_min)
    e_max = abs(hi - env.lambda_max)
    report("A9", e_min < 1e-4 and e_max < 1e-4, "kernel errs %.1e %.1e" % (e_min, e_max))


def test_A10_envelope_reproduction(capsys):
    assert main(["curves"]) == 0  # a in [0, 3], 301 steps
    lines = capsys.readouterr().out.splitlines()
    head = lines[0].split("\t")
    cols = {name: i for i, name in enumerate(head)}
    rows = [r.split("\t") for r in lines[1:]]
    a = np.array([float(r[cols["a"]]) for r in rows])
    l0 = np.array([float(r[cols["lambda0"]]) for r in rows])
    lmax = np.array([float(r[cols["lambda_max"]]) for r in rows])
    nmin = np.array([int(r[cols["n_min"]]) for r in rows])

    max_is_l0 = bool(np.all(lmax == l0))
    step = a[1] - a[0]

    def switch_at(frm, to):
        hits = [a[i] for i in range(1, len(a)) if nmin[i - 1] == frm and nmin[i] == to]
        return hits[0] if hits else math.nan

    s12 = switch_at(1, 2)
    s23 = switch_at(2, 3)
    a1, a2 = crossing_radius(1), crossing_radius(2)
    # each switch happens on the first grid row past the crossing, so the
    # crossing sits inside the one-step bracket ending at the switch row
    ok = (
        max_is_l0
        and s12 - step - 1e-9 <= a1 <= s12 + 1e-9
        and s23 - step - 1e-9 <= a2 <= s23 + 1e-9
    )
    report("A10", ok, "switches at %.2f %.2f vs crossings %.4f %.4f" % (s12, s23, a1, a2))


def test_A11_end_to_end_check(tmp_path, capsys):
    disk = tmp_path / "disk.json"
    disk.write_text('{"type": "disk", "center": [0, 0], "radius": 1}')
    grid_path = str(tmp_path / "w1.csv")
    assert main(["wigner", "oscillator:1", "--out", grid_path]) == 0

    code = main(["check", grid_path, str(disk)])
    rep = json.loads(capsys.readouterr().out)
    near_min = abs(rep["q_value"] - rep["lambda_min"]) <= rep["margin"]

    w = read_wigner_csv(grid_path)
    scaled = tmp_path / "w1_scaled.csv"
    with open(scaled, "w") as fh:
        fh.write("q,p,w\n")
        for i, q in enumerate(w.qs):
            for j, p in enumerate(w.ps):
                fh.write("%.17g,%.17g,%.17g\n" % (q, p, 1.3 * w.w[i, j]))
    code_scaled = main(["check", str(scaled), str(disk)])
    capsys.readouterr()
    report("A11", code == 0 and near_min and code_scaled == 1,
           "exit %d, |q-lambda_min| within margin %s, scaled exit %d" % (code, near_min, code_scaled))
