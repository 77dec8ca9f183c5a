"""Wigner transform, integral identities, quasiprobability, grid CSV."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from wigner_bounds import (
    Disk,
    RegionUnion,
    WavefunctionGrid,
    WignerGrid,
    number_state_wigner,
    quasiprobability,
    read_wigner_csv,
    rings_envelope,
    wigner_transform,
    write_wigner_csv,
)
from wigner_bounds import wigner
from oracle import coherent_state, integral_identities, oscillator_state, pointwise_bound_report

# W_2(1, 0) = -e^{-1}/pi, from L_2(2) e^{-1} / pi with L_2(2) = -1
W2_AT_10 = -0.11709966304863832


def small_axes(step=0.05, half=4.0):
    n = int(round(2 * half / step)) + 1
    return -half + step * np.arange(n)


def test_number_state_wigner_frozen_value():
    assert abs(number_state_wigner(2, 1.0, 0.0) - W2_AT_10) < 1e-15


def test_parity_at_origin():
    for n in range(6):
        want = (-1) ** n / math.pi
        assert abs(number_state_wigner(n, 0.0, 0.0) - want) < 1e-15


def test_transform_matches_closed_form():
    qs = small_axes(0.25, 2.0)
    ps = small_axes(0.25, 2.0)
    for n in range(4):
        w = wigner_transform(oscillator_state(n), qs, ps)
        want = number_state_wigner(n, qs[:, None], ps[None, :])
        assert np.max(np.abs(w.w - want)) < 1e-9


def test_transform_coherent_state():
    """Coherent-state Wigner function is the displaced Gaussian
    exp(-(q-q0)^2 - (p-p0)^2)/pi; its peak sits at (q0, p0)."""
    psi = coherent_state(2.0, 0.0, -10.0, 0.005, 4001)
    qs = small_axes(0.1, 4.0)
    ps = small_axes(0.1, 4.0)
    w = wigner_transform(psi, qs, ps)
    want = np.exp(-((qs[:, None] - 2.0) ** 2) - ps[None, :] ** 2) / math.pi
    assert np.max(np.abs(w.w - want)) < 1e-9
    i, j = np.unravel_index(np.argmax(np.abs(w.w)), w.w.shape)
    assert abs(qs[i] - 2.0) <= w.dq
    assert abs(ps[j] - 0.0) <= w.dp


def test_coherent_wigner_closed_form():
    """A coherent state is the vacuum displaced to (q0, p0): the number
    state's closed form at (q - q0, p - p0) is exp(-(q-q0)^2 - (p-p0)^2) / pi
    to 1 ulp, and the transform of the sampled coherent state to 1e-9."""
    qs, ps = small_axes(0.1, 4.0)[:, None], small_axes(0.1, 4.0)[None, :]
    for q0, p0 in [(2.0, 0.0), (1.5, -0.7), (-0.3, 2.9)]:
        got = number_state_wigner(0, qs - q0, ps - p0)
        want = np.exp(-((qs - q0) ** 2) - (ps - p0) ** 2) / math.pi
        assert np.all(np.abs(got - want) <= np.spacing(want)), (q0, p0)
    assert number_state_wigner(0, 1.5 - 1.5, -0.7 + 0.7) == pytest.approx(1 / math.pi, abs=1e-16)
    assert isinstance(number_state_wigner(0, 0.3, 0.4), float)
    got = number_state_wigner(0, qs - 2.0, ps)
    psi = coherent_state(2.0, 0.0, -10.0, 0.005, 4001)
    w = wigner_transform(psi, small_axes(0.1, 4.0), small_axes(0.1, 4.0))
    assert got.shape == w.w.shape and np.max(np.abs(got - w.w)) < 1e-9


def test_number_state_wigner_large_n_stays_finite():
    """e^{-r^2} L_n(2 r^2) used to overflow to inf * 0 = nan at n = 200,
    300 and r = 40.  Against mpmath's L_n, to 1e-13 of 1/pi, across and
    past r^2 = 700 where e^{-r^2} leaves the normal float range, for n
    whose oscillations reach past it."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for n in (200, 300):
            w = number_state_wigner(n, np.linspace(-40.0, 40.0, 161)[:, None], np.array([-1.0, 0.0, 1.0]))
            assert np.all(np.isfinite(w)) and np.max(np.abs(w)) <= 1 / math.pi
        for n in (0, 7, 200, 300, 400):
            for r2 in (0.3, 12.0, 650.0, 700.0, 705.0, 760.0, 820.0, 1600.0):
                r2m = mpmath.mpf(r2)
                want = float((-1) ** n * mpmath.laguerre(n, 0, 2 * r2m) * mpmath.exp(-r2m) / mpmath.pi)
                assert abs(number_state_wigner(n, math.sqrt(r2), 0.0) - want) < 1e-13, (n, r2)
        assert np.all(number_state_wigner(400, np.array([1e30, 1e300, np.inf]), 0.0) == 0.0)


def full_range_wigner(psi, qs, ps):
    """The sum over every offset -(n-1) dx .. (n-1) dx as one complex
    matrix product, the reference for the half-range real sum."""
    xs, dx = psi.xs, psi.dx
    lo, hi = xs[0] - 1e-9 * dx, xs[-1] + 1e-9 * dx
    offs = dx * np.arange(-(len(psi) - 1), len(psi))
    f = np.empty((qs.size, offs.size), dtype=complex)
    for i, q in enumerate(qs):
        xp, xm = q + offs, q - offs
        inside = (xp >= lo) & (xp <= hi) & (xm >= lo) & (xm <= hi)
        vp = np.interp(xp, xs, psi.values.real) + 1j * np.interp(xp, xs, psi.values.imag)
        vm = np.interp(xm, xs, psi.values.real) + 1j * np.interp(xm, xs, psi.values.imag)
        f[i] = np.where(inside, np.conj(vp) * vm, 0.0)
    return (dx / np.pi) * (f @ np.exp(2j * np.outer(offs, ps)))


def test_transform_matches_full_range_sum():
    """A complex, asymmetric state, q off the state grid and a
    non-square, off-centre p range: the half-range sum equals the full
    complex sum, whose imaginary part is zero up to rounding."""
    xs = -6.0 + 0.02 * np.arange(601)
    vals = np.exp(-((xs - 0.7) ** 2) / 1.3 + 1j * (1.1 * xs + 0.3 * xs**2)) * (1 + 0.2 * xs)
    psi = WavefunctionGrid(xs[0], 0.02, vals / np.sqrt(np.sum(np.abs(vals) ** 2) * 0.02))
    qs = -3.1 + 0.0537 * np.arange(97)
    ps = -0.4 + 0.083 * np.arange(61)
    ref = full_range_wigner(psi, qs, ps)
    assert np.max(np.abs(ref.imag)) < 1e-13
    got = wigner_transform(psi, qs, ps)
    assert got.w.shape == (97, 61)
    assert np.max(np.abs(got.w - ref.real)) < 1e-13

    other = oscillator_state(1, xs[0], 0.02, 601)
    mixed = 0.3 * got.w + 0.7 * wigner_transform(other, qs, ps).w
    want = 0.3 * ref.real + 0.7 * full_range_wigner(other, qs, ps).real
    assert np.max(np.abs(mixed - want)) < 1e-13


def test_integral_identities():
    w = wigner_transform(oscillator_state(3), small_axes(0.05, 6.0), small_axes(0.05, 6.0))
    ids = integral_identities(w)
    assert abs(ids.total - 1.0) < 1e-6
    assert abs(ids.purity - 1.0 / (2 * math.pi)) < 1e-6


def test_mixture():
    axes = small_axes()
    members = [wigner_transform(oscillator_state(n), axes, axes).w for n in (0, 1)]
    w = WignerGrid(axes, axes, 0.5 * members[0] + 0.5 * members[1])
    iq = np.argmin(np.abs(w.qs))
    ip = np.argmin(np.abs(w.ps))
    assert abs(w.w[iq, ip]) < 1e-9
    ids = integral_identities(w)
    assert abs(ids.total - 1.0) < 1e-6
    assert abs(ids.purity - 1.0 / (4 * math.pi)) < 1e-6


def test_transform_needs_support():
    with pytest.raises(ValueError, match="outside wavefunction support"):
        wigner_transform(oscillator_state(0), np.array([-9.0, 0.0]), small_axes())


def test_wigner_grid_validation():
    with pytest.raises(ValueError):
        WignerGrid(np.array([0.0, 0.1, 0.3]), np.array([0.0, 0.1]), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        WignerGrid(np.array([0.0, 0.1]), np.array([0.0, 0.1]), np.zeros((3, 2)))
    w = WignerGrid(np.array([0.0, 0.1]), np.array([0.0, 0.2]), np.zeros((2, 2)))
    assert abs(w.dq - 0.1) < 1e-15
    assert abs(w.dp - 0.2) < 1e-15


def test_wigner_grid_refuses_a_one_point_axis():
    """No CSV reaches this refusal (both readers want two rows of two
    first); a grid built directly does."""
    with pytest.raises(ValueError, match="^qs must hold at least two points$"):
        WignerGrid(np.array([0.0]), np.array([0.0, 0.1]), np.zeros((1, 2)))


def test_quasiprobability_whole_state():
    w = wigner_transform(oscillator_state(0), small_axes(0.05, 6.0), small_axes(0.05, 6.0))
    assert abs(quasiprobability(w, Disk((0.0, 0.0), 5.0)) - 1.0) < 1e-6


def test_quasiprobability_disk_eigenvalue():
    from wigner_bounds import disk_spectrum

    qs = -6.0 + 0.0125 * (np.arange(961) + 0.381966)
    w = wigner_transform(oscillator_state(1, -8.0, 0.01, 1601), qs, qs)
    got = quasiprobability(w, Disk((0.0, 0.0), 1.0))
    assert abs(got - disk_spectrum(1.0, 1)[1]) < 5e-4


@pytest.mark.parametrize("radius", [1.0, 2.0, 3.0])
def test_quasiprobability_keeps_disk_eigenstates_inside_the_bounds(radius):
    """The exact grids of a disk's two extreme eigenstates integrate to
    their eigenvalue within half of check's 2 dq dp margin, and never
    past it, at every spacing: an error that shrinks slower than dq dp
    would turn these states into false alarms on fine grids."""
    env = rings_envelope([(0.0, radius)])
    disk = Disk((0.0, 0.0), radius)
    for n, lam in ((env.n_min, env.lambda_min), (env.n_max, env.lambda_max)):
        for h in (0.1, 0.05, 0.025, 0.02, 0.0125):
            axis = small_axes(h, radius + h)
            w = WignerGrid(axis, axis, number_state_wigner(n, axis[:, None], axis[None, :]))
            got = quasiprobability(w, disk)
            assert abs(got - lam) <= 0.5 * 2.0 * h * h, (n, h)
            assert env.lambda_min <= got <= env.lambda_max, (n, h)


def test_quasiprobability_union_additivity():
    w = wigner_transform(oscillator_state(2), small_axes(), small_axes())
    a = Disk((-1.5, 0.0), 1.0)
    b = Disk((1.5, 0.0), 1.0)
    both = quasiprobability(w, RegionUnion((a, b)))
    assert abs(both - quasiprobability(w, a) - quasiprobability(w, b)) < 1e-12


def test_quasiprobability_uncovered_region():
    w = wigner_transform(oscillator_state(0), small_axes(), small_axes())
    big = Disk((0.0, 0.0), 6.0)
    with pytest.raises(ValueError, match="uncovered region"):
        quasiprobability(w, big)


def test_pointwise_bound_report():
    w = wigner_transform(oscillator_state(1), small_axes(), small_axes())
    rep = pointwise_bound_report(w)
    assert rep.ok
    assert rep.wmin < 0 < rep.wmax
    bad = WignerGrid(w.qs, w.ps, np.full_like(w.w, 0.5))
    assert not pointwise_bound_report(bad).ok
    assert pointwise_bound_report(bad, allowance=1.0).ok


def test_csv_round_trip(tmp_path):
    """The file is the per-cell "%.17g,%.17g,%.17g" layout byte for byte,
    and reads back exactly, signed zero and subnormals included."""
    w = wigner_transform(oscillator_state(1), small_axes(0.5, 2.0), small_axes(0.25, 1.0))
    values = np.linspace(-0.3, 0.3, 9 * 5).reshape(9, 5)
    values[1, :] = [-0.0, 5e-324, 1e-300, 1e300, -1e300]
    skewed = WignerGrid(small_axes(0.5, 2.0) + 0.1, np.array([-0.75, 0.0, 0.75, 1.5, 2.25]), values)
    for k, grid in enumerate((w, skewed)):
        path = tmp_path / ("w%d.csv" % k)
        write_wigner_csv(grid, path)
        want = "q,p,w\n" + "".join(
            "%.17g,%.17g,%.17g\n" % (q, p, grid.w[i, j])
            for i, q in enumerate(grid.qs)
            for j, p in enumerate(grid.ps)
        )
        assert path.read_bytes() == want.encode("utf-8")
        back = read_wigner_csv(path)
        assert np.array_equal(back.qs, grid.qs)
        assert np.array_equal(back.ps, grid.ps)
        assert np.array_equal(back.w, grid.w)
        assert np.array_equal(np.signbit(back.w), np.signbit(grid.w))


@pytest.mark.parametrize(
    "row, bad",
    [("0,1,nan", "nan"), ("0,1,inf", "inf"), ("0,1,-inf", "-inf"), ("nan,1,0.1", "nan")],
    ids=["nan-w", "inf-w", "minus-inf-w", "nan-q"],
)
def test_csv_rejects_non_finite_cells(tmp_path, row, bad):
    path = tmp_path / "bad.csv"
    path.write_text("q,p,w\n0,0,0.1\n%s\n1,0,0.1\n1,1,0.1\n" % row)
    with pytest.raises(ValueError, match=r"data row 2 is not finite: .*%s" % bad):
        read_wigner_csv(path)


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n0,0,1\n")
    with pytest.raises(ValueError, match="header"):
        read_wigner_csv(path)
    path.write_text("q,p,w\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n2,0,1\n")
    with pytest.raises(ValueError, match="row-major"):
        read_wigner_csv(path)


def grid_or_error(read, path):
    try:
        g = read(path)
    except ValueError as exc:
        return str(exc)
    return g.qs, g.ps, g.w


def assert_same_read(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


# the full parse, held here so that counting its calls does not count these
full_read = wigner._read_full


@pytest.fixture
def full_reads(monkeypatch):
    """Counts the files read_wigner_csv hands to its full parse."""
    calls = []

    def counted(path):
        calls.append(path)
        return full_read(path)

    monkeypatch.setattr(wigner, "_read_full", counted)
    return calls


def savetxt_grid(path, axis, fn):
    """The layout of np.savetxt(fmt="%.17g"), one q row per call."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("q,p,w\n")
        for q in axis:
            rows = np.column_stack([np.full_like(axis, q), axis, fn(q, axis)])
            np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def test_csv_regular_grids_skip_the_full_parse(tmp_path, full_reads):
    """Grids written by write_wigner_csv and by np.savetxt are text-regular,
    with or without the last line's newline: they never reach the full
    parse, and read back as it would read them."""
    written = tmp_path / "written.csv"
    qs, ps = small_axes(0.05, 2.0), small_axes(0.1, 3.0)
    w = WignerGrid(qs, ps, number_state_wigner(1, qs[:, None], ps[None, :]))
    write_wigner_csv(w, written)
    saved = tmp_path / "saved.csv"
    savetxt_grid(saved, -3.0 + 0.05 * np.arange(121), lambda q, p: number_state_wigner(0, q - 0.3, p + 0.1))
    unended = tmp_path / "unended.csv"
    unended.write_bytes(written.read_bytes().rstrip(b"\n"))
    for path in (written, saved, unended):
        got = grid_or_error(read_wigner_csv, path)
        assert not full_reads
        assert_same_read(got, grid_or_error(full_read, path))
    assert_same_read(grid_or_error(read_wigner_csv, written), (w.qs, w.ps, w.w))


def test_csv_regular_read_holds_one_grid(tmp_path, full_reads):
    """The regular read copies each block's w cells into one array sized
    from the file's line count: on a 641 x 641 grid it peaks at no more
    than 1.7 times the grid's bytes, where keeping every block's cells
    and joining them took 2.18 times."""
    qs = small_axes(0.0125)
    path = tmp_path / "w.csv"
    write_wigner_csv(WignerGrid(qs, qs, number_state_wigner(1, qs[:, None], qs[None, :])), path)
    read_wigner_csv(path)  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grid = read_wigner_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grid.w.shape == (641, 641) and full_reads == []
    assert peak <= 1.7 * grid.w.nbytes, peak / grid.w.nbytes


def test_csv_regular_read_joins_one_row(tmp_path, full_reads):
    """Each block holds whole rows, so no cells are carried over a block
    edge or joined to the next block's: on a 401 x 401 grid the read
    peaks at no more than 2.0 times the grid's bytes, where joining a
    carry to each whole block took 2.19 times."""
    qs = small_axes(0.02)
    path = tmp_path / "w.csv"
    w = number_state_wigner(1, qs[:, None], qs[None, :])
    write_wigner_csv(WignerGrid(qs, qs, w), path)
    read_wigner_csv(path)  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grid = read_wigner_csv(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert full_reads == [] and np.array_equal(grid.w, w)
    assert peak <= 2.0 * grid.w.nbytes, peak / grid.w.nbytes


@pytest.mark.parametrize("edit", [
    lambda lines: lines + ["\n"],
    lambda lines: lines + ["\n", "\n"],
    lambda lines: lines[:-1] + ["\n"] + lines[-1:],
], ids=["one-blank-tail", "two-blank-tail", "blank-before-last"])
def test_csv_blank_lines_in_a_block_fall_back_to_the_full_parse(tmp_path, full_reads, edit):
    """loadtxt skips a blank line inside a block, so the regular read
    fills fewer cells than the file has lines and hands the file to the
    full parse, which reads the written grid, with no warning."""
    qs, ps = small_axes(0.5, 2.0), small_axes(0.25, 1.0)
    w = WignerGrid(qs, ps, number_state_wigner(1, qs[:, None], ps[None, :]))
    write_wigner_csv(w, tmp_path / "base.csv")
    lines = (tmp_path / "base.csv").read_text().splitlines(keepends=True)
    path = tmp_path / "blank.csv"
    path.write_text("".join(lines[:1] + edit(lines[1:])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert wigner._read_regular(path) is None
        got = grid_or_error(read_wigner_csv, path)
    assert caught == [] and full_reads == [path]
    assert_same_read(got, (w.qs, w.ps, w.w))


@pytest.mark.parametrize("block", [3, 5, 8, 10, 24, 1000])
def test_csv_regular_read_in_blocks(tmp_path, monkeypatch, full_reads, block):
    """6 rows of 4 lines: blocks of the whole rows that fit in _BLOCK_ROWS
    lines, one row where a row is longer than that (3), and a last block
    that ends on the last line (24 = 3 * 8) all stay on the regular
    path, with no warning from an empty last read."""
    monkeypatch.setattr(wigner, "_BLOCK_ROWS", block)
    path = tmp_path / "w.csv"
    qs, ps = small_axes(1.0, 2.5)[:6], np.array([-4.0, -3.5, -3.0, -2.5])
    write_wigner_csv(WignerGrid(qs, ps, np.arange(24.0).reshape(6, 4) - 7.5), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = grid_or_error(read_wigner_csv, path)
    assert caught == [] and full_reads == []
    assert_same_read(got, grid_or_error(full_read, path))


def _edit_line(n, old, new):
    def edit(lines):
        lines[n] = lines[n].replace(old, new, 1)
        return lines
    return edit


def _edit_column(col, old, new):
    def edit(lines):
        out = []
        for line in lines:
            cells = line.split(",")
            if cells[col] == old:
                cells[col] = new
            out.append(",".join(cells))
        return out
    return edit


def _insert(n, text):
    def edit(lines):
        return lines[:n] + [text] + lines[n:]
    return edit


# each edit takes the 24 data lines of a 6 x 4 grid (q = -4 ... 1, p = -4
# ... -2.5) and gives the lines of the file to read; the block is 8 lines
CSV_EDITS = {
    "comment": (_insert(5, "# a comment line\n"), "grid"),
    "blank": (_insert(5, "\n"), "grid"),
    "blank-first": (_insert(0, "\n"), "grid"),
    "blank-tail": (lambda lines: lines + ["\n", "\n"], "grid"),
    "padded-all": (lambda lines: [" , ".join(line.strip().split(",")) + " \n" for line in lines], "grid"),
    "padded-one-row": (lambda lines: lines[:8] + [" " + line for line in lines[8:12]] + lines[12:], "grid"),
    "respelled-p": (_edit_line(12, ",-4,", ",-4.0,"), "grid"),
    "respelled-q": (_edit_line(1, "-4,", "-4.0,"), "grid"),
    "long-p": (_edit_column(1, "-3.5", "-0000000000000000000000003.5"), "grid"),
    # 27 characters, one ulp off -3; cut to 25 they would read -3 exactly
    "long-q-every-row": (_edit_column(0, "-3", "-3.000000000000000222044605"), "grid"),
    "signed-zero": (_edit_column(0, "0", "-0"), "grid"),
    "nan-q": (_edit_line(9, "-2,", "nan,"), "error"),
    "inf-p": (_edit_line(10, ",-3,", ",inf,"), "error"),
    "nan-w": (lambda lines: lines[:11] + [lines[11].rsplit(",", 1)[0] + ",nan\n"] + lines[12:], "error"),
    "minus-inf-w-last": (lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",-inf\n"], "error"),
    "ragged": (lambda lines: lines[:-1], "error"),
    "p-period-respelled-later": (_edit_line(18, ",-3,", ",-3.00,"), "grid"),
    "p-period-broken-later": (_edit_line(18, ",-3,", ",-2.9,"), "error"),
    "non-ascii-w": (lambda lines: lines[:3] + [lines[3].rstrip("\n") + "é\n"] + lines[4:], "error"),
    "nbsp-padded-p": (lambda lines: [line.replace(",", ",\xa0", 1) for line in lines], "grid"),
    "non-ascii-q": (lambda lines: [line.replace("-1,", "−1,", 1) if line.startswith("-1,") else line for line in lines], "error"),
    "nul-q": (lambda lines: [line.replace("-2,", "-2\0,", 1) if line.startswith("-2,") else line for line in lines], "error"),
    "crlf": (lambda lines: [line.replace("\n", "\r\n") for line in lines], "grid"),
    "no-final-newline": (lambda lines: lines[:-1] + [lines[-1].rstrip("\n")], "grid"),
    # lines the text reader splits but the regular read's "\n" count misses
    "cr": (lambda lines: [line.replace("\n", "\r") for line in lines], "grid"),
    "four-columns": (_edit_line(20, "\n", ",0\n"), "error"),
    "one-q-row": (lambda lines: lines[:4], "error"),
    "header-only": (lambda lines: [], "error"),
}


@pytest.mark.parametrize("name", sorted(CSV_EDITS))
def test_csv_regular_read_matches_the_full_parse(tmp_path, monkeypatch, name):
    """Whatever a file holds, read_wigner_csv gives the full parse's grid
    bit for bit, or its error text, and emits no warning."""
    edit, kind = CSV_EDITS[name]
    monkeypatch.setattr(wigner, "_BLOCK_ROWS", 8)
    grid = tmp_path / "base.csv"
    qs, ps = small_axes(1.0, 2.5)[:6] - 1.5, np.array([-4.0, -3.5, -3.0, -2.5])
    write_wigner_csv(WignerGrid(qs, ps, np.arange(24.0).reshape(6, 4) / 7 - 1.5), grid)
    lines = grid.read_text().splitlines(keepends=True)
    path = tmp_path / "edited.csv"
    path.write_bytes("".join(lines[:1] + edit(lines[1:])).encode("utf-8"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = grid_or_error(read_wigner_csv, path)
    assert caught == []
    want = grid_or_error(full_read, path)
    assert isinstance(want, str) == (kind == "error"), want
    assert_same_read(got, want)
