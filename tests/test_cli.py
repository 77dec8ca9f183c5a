"""Command line behavior: formats, exit codes, file round trips."""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_laguerre

import wigner_bounds
from wigner_bounds import (
    WignerGrid,
    disk_spectrum,
    normalize,
    number_state_wigner,
    read_state_csv,
    read_wigner_csv,
    rings_envelope,
    wigner_transform,
    write_wigner_csv,
)
from wigner_bounds import cli
from wigner_bounds.cli import build_parser, main
from oracle import coherent_state, oscillator_state


def write_region(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def disk_json(tmp_path, radius=1.0, center=(0.0, 0.0)):
    return write_region(
        tmp_path, "disk_%g.json" % radius,
        {"type": "disk", "center": list(center), "radius": radius},
    )


def test_bounds_disk_exact(tmp_path, capsys):
    assert main(["bounds", disk_json(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == "lambda_min=-0.103638324 lambda_max=0.632120559 method=exact\n"


def test_bounds_ellipse_matches_disk_verbatim(tmp_path, capsys):
    """Any area-pi ellipse reduces to the unit disk, identical output."""
    assert main(["bounds", disk_json(tmp_path)]) == 0
    disk_out = capsys.readouterr().out
    ell = write_region(
        tmp_path, "ell.json",
        {"type": "ellipse", "center": [0.7, -0.2], "semi_major": 2.0,
         "semi_minor": 0.5, "angle": 0.4},
    )
    assert main(["bounds", ell]) == 0
    assert capsys.readouterr().out == disk_out


def test_bounds_numeric_route(tmp_path, capsys):
    assert main(["bounds", disk_json(tmp_path), "--numeric"]) == 0
    out = capsys.readouterr().out
    assert "method=fock" in out and "basis=" in out and "error=" in out
    fields = dict(kv.split("=") for kv in out.split())
    assert abs(float(fields["lambda_min"]) - (1 - 3 / math.e)) < 1e-9
    assert abs(float(fields["lambda_max"]) - (1 - math.exp(-1))) < 1e-9


def test_bounds_prints_no_negative_zero(tmp_path, capsys):
    """The Fock route gives a radius-1e-300 disk the extremes 0 and -0.0;
    every printed number drops the sign of a zero, in the bounds line as
    in the check --json numbers, which _fmt formats too."""
    assert main(["bounds", "--numeric", disk_json(tmp_path, radius=1e-300)]) == 0
    assert capsys.readouterr().out == "lambda_min=0 lambda_max=0 method=fock basis=16 error=0\n"
    assert cli._fmt(-0.0) == "0" and json.dumps(float(cli._fmt(-0.0))) == "0.0"
    assert cli._fmt(-1e-300) == "-1e-300"


def test_bounds_graph_region(tmp_path, capsys):
    tent = write_region(
        tmp_path, "tent.json",
        {"type": "graph", "b": -1.0, "c": 1.0,
         "f1": [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]],
         "f2": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]},
    )
    assert main(["bounds", tent]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    bound = 2.0 / math.pi
    assert -bound <= float(fields["lambda_min"]) <= float(fields["lambda_max"]) <= bound


def test_bounds_malformed_region(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "pentagon"}')
    assert main(["bounds", str(bad)]) == 2
    assert "malformed region" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"type": "disk", "radius": 1e400}', "disk center and radius must be finite"),
        (
            '{"type": "ellipse", "semi_major": Infinity, "semi_minor": 1}',
            "ellipse center, semi-axes and angle must be finite",
        ),
        ('{"type": "disk", "center": [NaN, 0], "radius": 1}', "disk center and radius must be finite"),
        (
            '{"type": "graph", "b": -1, "c": 1, "f1": [[-1, 0], [0, NaN], [1, 0]],'
            ' "f2": [[-1, 0], [0, 1], [1, 0]]}',
            "knot positions and values must be finite",
        ),
    ],
    ids=["infinite-radius", "infinite-semi-major", "nan-center", "nan-graph-knot"],
)
def test_bounds_rejects_non_finite_region(tmp_path, capsys, text, message):
    """JSON admits 1e400, Infinity and NaN; each is refused with exit 2."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["bounds", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "region",
    [
        {"type": "disk", "center": [0.5, 0, 7], "radius": 1},
        {"type": "annulus", "center": [0, 0, "x"], "r_inner": 0.5, "r_outer": 1},
        {"type": "ellipse", "center": [0.5], "semi_major": 2, "semi_minor": 1},
    ],
    ids=["three-entries", "trailing-string", "one-entry"],
)
def test_bounds_rejects_a_center_that_is_not_two_numbers(tmp_path, capsys, region):
    """A centre of the wrong length exits 2 with one error line, instead
    of dropping entries or failing on an index."""
    assert main(["bounds", write_region(tmp_path, "bad.json", region)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: center must be two numbers [q, p], not [")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "region",
    [
        {"type": "disk", "center": ["0.5", 1], "radius": "1"},
        {"type": "disk", "center": [0, 0], "radius": True},
        {"type": "graph", "b": "-1", "c": 1, "f1": [[-1, 0], [1, 0]], "f2": [[-1, 1], [1, 1]]},
    ],
    ids=["quoted-center-and-radius", "boolean-radius", "quoted-graph-end"],
)
def test_bounds_refuses_numbers_that_are_not_json_numbers(tmp_path, capsys, region):
    """A quoted number or a boolean where a number belongs is a mistake
    upstream: one error line and exit 2, not bounds of a guessed region."""
    assert main(["bounds", write_region(tmp_path, "bad.json", region)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "must be" in captured.err


def test_union_with_ellipse_part(tmp_path, capsys):
    """An ellipse inside a union leaves it without a closed form; the
    Fock route takes it, for bounds and check alike, inside the area
    bound."""
    union = write_region(
        tmp_path, "union.json",
        {"type": "union", "parts": [
            {"type": "ellipse", "center": [-1.2, 0.0], "semi_major": 0.9,
             "semi_minor": 0.4, "angle": 0.5},
            {"type": "disk", "center": [1.0, 0.3], "radius": 0.6},
        ]},
    )
    cap = (0.9 * 0.4 + 0.6**2)
    assert main(["bounds", union]) == 0
    fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert fields["method"] == "fock"
    assert -cap <= float(fields["lambda_min"]) < 0 < float(fields["lambda_max"]) <= cap
    out = str(tmp_path / "w0.csv")
    assert main(["wigner", "oscillator:0", "--out", out]) == 0
    assert main(["check", out, union]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "within"
    assert report["lambda_min"] == float(fields["lambda_min"])
    assert abs(report["area_bound"] - cap) < 1e-9


def test_bounds_exact_scan_range(tmp_path, capsys):
    """The scan always reaches the radius's own cutoff, so a large disk
    finds its lambda_min deep in the curves (n = 119 at radius 15).  At
    radius 27 e^{-a^2} is below the normal float range and the sweep's
    guard carries it; past the scan cap of 16000 terms (radius 40)
    bounds and curves refuse with one error line and exit 2.  Neither
    --nmax nor --exact is an option."""
    assert main(["bounds", disk_json(tmp_path, 15.0)]) == 0
    assert capsys.readouterr().out == "lambda_min=-0.271433978 lambda_max=1 method=exact\n"
    assert main(["bounds", disk_json(tmp_path, 27.0)]) == 0
    assert capsys.readouterr().out == "lambda_min=-0.270235175 lambda_max=1 method=exact\n"
    refusal = "error: exact disk spectrum scans at most 16000 terms, radius <= 40\n"
    for argv in (["bounds", disk_json(tmp_path, 40.5)], ["curves", "--a-max", "40.5"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", refusal)
    for flags in (["--nmax", "5"], ["--exact"]):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", disk_json(tmp_path), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % " ".join(flags) in capsys.readouterr().err


def test_bounds_numeric_refuses_oversized_region(tmp_path, capsys):
    """Under --numeric the radius-15 disk needs 427 Fock states, past
    the route's limit of 400: one error line and exit 2 before any
    quadrature runs."""
    assert main(["bounds", disk_json(tmp_path, 15.0), "--numeric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the Fock route needs 427 states for this region, past its limit of 400\n"


def test_bounds_concentric_union_is_exact(tmp_path, capsys):
    """Disks and annuli about one centre take the closed form."""
    rings = write_region(tmp_path, "rings.json", {"type": "union", "parts": [
        {"type": "disk", "center": [0.3, 0.2], "radius": 0.5},
        {"type": "annulus", "center": [0.3, 0.2], "r_inner": 1.0, "r_outer": 1.5},
        {"type": "annulus", "center": [0.3, 0.2], "r_inner": 2.0, "r_outer": 2.2}]})
    assert main(["bounds", rings]) == 0
    assert capsys.readouterr().out == "lambda_min=-0.322606468 lambda_max=0.494088018 method=exact\n"


WINDOW_IGNORED = "warning: --window is ignored: no route uses a window\n"
REFUSAL = "error: no sharp bound for this unbounded region; bands between parallel lines are exact\n"


def test_bounds_window_flags(tmp_path, capsys):
    """--window is still parsed, then ignored with one warning line: the
    route of a bounded region and its stdout do not change, and
    --grid-count is no longer a flag."""
    assert main(["bounds", disk_json(tmp_path), "--numeric", "--window", "-7", "7"]) == 0
    captured = capsys.readouterr()
    assert "method=fock" in captured.out and captured.err == WINDOW_IGNORED
    tent = write_region(
        tmp_path, "tent.json",
        {"type": "graph", "b": -1.0, "c": 1.0,
         "f1": [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]],
         "f2": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]},
    )
    assert main(["bounds", tent]) == 0
    line = capsys.readouterr().out
    assert main(["bounds", tent, "--window", "-3", "3"]) == 0
    assert capsys.readouterr().out == line
    with pytest.raises(SystemExit) as exc:
        main(["bounds", disk_json(tmp_path), "--numeric", "--grid-count", "601"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-count" in capsys.readouterr().err


def test_bounds_band_is_exact(tmp_path, capsys):
    """A band between parallel lines has the closed form [0, 1];
    --window on it changes nothing but the warning, and --numeric, which
    skips the closed form, leaves no sharp bound and is refused."""
    strip = write_region(
        tmp_path, "strip.json",
        {"type": "graph", "b": "-inf", "c": "+inf",
         "f1": [[-20.0, -0.3], [20.0, -0.3]], "f2": [[-20.0, 0.5], [20.0, 0.5]]},
    )
    sheared = write_region(
        tmp_path, "sheared.json",
        {"type": "graph", "b": "-inf", "c": "+inf",
         "f1": [[-4.0, -2.5], [4.0, 1.5]], "f2": [[-4.0, -1.5], [0.0, 0.5], [4.0, 2.5]]},
    )
    for argv, err in (([strip], ""), ([strip, "--window", "-6.25", "6.25"], WINDOW_IGNORED),
                      ([sheared], "")):
        assert main(["bounds", *argv]) == 0
        captured = capsys.readouterr()
        assert captured.out == "lambda_min=0 lambda_max=1 method=exact\n"
        assert captured.err == err
    assert main(["bounds", strip, "--numeric"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == REFUSAL


def test_bounds_refuses_unbounded_non_bands(tmp_path, capsys):
    """An unbounded region without a closed form has no sharp bound:
    one error line, nothing on stdout, exit 2, window or not."""
    kinked = write_region(
        tmp_path, "kinked.json",
        {"type": "graph", "b": "-inf", "c": "+inf",
         "f1": [[-20.0, -0.5], [20.0, -0.5]],
         "f2": [[-20.0, 7.5], [-6.0, 0.5], [6.0, 0.5], [20.0, 7.5]]},
    )
    assert main(["bounds", kinked]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == REFUSAL
    assert main(["bounds", kinked, "--window", "-6", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == WINDOW_IGNORED + REFUSAL


def test_main_builds_its_parser_once(monkeypatch, capsys):
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for argv in (["curves", "--steps", "2"], ["curves", "--a-max", "1", "--steps", "3"]) * 2:
            assert main(argv) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(calls) == 1
    assert build_parser() is not build_parser()


def test_main_runs_the_cmd_patched_onto_the_module(monkeypatch, capsys):
    """The cached parser names the subcommand; main looks its cmd_*
    function up on the module per call, so a wrapper patched in after
    the first call (a tracer's, say) still runs."""
    assert main(["curves", "--steps", "2"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_curves", lambda args: seen.append(args.steps) or 0)
    assert main(["curves", "--steps", "3"]) == 0
    assert seen == [3]
    capsys.readouterr()


def test_main_maps_memory_error_to_exit_2(tmp_path, monkeypatch, capsys):
    """A grid too large to allocate (wigner oscillator:0 at --dq 1e-5)
    makes numpy raise MemoryError.  That is a data error: one line and
    exit 2, not a traceback with exit 1, the bound-violation code.  The
    cmd is patched to raise, so nothing is allocated."""
    out = str(tmp_path / "x.csv")
    argv = ["wigner", "oscillator:0", "--dq", "1e-5", "--dp", "1e-5", "--out", out]
    for exc, line in (
        (MemoryError("Unable to allocate 4.66 TiB for an array"), "Unable to allocate 4.66 TiB for an array"),
        (MemoryError(), "MemoryError"),
    ):
        def cmd_wigner(args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "cmd_wigner", cmd_wigner)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % line)
    assert not os.path.exists(out)


def test_repeated_main_calls_carry_no_flags_over(tmp_path, capsys):
    """One cached parser serves every call in a process; a flag given to
    one call must not leak into the next."""
    disk = disk_json(tmp_path)
    assert main(["bounds", disk, "--numeric"]) == 0
    assert "method=fock" in capsys.readouterr().out
    assert main(["bounds", disk]) == 0
    assert capsys.readouterr().out == "lambda_min=-0.103638324 lambda_max=0.632120559 method=exact\n"

    grid = str(tmp_path / "w0.csv")
    assert main(["wigner", "oscillator:0", "--out", grid]) == 0
    assert main(["check", grid, disk, "--margin", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out)["margin"] == float("%.9g" % (0.5 + 2 * 0.05 * 0.05))
    assert main(["check", grid, disk]) == 0
    assert json.loads(capsys.readouterr().out)["margin"] == float("%.9g" % (2 * 0.05 * 0.05))


def test_curves_output(capsys):
    assert main(["curves", "--a-max", "1.5", "--steps", "16", "--n-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["a", "lambda0", "lambda1", "lambda2", "lambda_min", "lambda_max", "n_min"]
    first = lines[1].split("\t")
    assert [float(v) for v in first[:6]] == [0.0] * 6
    for row in lines[1:]:
        cells = row.split("\t")
        a = float(cells[0])
        # same code path means parsed values match the library exactly
        assert abs(float(cells[1]) - disk_spectrum(a, 0)[0]) < 1e-12
        assert abs(float(cells[5]) - disk_spectrum(a, 0)[0]) < 1e-12


def test_curves_envelopes_match_per_row_envelopes(capsys):
    """The envelope columns come from one sweep but equal, bit for bit,
    a separate rings_envelope of the disk at each row's radius."""
    for argv in ([], ["--a-max", "5", "--n-max", "8", "--steps", "51"]):
        assert main(["curves", *argv]) == 0
        rows = [r.split("\t") for r in capsys.readouterr().out.splitlines()[1:]]
        for cells in rows:
            env = rings_envelope([(0.0, float(cells[0]))])
            assert float(cells[-3]) == env.lambda_min
            assert float(cells[-2]) == env.lambda_max
            assert int(cells[-1]) == env.n_min


def test_curves_continuity_across_first_crossing(capsys):
    """The min envelope is continuous through the branch switch at a=1;
    on a fine local grid adjacent rows differ by less than 1e-6."""
    assert main(["curves", "--a-min", "0.999999", "--a-max", "1.000001", "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    lmin = np.array([float(r.split("\t")[5]) for r in lines[1:]])
    nmin = [int(r.split("\t")[-1]) for r in lines[1:]]
    assert nmin[0] == 1 and nmin[-1] == 2
    assert np.max(np.abs(np.diff(lmin))) < 1e-6


def test_curves_bad_range(capsys):
    assert main(["curves", "--a-min", "2", "--a-max", "1"]) == 2
    assert main(["curves", "--steps", "1"]) == 2
    capsys.readouterr()
    for a_max in ("inf", "nan"):
        assert main(["curves", "--a-max", a_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need 0 <= a-min < a-max < inf and steps >= 2\n"


def test_wigner_csv_and_check_loop(tmp_path, capsys):
    out = str(tmp_path / "w0.csv")
    assert main(["wigner", "oscillator:0", "--out", out]) == 0
    grid = read_wigner_csv(out)
    iq = np.argmin(np.abs(grid.qs))
    ip = np.argmin(np.abs(grid.ps))
    assert abs(grid.w[iq, ip] - 1 / math.pi) < 1e-5

    assert main(["check", out, disk_json(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "within"
    assert abs(report["q_value"] - (1 - math.exp(-1))) < 5e-3
    assert abs(report["area_bound"] - 1.0) < 1e-9
    assert report["margin"] == pytest.approx(2 * 0.05 * 0.05)


def test_check_flags_scaled_grid(tmp_path, capsys):
    out = str(tmp_path / "w0.csv")
    assert main(["wigner", "oscillator:0", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    scaled = [lines[0]]
    for ln in lines[1:]:
        q, p, w = ln.split(",")
        scaled.append("%s,%s,%.17g" % (q, p, 1.3 * float(w)))
    bad = tmp_path / "w0_scaled.csv"
    bad.write_text("\n".join(scaled) + "\n")
    assert main(["check", str(bad), disk_json(tmp_path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "above_max"


def test_check_margin_flag_can_absorb_violation(tmp_path, capsys):
    out = str(tmp_path / "w1.csv")
    assert main(["wigner", "oscillator:1", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    scaled = [lines[0]] + [
        "%s,%s,%.17g" % (*ln.split(",")[:2], 1.1 * float(ln.split(",")[2]))
        for ln in lines[1:]
    ]
    bad = tmp_path / "w1_scaled.csv"
    bad.write_text("\n".join(scaled) + "\n")
    assert main(["check", str(bad), disk_json(tmp_path)]) == 1
    capsys.readouterr()
    assert main(["check", str(bad), disk_json(tmp_path), "--margin", "0.05"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["margin"] == pytest.approx(0.05 + 2 * 0.05 * 0.05)


@pytest.mark.parametrize("margin", ["-1", "nan", "inf", "-inf"])
def test_check_rejects_bad_margin(tmp_path, capsys, margin):
    """oscillator:1 is the unit disk's lambda_min eigenstate; a negative
    margin would call it below_min, a NaN one would make the verdict
    meaningless.  Both, and an infinite one, are usage errors."""
    out = str(tmp_path / "w1.csv")
    assert main(["wigner", "oscillator:1", "--out", out]) == 0
    assert main(["check", out, disk_json(tmp_path), "--margin=" + margin]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--margin must be a finite nonnegative number" in captured.err


@pytest.mark.parametrize(
    "column, bad",
    [(2, "nan"), (2, "inf"), (0, "nan")],
    ids=["nan-w", "inf-w", "nan-q"],
)
def test_check_rejects_non_finite_cells(tmp_path, capsys, column, bad):
    out = str(tmp_path / "w0.csv")
    assert main(["wigner", "oscillator:0", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    cells = lines[1000].split(",")
    cells[column] = bad
    lines[1000] = ",".join(cells)
    broken = tmp_path / "w0_broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["check", str(broken), disk_json(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "data row 1000 is not finite" in captured.err


def test_check_rejects_overflowing_grid(tmp_path, capsys):
    """Finite cells of +-1e308 can sum to inf - inf; a NaN mass would
    compare as within and an infinite one is no JSON number, so both are
    refused, with one error line and no numpy warning."""
    rows = ["q,p,w"]
    for i, q in enumerate(np.linspace(-1.0, 1.0, 21)):
        for j, p in enumerate(np.linspace(-1.0, 1.0, 21)):
            rows.append("%.17g,%.17g,%s" % (q, p, "1e308" if (21 * i + j) % 2 else "-1e308"))
    grid = tmp_path / "huge.csv"
    grid.write_text("\n".join(rows) + "\n")
    assert main(["check", str(grid), disk_json(tmp_path, radius=0.5)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid mass over the region is not finite: the grid values overflow\n"


def test_check_refuses_an_infinite_mass(tmp_path, capsys, monkeypatch):
    """An infinite Q has no JSON form; check refuses it like a NaN."""
    grid = str(tmp_path / "w0.csv")
    assert main(["wigner", "oscillator:0", "--out", grid]) == 0
    for q_value in (math.inf, -math.inf):
        monkeypatch.setattr(cli, "quasiprobability", lambda w, s: q_value)
        assert main(["check", grid, disk_json(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: grid mass over the region is not finite")


def test_check_uncovered_region(tmp_path, capsys):
    out = str(tmp_path / "w0.csv")
    assert main(["wigner", "oscillator:0", "--out", out]) == 0
    assert main(["check", out, disk_json(tmp_path, radius=5.0)]) == 2
    assert "uncovered region" in capsys.readouterr().err
    # the grid covers [qs[0], qs[-1]] x [ps[0], ps[-1]] and no more: a
    # disk that reaches 0.01 past q = 4, under half of dq = 0.05, is refused
    assert main(["check", out, disk_json(tmp_path, radius=4.01)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "uncovered region" in captured.err


def test_check_lambda_min_state_on_a_fine_grid(tmp_path, capsys):
    """oscillator:1 is the unit disk's lambda_min eigenstate, so its mass
    sits exactly on the bound; at dq = dp = 0.02 it must still come back
    within."""
    out = str(tmp_path / "w1.csv")
    assert main(["wigner", "oscillator:1", "--dq", "0.02", "--dp", "0.02", "--out", out]) == 0
    assert main(["check", out, disk_json(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "within"
    assert report["lambda_min"] <= report["q_value"] <= report["lambda_min"] + 0.5 * report["margin"]


def test_wigner_mix_and_coherent_specs(tmp_path):
    out = str(tmp_path / "wmix.csv")
    assert main(["wigner", "mix:0.5 oscillator:0 + 0.5 oscillator:1", "--out", out]) == 0
    grid = read_wigner_csv(out)
    iq = np.argmin(np.abs(grid.qs))
    assert abs(grid.w[iq, iq]) < 1e-6

    out2 = str(tmp_path / "wcoh.csv")
    assert main(["wigner", "coherent:1.5,-0.5", "--out", out2]) == 0
    grid2 = read_wigner_csv(out2)
    i, j = np.unravel_index(np.argmax(grid2.w), grid2.w.shape)
    assert abs(grid2.qs[i] - 1.5) <= grid2.dq
    assert abs(grid2.ps[j] + 0.5) <= grid2.dp


def test_wigner_far_coherent_state_is_zero_without_warnings(tmp_path):
    """A coherent state 1e200 from the grid used to leak an overflow
    RuntimeWarning from squaring that distance; its grid is exactly 0.
    So is the grid of one whose offset q - q0 itself overflows to inf,
    which the displaced vacuum must take without a warning either.  Run
    as a command, since a warning reaches the user's stderr there and
    pytest's warning capture in process."""
    src = str(Path(wigner_bounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "c.csv"
    cases = [
        (["coherent:1e200,0", "--q-min", "-1", "--q-max", "1", "--dq", "0.5"], 5),
        (["coherent:-1.7e308,0", "--q-min", "1e308", "--q-max", "1.7e308", "--dq", "1e307"], 8),
    ]
    for args, rows in cases:
        argv = ["wigner", *args, "--p-min", "-1", "--p-max", "1", "--dp", "0.5", "--out", str(out)]
        ret = subprocess.run([sys.executable, "-m", "wigner_bounds", *argv], capture_output=True, text=True, env=env)
        assert ret.returncode == 0 and ret.stderr == "", ret.stderr
        grid = read_wigner_csv(str(out))
        assert grid.w.shape == (rows, 5) and np.all(grid.w == 0.0)


def test_wigner_csv_state_round_trip(tmp_path):
    state = tmp_path / "state.csv"
    xs = -8.0 + 0.005 * np.arange(3201)
    vals = np.pi**-0.25 * np.exp(-0.5 * xs**2)
    with open(state, "w") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(xs, vals):
            fh.write("%.17g,%.17g,0\n" % (x, v))
    out = str(tmp_path / "w.csv")
    assert main(["wigner", "csv:%s" % state, "--out", out]) == 0
    grid = read_wigner_csv(out)
    iq = np.argmin(np.abs(grid.qs))
    assert abs(grid.w[iq, iq] - 1 / math.pi) < 1e-5


def test_wigner_bad_specs(tmp_path, capsys):
    """Each spec exits 2 with one error line and writes no file.  The
    non-finite numbers used to write an all-NaN grid with exit 0, or
    (coherent:inf,0) crash with an OverflowError traceback."""
    out = tmp_path / "w.csv"
    errs = []
    for spec in (
        "squeezed:1",
        "oscillator:two",
        "coherent:1",
        "mix:0.6 oscillator:0 + 0.6 oscillator:1",
        "mix:0.5 mix:0.5 oscillator:0 + 0.5 oscillator:1",
        "coherent:nan,0",
        "coherent:0,inf",
        "coherent:inf,0",
        "mix:nan oscillator:0 + nan oscillator:1",
    ):
        assert main(["wigner", spec, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        errs.append(captured.err)
    assert "bad state spec" in "".join(errs)


@pytest.mark.parametrize(
    "flag, axis",
    [("--q-max=inf", "q"), ("--q-min=-inf", "q"), ("--dq=nan", "q"), ("--dq=inf", "q"),
     ("--p-max=inf", "p"), ("--dp=nan", "p")],
)
def test_wigner_rejects_non_finite_axes(tmp_path, capsys, flag, axis):
    out = tmp_path / "w.csv"
    assert main(["wigner", "oscillator:0", flag, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: %s grid needs min < max and a positive step\n" % axis


@pytest.mark.parametrize(
    "flags, axis",
    [(["--q-min", "0", "--q-max", "0.05", "--dq", "0.1"], "q"), (["--p-min", "1", "--p-max", "1.5", "--dp", "2"], "p")],
)
def test_wigner_refuses_a_one_point_axis(tmp_path, capsys, flags, axis):
    """A step past max - min leaves one point on the axis; the refusal
    names the grid, not a field of the grid type."""
    out = tmp_path / "w.csv"
    assert main(["wigner", "oscillator:1", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: %s grid needs at least two points: a step no larger than max - min\n" % axis


def write_gaussian_state(path, bad_row=None):
    xs = -8.0 + 0.01 * np.arange(1601)
    vals = np.pi**-0.25 * np.exp(-0.5 * xs**2)
    if bad_row is not None:
        vals[bad_row - 1] = np.nan
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(xs, vals):
            fh.write("%.17g,%.17g,0\n" % (x, v))
    return str(path)


def test_wigner_rejects_non_finite_state(tmp_path, capsys):
    """One nan sample used to give an all-NaN grid with exit 0."""
    state = write_gaussian_state(tmp_path / "st.csv", bad_row=901)
    out = tmp_path / "w.csv"
    assert main(["wigner", "csv:" + state, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "state CSV data row 901 is not finite" in captured.err


@pytest.mark.parametrize("xs", ["0,0.1,0.25", "0.2,0.1,0"], ids=["uneven", "decreasing"])
def test_wigner_refuses_non_uniform_state_axis(tmp_path, capsys, xs):
    state = tmp_path / "state.csv"
    state.write_text("x,re,im\n" + "".join("%s,1,0\n" % x for x in xs.split(",")))
    out = tmp_path / "w.csv"
    assert main(["wigner", "csv:%s" % state, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: state CSV x column must be uniformly increasing\n"


@pytest.mark.parametrize("body", ["", "\n", "\n\n# no samples\n"], ids=["bare", "blank", "comment"])
def test_header_only_csvs_are_refused(tmp_path, capsys, body):
    """A CSV with its header and no data rows gets one error line and
    exit 2, on check and on a wigner csv: member, with no warning."""
    grid = tmp_path / "empty.csv"
    grid.write_text("q,p,w\n" + body)
    assert main(["check", str(grid), disk_json(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Wigner CSV has a header but no data rows\n"
    state = tmp_path / "state.csv"
    state.write_text("x,re,im\n" + body)
    out = tmp_path / "w.csv"
    assert main(["wigner", "csv:%s" % state, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: state CSV has a header but no data rows\n"


def test_cli_module_runs_as_python_m(tmp_path):
    """`python -m wigner_bounds.cli` runs the CLI, as `python -m
    wigner_bounds` does, instead of importing it and exiting 0."""
    grid = tmp_path / "empty.csv"
    grid.write_text("q,p,w\n")
    src = str(Path(wigner_bounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for module in ("wigner_bounds", "wigner_bounds.cli"):
        ret = subprocess.run(
            [sys.executable, "-m", module, "check", str(grid), disk_json(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert ret.returncode == 2, module
        assert ret.stdout == ""
        assert ret.stderr == "error: Wigner CSV has a header but no data rows\n"


def test_wigner_reads_each_csv_member_once(tmp_path, monkeypatch):
    import wigner_bounds.cli as cli

    first = write_gaussian_state(tmp_path / "a.csv")
    second = write_gaussian_state(tmp_path / "b.csv")
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_state_csv(path)

    monkeypatch.setattr(cli, "read_state_csv", counting_read)
    spec = "mix:0.5 csv:%s + 0.5 csv:%s" % (first, second)
    assert main(["wigner", spec, "--dq", "0.2", "--dp", "0.2", "--out", str(tmp_path / "w.csv")]) == 0
    assert reads == [first, second]


# a two-member mix of analytic states; textbook_wigner writes out the
# Wigner function of each analytic spec without the package's own forms
MIX = "mix:0.3 oscillator:2 + 0.7 coherent:1.5,-0.7"


def textbook_wigner(spec, q, p):
    if spec.startswith("mix:"):
        return 0.3 * textbook_wigner("oscillator:2", q, p) + 0.7 * textbook_wigner("coherent:1.5,-0.7", q, p)
    if spec.startswith("coherent:"):
        q0, p0 = map(float, spec[9:].split(","))
        return np.exp(-((q - q0) ** 2) - (p - p0) ** 2) / math.pi
    n = int(spec[11:])
    r2 = q * q + p * p
    return (-1) ** n * eval_laguerre(n, 2 * r2) * np.exp(-r2) / math.pi


def run_wigner(tmp_path, spec, h, q=(-2.0, 2.0), p=(-1.5, 0.5)):
    out = str(tmp_path / "w.csv")
    argv = ["wigner", spec, "--q-min", repr(q[0]), "--q-max", repr(q[1]), "--dq", repr(h),
            "--p-min", repr(p[0]), "--p-max", repr(p[1]), "--dp", repr(h), "--out", out]
    assert main(argv) == 0
    return read_wigner_csv(out)


@pytest.mark.parametrize("h", [0.025, 0.0125])
def test_wigner_analytic_specs_are_exact_off_the_state_lattice(tmp_path, h):
    """Grid nodes off the 0.01 lattice that wigner used to sample states
    on, where its transform erred by up to 1.2e-5: the written grid is
    the closed form."""
    for spec in ["oscillator:%d" % n for n in range(5)] + ["coherent:1.5,-0.7", MIX]:
        grid = run_wigner(tmp_path, spec, h)
        assert not np.allclose(np.round(grid.qs / 0.01), grid.qs / 0.01, rtol=0.0, atol=1e-6)
        want = textbook_wigner(spec, grid.qs[:, None], grid.ps[None, :])
        assert np.max(np.abs(grid.w - want)) < 1e-13, spec


@pytest.mark.parametrize("h", [0.05, 0.02])
def test_wigner_analytic_specs_match_the_transform_on_the_lattice(tmp_path, h):
    """An independent check of the closed forms: on q nodes of the 0.01
    lattice, the transform of the sampled state is exact to rounding."""
    for spec in ["oscillator:%d" % n for n in range(5)] + ["coherent:1.5,-0.7"]:
        grid = run_wigner(tmp_path, spec, h, q=(-3.0, 3.0), p=(-3.0, 3.0))
        if spec.startswith("coherent:"):
            psi = coherent_state(1.5, -0.7, -12.0, 0.01, 2401)
        else:
            psi = oscillator_state(int(spec[11:]), -12.0, 0.01, 2401)
        want = wigner_transform(psi, grid.qs, grid.ps)
        assert np.max(np.abs(grid.w - want.w)) < 1e-13, spec


def test_wigner_transform_serves_only_csv_members(tmp_path, monkeypatch):
    import wigner_bounds.cli as cli

    calls = []

    def counting_transform(psi, qs, ps):
        calls.append(psi)
        return wigner_transform(psi, qs, ps)

    monkeypatch.setattr(cli, "wigner_transform", counting_transform)
    for spec in ("oscillator:1", "coherent:1.5,-0.7", MIX):
        run_wigner(tmp_path, spec, 0.1)
    assert calls == []

    state = write_gaussian_state(tmp_path / "g.csv")
    grid = run_wigner(tmp_path, "mix:0.5 csv:%s + 0.5 oscillator:1" % state, 0.1)
    assert len(calls) == 1 and calls[0].dx == pytest.approx(0.01) and len(calls[0]) == 1601
    alone = run_wigner(tmp_path, "csv:" + state, 0.1)
    want = 0.5 * alone.w + 0.5 * textbook_wigner("oscillator:1", grid.qs[:, None], grid.ps[None, :])
    assert np.max(np.abs(grid.w - want)) < 1e-15


def test_wigner_high_number_state(tmp_path):
    """e^{-r^2} L_200(2 r^2) used to overflow to nan at |q| = 40."""
    out = str(tmp_path / "w.csv")
    argv = ["wigner", "oscillator:200", "--q-min", "-40", "--q-max", "40", "--p-min", "-1",
            "--p-max", "1", "--dq", "0.5", "--dp", "0.5", "--out", out]
    with np.errstate(over="raise", invalid="raise"):
        assert main(argv) == 0
    grid = read_wigner_csv(out)
    assert grid.w.shape == (161, 5)
    assert np.all(np.isfinite(grid.w)) and np.max(np.abs(grid.w)) <= 1 / math.pi


def whole_grid_csv(path, spec, qs, ps):
    """write_wigner_csv of every member evaluated on the whole grid at
    once and summed in term order, as wigner did before it filled its
    grid in blocks of rows."""
    acc = None
    for weight, kind, params in cli._parse_state(spec):
        if kind == "number":
            n, q0, p0 = params
            w = number_state_wigner(n, qs[:, None] - q0, ps[None, :] - p0)
        else:
            w = wigner_transform(normalize(read_state_csv(params)), qs, ps).w
        acc = weight * w if acc is None else acc + weight * w
    write_wigner_csv(WignerGrid(qs, ps, acc), path)


# (q-min, q-max, dq, fill cells); the p axis is [-4, 4] at 0.05, 161 cells
FILL_LAYOUTS = {
    # 81 rows in one block of 203
    "one-block": (-2.0, 2.0, 0.05, None),
    # 401 rows in blocks of 203: the last block is short
    "short-last-block": (-4.0, 4.0, 0.02, None),
    # a p axis wider than the block: one row per block
    "one-row-blocks": (-1.0, 1.0, 0.05, 100),
}


@pytest.mark.parametrize("layout", sorted(FILL_LAYOUTS))
@pytest.mark.parametrize("spec", ["oscillator:3", "coherent:0.7,-0.4", MIX, "csv-mix"])
def test_wigner_fills_its_grid_in_blocks_bit_for_bit(tmp_path, monkeypatch, layout, spec):
    """The CSV that wigner writes block by block is byte for byte the one
    the whole-grid evaluation writes, at every block edge."""
    q_min, q_max, dq, cells = FILL_LAYOUTS[layout]
    if cells is not None:
        monkeypatch.setattr(cli, "_FILL_CELLS", cells)
    if spec == "csv-mix":
        spec = "mix:0.25 csv:%s + 0.75 oscillator:3" % write_gaussian_state(tmp_path / "g.csv")
    out, want = tmp_path / "w.csv", tmp_path / "want.csv"
    argv = ["wigner", spec, "--q-min", repr(q_min), "--q-max", repr(q_max), "--dq", repr(dq), "--out", str(out)]
    assert main(argv) == 0
    qs = cli._phase_axis(q_min, q_max, dq, "q")
    ps = cli._phase_axis(-4.0, 4.0, 0.05, "p")
    whole_grid_csv(want, spec, qs, ps)
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("existing", [None, b"q,p,w\nan earlier grid\n"], ids=["no-file", "old-file"])
def test_wigner_failure_while_filling_leaves_the_output_as_it_was(tmp_path, monkeypatch, capsys, existing):
    """A member that fails on the second block of rows exits 2 with one
    error line; the file is opened only once the grid is complete, so no
    file appears and an existing one keeps its bytes."""
    calls = []

    def failing(n, q, p):
        calls.append(q.shape)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate 254 KiB for an array")
        return number_state_wigner(n, q, p)

    monkeypatch.setattr(cli, "number_state_wigner", failing)
    out = tmp_path / "w.csv"
    if existing is not None:
        out.write_bytes(existing)
    assert main(["wigner", "oscillator:1", "--dq", "0.01", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: Unable to allocate 254 KiB for an array\n")
    assert len(calls) == 2
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


def test_wigner_holds_one_grid(tmp_path):
    """On a 641 x 641 grid wigner peaks at no more than 1.6 times the
    grid's bytes.  Evaluating each member on the whole grid held its
    Laguerre or exponential temporaries and weight * w beside the sum:
    4.0 times."""
    out = str(tmp_path / "w.csv")
    argv = ["wigner", MIX, "--dq", "0.0125", "--dp", "0.0125", "--out", out]
    assert main(argv) == 0  # first-call imports and caches stay out of the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 641 * 641 * 8, peak / (641 * 641 * 8)


def test_wigner_refuses_negative_number_state(tmp_path, capsys):
    out = tmp_path / "w.csv"
    for spec in ("oscillator:-1", "mix:0.5 oscillator:0 + 0.5 oscillator:-2"):
        assert main(["wigner", spec, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: bad state spec: oscillator:n needs n >= 0\n"


def test_entry_points_run(tmp_path):
    """`python -m` and the declared `wigner-bounds` console script both run.

    An installer turns the `[project.scripts]` entry into a small wrapper
    on PATH. A source checkout has no such file, so the declared entry is
    checked by writing that wrapper here; an installed script, if found on
    PATH, is run as well.  Both children import the package from where
    this process did, so a bare `pytest` in a checkout runs them too.
    """
    src = str(Path(wigner_bounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    ret = subprocess.run(
        [sys.executable, "-m", "wigner_bounds", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert ret.returncode == 0, ret.stderr
    assert re.search(r"^ +bounds ", ret.stdout, re.M), ret.stderr

    tomllib = pytest.importorskip("tomllib" if sys.version_info >= (3, 11) else "tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["wigner-bounds"]
    module, func = value.split(":")
    script = tmp_path / "wigner-bounds"
    script.write_text(
        "import sys\n"
        "from %s import %s\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = 'wigner-bounds'\n"
        "    sys.exit(%s())\n" % (module, func, func)
    )
    ret = subprocess.run(
        [sys.executable, str(script), "--help"], capture_output=True, text=True, env=env,
    )
    assert ret.returncode == 0, ret.stderr
    assert ret.stdout.startswith("usage: wigner-bounds "), ret.stderr
    assert re.search(r"^ +bounds ", ret.stdout, re.M), ret.stderr

    installed = shutil.which("wigner-bounds")
    if installed is not None:
        ret = subprocess.run([installed, "--help"], capture_output=True, text=True)
        assert ret.returncode == 0, ret.stderr
