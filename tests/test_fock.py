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
    WavefunctionGrid,
    area,
    bounding_box,
    fock_extremes,
    quadrature,
    rings_envelope,
)
from wigner_bounds.cli import main
from wigner_bounds.specfun import cross_wigner_matrix
from oracle import apply_kernel, assemble
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


@pytest.mark.parametrize(
    "region, exact",
    [
        (Disk((0.7, -0.4), 1.0), rings_envelope([(0.0, 1.0)])),
        (Disk((-1.1, 0.6), 1.7), rings_envelope([(0.0, 1.7)])),
        (Annulus((0.3, 0.2), 0.5, 1.5), rings_envelope([(0.5, 1.5)])),
        (Annulus((-0.5, 0.8), 1.0, 2.0), rings_envelope([(1.0, 2.0)])),
        (Ellipse((0.3, -0.6), 2.0, 0.5, 0.8), rings_envelope([(0.0, 1.0)])),
        (Ellipse((-0.2, 0.4), 1.8, 1.1, 2.3), rings_envelope([(0.0, math.sqrt(1.8 * 1.1))])),
    ],
)
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


def test_fock_eigenvectors_satisfy_the_kernel():
    """psi_min/psi_max are eigenfunctions of the position-space kernel,
    not of its complex conjugate: a Riemann sum of K_S psi at dx = 0.04
    returns lambda psi up to that sum's own error."""
    for region in (QUADRILATERAL, UNION):
        res = fock_extremes(region)
        for lam, psi in ((res.lambda_min, res.psi_min), (res.lambda_max, res.psi_max)):
            assert abs(psi.norm() - 1.0) < 1e-9
            keep = np.abs(psi.xs - 0.2) < 7.0
            coarse = WavefunctionGrid(float(psi.xs[keep][0]), 4 * psi.dx, psi.values[keep][::4])
            out = apply_kernel(region, coarse)
            resid = math.sqrt(float(np.sum(np.abs(out.values - lam * coarse.values) ** 2)) * coarse.dx)
            assert resid < 5e-3
            flipped = apply_kernel(region, WavefunctionGrid(coarse.x0, coarse.dx, coarse.values.conj()))
            wrong = flipped.values - lam * coarse.values.conj()
            assert math.sqrt(float(np.sum(np.abs(wrong) ** 2)) * coarse.dx) > 10 * resid


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
    # it settles near 105 states; with a cap of 64 it must raise, and
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
