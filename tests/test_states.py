"""Sampled wavefunctions, mixtures and the state CSV reader."""
import numpy as np
import pytest

from wigner_bounds import (
    Ensemble,
    WavefunctionGrid,
    coherent_state,
    normalize,
    oscillator_state,
    read_state_csv,
    write_state_csv,
)


def test_grid_properties():
    psi = WavefunctionGrid(-1.0, 0.5, np.array([1.0, 2.0, 3.0], dtype=complex))
    assert len(psi) == 3
    assert psi.xmax == 0.0
    assert np.allclose(psi.xs, [-1.0, -0.5, 0.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        WavefunctionGrid(0.0, -0.1, np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        WavefunctionGrid(0.0, 0.1, np.zeros((2, 2), dtype=complex))


def test_oscillator_states_normalized():
    for n in range(8):
        assert abs(oscillator_state(n).norm() - 1.0) < 1e-8


def test_oscillator_needs_support():
    with pytest.raises(ValueError, match="insufficient support"):
        oscillator_state(8)  # classical turning point plus tail passes x = 8
    oscillator_state(8, -9.0, 0.01, 1801)


def test_normalize():
    psi = WavefunctionGrid(-1.0, 0.1, np.full(21, 2.0 + 0j))
    assert abs(normalize(psi).norm() - 1.0) < 1e-12
    zero = WavefunctionGrid(-1.0, 0.1, np.zeros(21, dtype=complex))
    with pytest.raises(ValueError, match="degenerate state"):
        normalize(zero)


def test_coherent_state_profile():
    psi = coherent_state(1.0, 0.0, -9.0, 0.005, 3601)
    assert abs(psi.norm() - 1.0) < 1e-9
    peak = psi.xs[np.argmax(np.abs(psi.values))]
    assert abs(peak - 1.0) < 0.01
    with pytest.raises(ValueError, match="insufficient support"):
        coherent_state(4.0, 0.0)  # the default grid stops at q = 8, not 12


def test_coherent_momentum_phase():
    psi = coherent_state(0.0, 2.0)
    idx = np.argmin(np.abs(psi.xs - 0.25))
    expect = np.pi**-0.25 * np.exp(-0.5 * 0.25**2 + 2j * 0.25)
    assert abs(psi.values[idx] - expect) < 1e-12


def test_ensemble_validation():
    a = oscillator_state(0)
    b = oscillator_state(1)
    Ensemble(np.array([0.5, 0.5]), (a, b))
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.6]), (a, b))
    with pytest.raises(ValueError):
        Ensemble(np.array([1.5, -0.5]), (a, b))
    short = WavefunctionGrid(a.x0, a.dx, a.values[:-1])
    with pytest.raises(ValueError):
        Ensemble(np.array([0.5, 0.5]), (a, short))


def test_state_csv_round_trip(tmp_path):
    path = tmp_path / "state.csv"
    xs = -2.0 + 0.25 * np.arange(17)
    vals = np.exp(-(xs**2) / 2 + 0.3j * xs)
    with open(path, "w") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(xs, vals):
            fh.write("%.17g,%.17g,%.17g\n" % (x, v.real, v.imag))
    psi = read_state_csv(path)
    assert psi.x0 == -2.0
    assert abs(psi.dx - 0.25) < 1e-12
    assert np.allclose(psi.values, vals, atol=0, rtol=0)

    back = tmp_path / "back.csv"
    write_state_csv(psi, back)
    again = read_state_csv(back)
    assert again.x0 == psi.x0 and again.dx == psi.dx
    assert np.array_equal(again.values, psi.values)


def test_state_csv_rejects_ragged_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n0,1,0\n0.1,1,0\n0.25,1,0\n")
    with pytest.raises(ValueError):
        read_state_csv(path)


def test_state_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("q,re,im\n0,1,0\n0.1,1,0\n")
    with pytest.raises(ValueError):
        read_state_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_state_csv_rejects_non_finite_cells(tmp_path, column, bad):
    rows = [[-0.2 + 0.1 * k, 0.5, 0.0] for k in range(5)]
    cells = ["%.17g" % v for v in rows[2]]
    cells[column] = bad
    lines = ["%.17g,%.17g,%.17g" % tuple(r) for r in rows]
    lines[2] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("x,re,im\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="state CSV data row 3 is not finite"):
        read_state_csv(path)
