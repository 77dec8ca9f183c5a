"""Wavefunctions sampled on uniform position grids, and mixtures of them."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import oscillator_fn

__all__ = [
    "DEFAULT_COUNT",
    "DEFAULT_DX",
    "DEFAULT_X0",
    "Ensemble",
    "WavefunctionGrid",
    "coherent_state",
    "normalize",
    "oscillator_state",
    "read_state_csv",
]

# default position grid: [-8, 8] at dx = 0.005; fine enough that
# kernel quadrature against these samples stays below 1e-4
DEFAULT_X0 = -8.0
DEFAULT_DX = 0.005
DEFAULT_COUNT = 3201


@dataclass(frozen=True, eq=False)
class WavefunctionGrid:
    """Complex samples psi(x0 + k dx), k = 0..len-1."""

    x0: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "x0", float(self.x0))
        object.__setattr__(self, "dx", float(self.dx))

    def __len__(self) -> int:
        return self.values.size

    @property
    def xs(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.values.size)

    @property
    def xmax(self) -> float:
        return self.x0 + self.dx * (self.values.size - 1)

    def norm(self) -> float:
        """Riemann-sum L2 norm, sqrt(sum |psi|^2 dx)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.dx))


def normalize(psi: WavefunctionGrid) -> WavefunctionGrid:
    """Rescale to unit Riemann-sum norm."""
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValueError("degenerate state: zero norm on this grid")
    return WavefunctionGrid(psi.x0, psi.dx, psi.values / nrm)


def oscillator_state(
    n: int,
    x0: float = DEFAULT_X0,
    dx: float = DEFAULT_DX,
    count: int = DEFAULT_COUNT,
) -> WavefunctionGrid:
    """Number state n sampled on a uniform grid.

    The grid must span [-(sqrt(2n+1)+4), sqrt(2n+1)+4] so that the
    classically allowed region plus four units of Gaussian tail fit; the
    sampled values then carry unit norm to better than 1e-8.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    reach = np.sqrt(2.0 * n + 1.0) + 4.0
    xmax = x0 + dx * (count - 1)
    if x0 > -reach or xmax < reach:
        raise ValueError(
            "insufficient support: grid [%g, %g] must span [-%g, %g]"
            % (x0, xmax, reach, reach)
        )
    xs = x0 + dx * np.arange(count)
    return WavefunctionGrid(x0, dx, oscillator_fn(n, xs).astype(complex))


def coherent_state(
    q0: float,
    p0: float,
    x0: float = DEFAULT_X0,
    dx: float = DEFAULT_DX,
    count: int = DEFAULT_COUNT,
) -> WavefunctionGrid:
    """Coherent state pi^{-1/4} exp(-(x-q0)^2/2 + i p0 x).

    The grid must cover q0 +- 8.  Oscillations go as exp(i p0 x); keep
    dx well below 1/|p0| or the samples alias.
    """
    xmax = x0 + dx * (count - 1)
    if x0 > q0 - 8.0 or xmax < q0 + 8.0:
        raise ValueError(
            "insufficient support: grid [%g, %g] must cover [%g, %g]"
            % (x0, xmax, q0 - 8.0, q0 + 8.0)
        )
    xs = x0 + dx * np.arange(count)
    values = np.pi ** -0.25 * np.exp(-0.5 * (xs - q0) ** 2 + 1j * p0 * xs)
    return WavefunctionGrid(x0, dx, values)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Convex mixture of pure states sharing one grid."""

    weights: np.ndarray
    members: tuple[WavefunctionGrid, ...]

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        members = tuple(self.members)
        if weights.ndim != 1 or weights.size != len(members) or not members:
            raise ValueError("weights and members must have equal nonzero length")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")
        first = members[0]
        for m in members[1:]:
            if m.x0 != first.x0 or m.dx != first.dx or len(m) != len(first):
                raise ValueError("ensemble members must share one grid")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)


def write_state_csv(psi: WavefunctionGrid, path) -> None:
    """CSV x,re,im with full float precision (round-trips exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(psi.xs, psi.values):
            fh.write("%.17g,%.17g,%.17g\n" % (x, v.real, v.imag))


def _read_csv(path, kind: str, columns: str) -> np.ndarray:
    """The data rows of a numeric CSV whose header is columns, e.g. "x,re,im".

    Every cell must be finite; kind ("state", "Wigner") names the file
    in the messages.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != columns.split(","):
            raise ValueError("%s CSV must start with header %s" % (kind, columns))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            "%s CSV data row %d is not finite: %s"
            % (kind, k + 1, ",".join(repr(float(v)) for v in data[k]))
        )
    return data


def read_state_csv(path) -> WavefunctionGrid:
    """Read a wavefunction from CSV with header x,re,im.

    Every cell must be finite, and the x column uniformly spaced to
    within 1e-9 relative to its mean step.
    """
    data = _read_csv(path, "state", "x,re,im")
    if data.shape[0] < 2 or data.shape[1] != 3:
        raise ValueError("state CSV needs at least two x,re,im rows")
    xs = data[:, 0]
    dx = (xs[-1] - xs[0]) / (xs.size - 1)
    if dx <= 0 or np.max(np.abs(np.diff(xs) - dx)) > 1e-9 * dx:
        raise ValueError("state CSV x column must be uniformly spaced")
    return WavefunctionGrid(xs[0], dx, data[:, 1] + 1j * data[:, 2])
