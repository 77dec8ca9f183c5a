"""Wavefunctions sampled on uniform position grids, and the CSV parse that
state and Wigner grid files share."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WavefunctionGrid",
    "normalize",
    "read_state_csv",
]


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


def _uniform_step(xs: np.ndarray, label: str) -> float:
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("%s must hold at least two points" % label)
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    if step <= 0 or np.max(np.abs(np.diff(xs) - step)) > 1e-9 * step:
        raise ValueError("%s must be uniformly increasing" % label)
    return float(step)


def _read_csv(path, kind: str, columns: str) -> np.ndarray:
    """The data rows of a numeric CSV whose header is columns, e.g. "x,re,im".

    Every cell must be finite; kind ("state", "Wigner") names the file
    in the messages.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != columns.split(","):
            raise ValueError("%s CSV must start with header %s" % (kind, columns))
        # find the first data row (loadtxt skips blank and # lines, and
        # only warns when none is left), then parse from there
        start = fh.tell()
        if not any(line.split("#")[0].strip() for line in iter(fh.readline, "")):
            raise ValueError("%s CSV has a header but no data rows" % kind)
        fh.seek(start)
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

    Every cell must be finite, and the x column uniformly increasing to
    within 1e-9 relative to its mean step.
    """
    data = _read_csv(path, "state", "x,re,im")
    if data.shape[0] < 2 or data.shape[1] != 3:
        raise ValueError("state CSV needs at least two x,re,im rows")
    dx = _uniform_step(data[:, 0], "state CSV x column")
    return WavefunctionGrid(data[0, 0], dx, data[:, 1] + 1j * data[:, 2])
