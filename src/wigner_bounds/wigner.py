"""Wigner functions on phase-plane grids.

The transform of a sampled wavefunction,

    W(q, p) = (1/pi) int psi*(q+x) psi(q-x) exp(2 i p x) dx,

is evaluated as a Riemann sum over offsets x on the wavefunction's own
grid, with linear interpolation of psi at q +- x and the integrand
zeroed where either point leaves the sampled support.  The offsets and
that truncation are symmetric in x, so the integrand
f(x) = psi*(q+x) psi(q-x) obeys f(-x) = conj f(x) bit for bit, and the
sum is taken over x >= 0 alone:

    W = (dx/pi) [f(0) + 2 sum_{x>0} (Re f cos 2px - Im f sin 2px)],

two real matrix products against cos and sin tables, real by
construction.

Also here: the closed-form number-state Wigner functions, the two
integral identities (total mass 1, purity 1/(2 pi)), the region
functional Q_S, and a report on the pointwise bounds +-1/pi.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .regions import Region, bounding_box, indicator
from .specfun import laguerre_poly
from .states import Ensemble, WavefunctionGrid, _read_csv

__all__ = [
    "BoundReport",
    "Identities",
    "WignerGrid",
    "integral_identities",
    "mixed_wigner",
    "number_state_wigner",
    "pointwise_bound_report",
    "quasiprobability",
    "read_wigner_csv",
    "wigner_transform",
    "write_wigner_csv",
]


def _uniform_step(xs: np.ndarray, label: str) -> float:
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError("%s must hold at least two points" % label)
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    if step <= 0 or np.max(np.abs(np.diff(xs) - step)) > 1e-9 * step:
        raise ValueError("%s must be uniformly increasing" % label)
    return float(step)


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Real samples W(qs[i], ps[j]) on a uniform rectangular grid."""

    qs: np.ndarray
    ps: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        qs = np.asarray(self.qs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        w = np.asarray(self.w, dtype=float)
        _uniform_step(qs, "qs")
        _uniform_step(ps, "ps")
        if w.shape != (qs.size, ps.size):
            raise ValueError("w must have shape (len(qs), len(ps))")
        for arr in (qs, ps, w):
            arr.setflags(write=False)
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "w", w)

    @property
    def dq(self) -> float:
        return float((self.qs[-1] - self.qs[0]) / (self.qs.size - 1))

    @property
    def dp(self) -> float:
        return float((self.ps[-1] - self.ps[0]) / (self.ps.size - 1))


def wigner_transform(psi: WavefunctionGrid, qs, ps) -> WignerGrid:
    """Wigner function of psi on the requested q, p grid.

    Every q must lie inside psi's sampled support.  psi is assumed
    normalized; nothing rescales the output.
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    xs = psi.xs
    dx = psi.dx
    lo, hi = xs[0] - 1e-9 * dx, xs[-1] + 1e-9 * dx
    if np.any(qs < lo) or np.any(qs > hi):
        raise ValueError("q outside wavefunction support")

    offs = dx * np.arange(len(psi))
    fr = np.empty((qs.size, offs.size))
    fi = np.empty((qs.size, offs.size))
    for i, q in enumerate(qs):
        xp = q + offs
        xm = q - offs
        inside = (xp >= lo) & (xp <= hi) & (xm >= lo) & (xm <= hi)
        vp = np.interp(xp, xs, psi.values)
        vm = np.interp(xm, xs, psi.values)
        f = np.where(inside, np.conj(vp) * vm, 0.0)
        fr[i] = f.real
        fi[i] = f.imag
    # the x < 0 half of the sum is the conjugate of the x > 0 half
    fr[:, 1:] *= 2.0
    fi[:, 1:] *= 2.0
    arg = 2.0 * np.outer(offs, ps)
    w = fr @ np.cos(arg)
    w -= fi @ np.sin(arg)
    w *= dx / np.pi
    return WignerGrid(qs.copy(), ps.copy(), w)


def number_state_wigner(n: int, q, p):
    """Closed form W_n(q,p) = (-1)^n pi^{-1} L_n(2[q^2+p^2]) e^{-(q^2+p^2)}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    r2 = q * q + p * p
    out = ((-1) ** n / np.pi) * laguerre_poly(n, 2.0 * r2) * np.exp(-r2)
    out = np.asarray(out)
    return out if out.ndim else float(out)


def mixed_wigner(ens: Ensemble, qs, ps) -> WignerGrid:
    """Convex combination of the members' Wigner functions."""
    acc = None
    for weight, member in zip(ens.weights, ens.members):
        grid = wigner_transform(member, qs, ps)
        acc = weight * grid.w if acc is None else acc + weight * grid.w
    return WignerGrid(np.asarray(qs, dtype=float).copy(), np.asarray(ps, dtype=float).copy(), acc)


class Identities(NamedTuple):
    total: float
    purity: float


def integral_identities(w: WignerGrid) -> Identities:
    """Riemann sums of W and W^2; expect 1 and 1/(2 pi) for a pure state."""
    cell = w.dq * w.dp
    return Identities(
        total=float(np.sum(w.w) * cell),
        purity=float(np.sum(w.w**2) * cell),
    )


def quasiprobability(w: WignerGrid, s: Region) -> float:
    """Q_S, the Wigner mass inside s, by the midpoint rule on w's cells.

    Cells are centered on the grid points.  s must lie inside the
    rectangle the cells cover; a region that sticks out past it is
    refused, not truncated.
    """
    qlo = w.qs[0] - 0.5 * w.dq
    qhi = w.qs[-1] + 0.5 * w.dq
    plo = w.ps[0] - 0.5 * w.dp
    phi = w.ps[-1] + 0.5 * w.dp
    bq0, bq1, bp0, bp1 = bounding_box(s)
    overhang = max(qlo - bq0, bq1 - qhi, plo - bp0, bp1 - phi, 0.0)
    if overhang > 0.0:
        raise ValueError("uncovered region: extends %.3g beyond the grid" % overhang)
    ind = indicator(s, w.qs[:, None], w.ps[None, :])
    return float(np.sum(w.w * ind) * w.dq * w.dp)


class BoundReport(NamedTuple):
    wmin: float
    wmax: float
    ok: bool


def pointwise_bound_report(w: WignerGrid, allowance: float = 0.0) -> BoundReport:
    """Extrema of the grid against the sharp pointwise bounds +-1/pi.

    The verdict tolerates 1e-6 plus whatever discretization allowance the
    caller supplies.
    """
    wmin = float(np.min(w.w))
    wmax = float(np.max(w.w))
    tol = 1e-6 + allowance
    bound = 1.0 / np.pi
    return BoundReport(wmin, wmax, wmin >= -bound - tol and wmax <= bound + tol)


def write_wigner_csv(w: WignerGrid, path) -> None:
    """Row-major CSV q,p,w with full float precision (round-trips exactly).

    Each line is "%.17g,%.17g,%.17g" of q, p, w.  The p cells are
    formatted once into a row template; each q row fills in its q and
    its w cells and is written in one call.
    """
    template = "".join("{q},%.17g,%%.17g\n" % p for p in w.ps.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("q,p,w\n")
        for q, row in zip(w.qs.tolist(), w.w):
            fh.write(template.replace("{q}", "%.17g" % q) % tuple(row.tolist()))


def read_wigner_csv(path) -> WignerGrid:
    """Inverse of write_wigner_csv; enforces the uniform row-major layout
    and finite cells."""
    data = _read_csv(path, "Wigner", "q,p,w")
    if data.shape[0] < 4 or data.shape[1] != 3:
        raise ValueError("Wigner CSV needs at least a 2x2 grid of q,p,w rows")
    qcol, pcol, wcol = data.T
    np_count = int(np.argmax(qcol != qcol[0])) if np.any(qcol != qcol[0]) else 0
    if np_count < 2 or data.shape[0] % np_count:
        raise ValueError("Wigner CSV rows do not form a row-major grid")
    nq = data.shape[0] // np_count
    qs = qcol[::np_count]
    ps = pcol[:np_count]
    dq = _uniform_step(qs, "q column")
    dp = _uniform_step(ps, "p column")
    if (
        np.max(np.abs(qcol.reshape(nq, np_count) - qs[:, None])) > 1e-9 * dq
        or np.max(np.abs(pcol.reshape(nq, np_count) - ps[None, :])) > 1e-9 * dp
    ):
        raise ValueError("Wigner CSV rows do not form a row-major grid")
    return WignerGrid(qs.copy(), ps.copy(), wcol.reshape(nq, np_count).copy())
