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

Number states skip the transform: number_state_wigner evaluates their
closed form at any (q, p), exact to rounding where the transform interpolates.
At (q - q0, p - p0), n = 0 is the coherent state, the displaced vacuum.
Also here: the region functional Q_S of a grid (the integral of its
bilinear interpolant, taken around the region's boundary by Green's
theorem, as the Fock route takes its matrix).  The integral identities
(total mass 1, purity 1/(2 pi)) and the pointwise bounds +-1/pi, which
only tests check, are in tests/oracle.py.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .regions import Region, boundary_rule, bounding_box
from .specfun import _laguerre_terms
from .states import WavefunctionGrid, _read_csv, _uniform_step

__all__ = [
    "WignerGrid",
    "number_state_wigner",
    "quasiprobability",
    "read_wigner_csv",
    "wigner_transform",
    "write_wigner_csv",
]

# quasiprobability's boundary nodes per grid step of boundary length: F
# has kinks at the grid lines, so uniform angles converge like this
# density to the -2 (the ground state's mass on a disk of radius 5 at
# dq = dp = 0.05 erred by 5.1e-6 at 4, 1.2e-6 at 8 and 2.0e-7 at 16)
_NODES_PER_STEP = 16.0


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
    """Closed form W_n(q,p) = (-1)^n pi^{-1} e^{-x/2} L_n(x), x = 2 (q^2 + p^2).

    e^{-x/2} L_n(x) is term n of specfun._laguerre_terms, finite at any
    (q, p).  q and p are clipped to +-1e49, past which W_n is zero to any
    precision, so x < 1e99 stays within that sweep's reach.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    q, p = (np.clip(np.asarray(v, dtype=float), -1e49, 1e49) for v in (q, p))
    x = q * q + p * p
    x *= 2.0  # in place: the sweep then holds x and its three terms alone
    term = next(itertools.islice(_laguerre_terms(x), n, None))
    term *= (-1) ** n / np.pi
    return term if term.ndim else float(term)


def quasiprobability(w: WignerGrid, s: Region) -> float:
    """Q_S, the integral over s of w's bilinear interpolant, by Green's theorem.

    With F(q, p) the integral of the interpolant along q from qs[0],

        Q_S = integral over s of W dq dp = line integral of F dp around s,

    summed over boundary_rule(s, _NODES_PER_STEP / min(dq, dp)).  Along
    q, F is the trapezoid cumsum of the grid to the node's cell plus the
    exact integral within it, dq (t W_i + t^2/2 (W_{i+1} - W_i)) at
    offset t; across p it is linear between the two grid columns.  The
    cumsum is built only over the columns the nodes touch and the rows
    up to the last one they touch.  Its lower limit qs[0] does not depend
    on s, so the mass of a disjoint union is the sum of its parts' masses
    to rounding.  On the exact grids of the extreme eigenstates of disks
    of radius 1 to 3.5, at dq = dp from 0.1 to 0.01, |Q_S - lambda|
    stayed below 0.23 (2 dq dp), under a quarter of check's margin.
    s must lie inside the rectangle the grid spans,
    [qs[0], qs[-1]] x [ps[0], ps[-1]]; a region that sticks out past it
    is refused, not truncated.  Cells near the float limit can overflow
    the sums; Q is then inf or NaN, without a numpy warning.
    """
    bq0, bq1, bp0, bp1 = bounding_box(s)
    overhang = max(w.qs[0] - bq0, bq1 - w.qs[-1], w.ps[0] - bp0, bp1 - w.ps[-1], 0.0)
    if overhang > 0.0:
        raise ValueError("uncovered region: extends %.3g beyond the grid" % overhang)
    q, p, _, dp = boundary_rule(s, _NODES_PER_STEP / min(w.dq, w.dp))
    # each node's cell (i, j) and its offsets t, u in [0, 1] within it
    t = (q - w.qs[0]) / w.dq
    i = np.clip(np.floor(t), 0, w.qs.size - 2).astype(np.intp)
    t -= i
    u = (p - w.ps[0]) / w.dp
    j = np.clip(np.floor(u), 0, w.ps.size - 2).astype(np.intp)
    u -= j
    j0 = int(j.min())
    block = w.w[: int(i.max()) + 2, j0 : int(j.max()) + 2]
    j -= j0
    # cells near the float limit overflow these sums; the caller sees a
    # non-finite Q, and numpy stays silent
    with np.errstate(over="ignore", invalid="ignore"):
        # twice the trapezoid cumsum along q, per column
        c = np.empty(block.shape)
        c[0] = 0.0
        np.add(block[:-1], block[1:], out=c[1:])
        np.cumsum(c, axis=0, out=c)
        # F / dq at each node, linear in p between columns j and j + 1
        f = 0.0
        for col, weight in ((j, 1.0 - u), (j + 1, u)):
            lo, hi = block[i, col], block[i + 1, col]
            f = f + weight * (0.5 * c[i, col] + t * (lo + 0.5 * t * (hi - lo)))
        return float(np.dot(f, dp) * w.dq)


def write_wigner_csv(w: WignerGrid, path) -> None:
    """Row-major CSV q,p,w with full float precision (round-trips exactly).

    Each line is "%.17g,%.17g,%.17g" of q, p, w.  The p cells are
    formatted once into a row template, split at its q slots; each q row
    joins its q text into the slots, fills in its w cells and is written
    in one call.
    """
    parts = "".join("{q},%.17g,%%.17g\n" % p for p in w.ps.tolist()).split("{q}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("q,p,w\n")
        for q, row in zip(w.qs.tolist(), w.w):
            fh.write(("%.17g" % q).join(parts) % tuple(row.tolist()))


# the regular read holds q and p as bytes of this width (a "%.17g" text
# has at most 24 characters) and parses whole rows of about this many
# lines at a time, which keeps its peak memory on a 641 x 641 grid below
# the full parse's
_TEXT_WIDTH = 25
_BLOCK_ROWS = 1 << 13
_CELLS = np.dtype([("q", "S%d" % _TEXT_WIDTH), ("p", "S%d" % _TEXT_WIDTH), ("w", float)])


def read_wigner_csv(path) -> WignerGrid:
    """Inverse of write_wigner_csv; enforces the uniform row-major layout
    and finite cells.

    A text-regular file is read without parsing every coordinate cell.
    It is text-regular when each q text repeats unchanged along its row
    of k lines and every row's p texts are byte for byte the first row's,
    as write_wigner_csv and np.savetxt write them.  The first row is the
    lines that share the first line's q text.  Such a file is tokenized
    in blocks of whole rows, as many as fit in _BLOCK_ROWS lines and at
    least one, q and p kept as text and w parsed, and checked row by
    row.  Each block's w cells go straight into one array, sized from
    the file's line count, so the working memory stays one block beyond
    the grid.  Then only the nq + k distinct coordinate texts go through
    the same float parser.  Every other file is read again from the
    start by the full parse, which parses every cell and decides the
    grid or the error: comment lines, blank lines, lines ended by a lone
    carriage return, coordinates spelled differently in different rows
    ("-4" and "-4.0"), a coordinate of _TEXT_WIDTH or more characters,
    NUL or non-Latin-1 characters, non-finite cells, a block that is not
    whole rows, a ragged or irregular grid, and any parse or layout
    error on the way.
    Text-equal coordinates pass the full parse's 1e-9 row-major check
    exactly, so both reads give the same grid bit for bit.
    """
    try:
        grid = _read_regular(path)
    except ValueError:
        # loadtxt, the decoder and WignerGrid raise ValueError; an OSError
        # would recur in the full parse
        grid = None
    return grid if grid is not None else _read_full(path)


def _read_regular(path) -> WignerGrid | None:
    """The grid of a text-regular file, or None to read it in full."""
    with open(path, "rb") as raw:
        # bytes fields drop trailing NULs, which the full parse refuses;
        # the line count sizes w, a last line without "\n" included
        lines, last = 0, b"\n"
        for chunk in iter(lambda: raw.read(1 << 16), b""):
            if b"\0" in chunk:
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    with open(path, "r", encoding="utf-8") as fh:
        if [c.strip() for c in fh.readline().split(",")] != ["q", "p", "w"]:
            return None
        w = np.empty(lines - (last == b"\n"))
        # the first row: the k lines that share the first line's text before
        # its first comma, which loadtxt keeps as the "q" field
        start = fh.tell()
        q0 = fh.readline().partition(",")[0]
        k = 1
        while (line := fh.readline()) and line.partition(",")[0] == q0:
            k += 1
        if k < 2:
            return None
        fh.seek(start)
        size = max(1, _BLOCK_ROWS // k) * k
        filled, qtexts, ptexts = 0, [], None
        while first := fh.readline():
            # loadtxt warns on a block with no data, which a blank line
            # could start; it skips blank lines inside a block, as the full
            # parse does
            if not first.strip():
                return None
            block = itertools.chain([first], itertools.islice(fh, size - 1))
            cells = np.loadtxt(block, dtype=_CELLS, delimiter=",", comments=None, ndmin=1)
            # a block must be whole rows; more cells than "\n" means a
            # lone "\r" ended a line
            if cells.size % k or filled + cells.size > w.size:
                return None
            rows = cells.reshape(-1, k)
            if ptexts is None:
                ptexts = rows["p"][0].copy()
            if np.any(rows["q"] != rows["q"][:, :1]) or np.any(rows["p"] != ptexts):
                return None
            w[filled : filled + cells.size] = cells["w"]
            filled += cells.size
            qtexts.append(rows["q"][:, 0].copy())
    # fewer cells than lines: loadtxt skipped blank lines
    if filled != w.size:
        return None
    texts = np.concatenate(qtexts + [ptexts])
    widths = np.char.str_len(texts)
    if widths.min() == 0 or widths.max() >= _TEXT_WIDTH:
        return None
    coords = np.loadtxt(texts, delimiter=",", comments=None, ndmin=1)
    if not (np.isfinite(coords).all() and np.isfinite(w).all()):
        return None
    # WignerGrid refuses axes that are not uniformly increasing, so the
    # row length k is the full read's too
    return WignerGrid(coords[:-k], coords[-k:], w.reshape(-1, k))


def _read_full(path) -> WignerGrid:
    """read_wigner_csv for any file: every cell parsed, every check numeric."""
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
