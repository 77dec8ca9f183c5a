"""Command-line front end.

Four subcommands:

    bounds  REGION.json       sharp bounds on the integral of any Wigner
                              function over the region
    curves  [--a-min ...]     eigenvalue curves and envelopes of the
                              centered disk family, TSV on stdout
    wigner  STATE --out CSV   Wigner function of a state on a phase grid
    check   CSV REGION.json   test a measured quasiprobability grid
                              against the region's bounds

Each subcommand parses its flags, calls the library and prints; route
choice for bounds and check lives in spectra.bounds.  wigner writes
oscillator:n and coherent:q0,p0 states, and mix: terms of them, from
the closed form of a displaced number state (a coherent state is the
displaced vacuum); wigner_transform serves only csv: members.

main(argv) may be called any number of times in one process, as
perfbench/run.py and the tests do.  It builds its argument parser on
the first call and parses every later argv with that same parser, which
keeps no state between calls; build_parser() still returns a fresh one.
Each call then looks up cmd_<subcommand> on this module.

Exit codes: 0 success (check: within bounds), 1 bound violation, 2
usage, data or out-of-memory error.  Report numbers carry 9 significant
digits; grid and curve data files carry full precision so they round-trip.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .regions import area, load_region
from .spectra import bounds, disk_curves
from .states import normalize, read_state_csv
from .wigner import (
    WignerGrid,
    number_state_wigner,
    quasiprobability,
    read_wigner_csv,
    wigner_transform,
    write_wigner_csv,
)

__all__ = [
    "cmd_bounds",
    "cmd_check",
    "cmd_curves",
    "cmd_wigner",
    "entrypoint",
    "main",
]

def _fmt(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0 and leaves every other value alone
    return "%.9g" % (float(x) + 0.0)


def cmd_bounds(args) -> int:
    if args.ignored_lo_hi is not None:
        print("warning: --window is ignored: no route uses a window", file=sys.stderr)
    res = bounds(load_region(args.region), args.method)
    line = "lambda_min=%s lambda_max=%s method=%s" % (
        _fmt(res.lambda_min),
        _fmt(res.lambda_max),
        res.method,
    )
    if res.method == "fock":
        line += " basis=%d error=%s" % (res.basis_size, _fmt(res.error_estimate))
    print(line)
    return 0


def cmd_curves(args) -> int:
    if not (0 <= args.a_min < args.a_max < math.inf) or args.steps < 2:
        raise ValueError("need 0 <= a-min < a-max < inf and steps >= 2")
    if args.n_max < 0:
        raise ValueError("n-max must be nonnegative")
    grid = np.linspace(args.a_min, args.a_max, args.steps)
    table, envelopes = disk_curves(grid, args.n_max)
    header = ["a"]
    header += ["lambda%d" % n for n in range(args.n_max + 1)]
    header += ["lambda_min", "lambda_max", "n_min"]
    row = "\t".join(["%.17g"] * (args.n_max + 4) + ["%d"])
    lines = ["\t".join(header)]
    lines += [
        row % (a, *curves, env.lambda_min, env.lambda_max, env.n_min)
        for a, curves, env in zip(grid.tolist(), table.tolist(), envelopes)
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _split_state(spec: str) -> tuple[str, object]:
    kind, _, rest = spec.partition(":")
    if kind == "oscillator":
        try:
            n = int(rest)
        except ValueError:
            raise ValueError("bad state spec: oscillator:n needs an integer") from None
        if n < 0:
            raise ValueError("bad state spec: oscillator:n needs n >= 0")
        return "number", (n, 0.0, 0.0)
    if kind == "coherent":
        try:
            q0, p0 = map(float, rest.split(","))
            if not (math.isfinite(q0) and math.isfinite(p0)):
                raise ValueError
        except ValueError:
            raise ValueError("bad state spec: coherent:q0,p0 needs two finite numbers") from None
        return "number", (0, q0, p0)
    if kind == "csv":
        if not rest:
            raise ValueError("bad state spec: csv: needs a path")
        return kind, rest
    raise ValueError(
        "bad state spec: %r (want oscillator:n, coherent:q0,p0, csv:path or mix:...)"
        % spec
    )


def _parse_state(spec: str) -> list[tuple[float, str, object]]:
    """(weight, "number", (n, q0, p0)) or (weight, "csv", path) for each member of a state spec.

    mix syntax is 'mix:W SPEC + W SPEC + ...', e.g.
    'mix:0.5 oscillator:0 + 0.5 oscillator:1'; the weights must be
    positive and sum to 1 within 1e-10.  Any other spec is one member of
    weight 1.
    """
    if not spec.startswith("mix:"):
        return [(1.0, *_split_state(spec))]
    terms = []
    for chunk in spec[4:].split("+"):
        halves = chunk.strip().split(None, 1)
        if len(halves) != 2:
            raise ValueError("bad state spec: mix terms look like '0.5 oscillator:1'")
        try:
            weight = float(halves[0])
        except ValueError:
            raise ValueError("bad state spec: mix weight %r" % halves[0]) from None
        if halves[1].startswith("mix:"):
            raise ValueError("bad state spec: mix terms cannot nest")
        terms.append((weight, *_split_state(halves[1].strip())))
    weights = [w for w, _, _ in terms]
    # phrased so that NaN fails each check
    if not all(w > 0.0 for w in weights):
        raise ValueError("bad state spec: mix weights must be positive")
    if not abs(math.fsum(weights) - 1.0) <= 1e-10:
        raise ValueError("bad state spec: mix weights must sum to 1")
    return terms


def _phase_axis(lo: float, hi: float, step: float, label: str) -> np.ndarray:
    # NaN fails every comparison; an infinite bound makes the span infinite
    if not (0 < step < math.inf and lo < hi and math.isfinite((hi - lo) / step)):
        raise ValueError("%s grid needs min < max and a positive step" % label)
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if n < 2:
        raise ValueError("%s grid needs at least two points: a step no larger than max - min" % label)
    return lo + step * np.arange(n)


# cmd_wigner fills its grid in blocks of rows of about this many cells
_FILL_CELLS = 1 << 15


def cmd_wigner(args) -> int:
    qs = _phase_axis(args.q_min, args.q_max, args.dq, "q")
    ps = _phase_axis(args.p_min, args.p_max, args.dp, "p")
    terms = _parse_state(args.state)
    # every CSV is read, and refused if malformed, and the one grid is
    # allocated, before any grid work
    samples = [read_state_csv(params) if kind == "csv" else None for _, kind, params in terms]
    acc = np.empty((qs.size, ps.size))
    # per block, a csv: member would rebuild its cos/sin tables and move
    # last bits, so it is transformed once; the closed forms and the sum,
    # in term order, go block by block, cell for cell as on the whole grid
    grids = [None if psi is None else wigner_transform(normalize(psi), qs, ps).w for psi in samples]
    step = max(1, _FILL_CELLS // ps.size)
    for start in range(0, qs.size, step):
        rows = slice(start, start + step)
        for i, ((weight, kind, params), w) in enumerate(zip(terms, grids)):
            if kind == "number":
                n, q0, p0 = params
                with np.errstate(over="ignore"):  # an offset past the float range is inf: W_n is 0
                    w = number_state_wigner(n, qs[rows, None] - q0, ps[None, :] - p0)
            else:
                w = w[rows]
            if i == 0:
                np.multiply(weight, w, out=acc[rows])
            else:
                acc[rows] += weight * w
    # opened only now: a failure above leaves no partial file
    write_wigner_csv(WignerGrid(qs, ps, acc), args.out)
    return 0


def cmd_check(args) -> int:
    if not (math.isfinite(args.margin) and args.margin >= 0.0):
        raise ValueError("--margin must be a finite nonnegative number, got %r" % args.margin)
    w = read_wigner_csv(args.wigner_csv)
    s = load_region(args.region)
    q_value = quasiprobability(w, s)
    if not math.isfinite(q_value):
        raise ValueError("grid mass over the region is not finite: the grid values overflow")
    res = bounds(s)
    margin = 2.0 * w.dq * w.dp + args.margin
    if q_value < res.lambda_min - margin:
        verdict = "below_min"
    elif q_value > res.lambda_max + margin:
        verdict = "above_max"
    else:
        verdict = "within"
    report = {
        "q_value": float(_fmt(q_value)),
        "lambda_min": float(_fmt(res.lambda_min)),
        "lambda_max": float(_fmt(res.lambda_max)),
        "area_bound": float(_fmt(area(s) / math.pi)),
        "verdict": verdict,
        "margin": float(_fmt(margin)),
    }
    print(json.dumps(report))
    return 0 if verdict == "within" else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wigner-bounds",
        description="Sharp bounds on Wigner-function integrals over phase-plane regions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="bounds for a region JSON file")
    b.add_argument("region", help="region JSON file")
    b.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"), dest="ignored_lo_hi", help="accepted and ignored, with a warning: no route uses a window")
    b.add_argument("--numeric", dest="method", action="store_const", const="numeric", help="skip the closed forms: Fock route on bounded regions, refusal on unbounded ones")
    b.set_defaults(method="auto")

    c = sub.add_parser("curves", help="disk eigenvalue curves as TSV on stdout")
    c.add_argument("--a-min", type=float, default=0.0)
    c.add_argument("--a-max", type=float, default=3.0)
    c.add_argument("--steps", type=int, default=301)
    c.add_argument("--n-max", type=int, default=3, help="highest individual curve column")

    w = sub.add_parser("wigner", help="Wigner function of a state as CSV")
    w.add_argument(
        "state",
        help="oscillator:n | coherent:q0,p0 | csv:path | 'mix:0.5 oscillator:0 + 0.5 oscillator:1'",
    )
    w.add_argument("--q-min", type=float, default=-4.0)
    w.add_argument("--q-max", type=float, default=4.0)
    w.add_argument("--dq", type=float, default=0.05)
    w.add_argument("--p-min", type=float, default=-4.0)
    w.add_argument("--p-max", type=float, default=4.0)
    w.add_argument("--dp", type=float, default=0.05)
    w.add_argument("--out", required=True, help="output CSV path")

    k = sub.add_parser("check", help="check a Wigner CSV against a region's bounds")
    k.add_argument("wigner_csv", help="grid written by the wigner subcommand or compatible")
    k.add_argument("region", help="region JSON file")
    k.add_argument(
        "--margin",
        type=float,
        default=0.0,
        help="extra noise allowance added to the 2*dq*dp discretization margin",
    )
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so that a
    # cmd_* function patched onto this module is the one that runs
    cmd = globals()["cmd_" + args.command]
    try:
        return cmd(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
