"""Benchmark of the wigner-bounds command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process drives the CLI in-process through wigner_bounds.cli.main(argv),
one op at a time (a closed loop with a single caller), and judges every
op's output against independent references.  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics.  See
perfbench/README.md for the workloads and metric definitions.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# fresh interpreters per run for setup_s, and the fewest untraced passes
COLD_STARTS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 60
SENTINEL = "@@perfbench-first-result"

END_TO_END = {
    "pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bound_err_max": "1",
    "result_ok_rate": "ratio",
    "op_ok_rate": "ratio",
}

PER_LAYER = {
    "specfun.laguerre_poly_s": "s",
    "specfun.laguerre_poly_calls": "count",
    "specfun.gauss_legendre_s": "s",
    "specfun.gauss_legendre_calls": "count",
    "spectra.disk_eigenvalue_s": "s",
    "spectra.disk_eigenvalue_calls": "count",
    "spectra.disk_envelope_s": "s",
    "spectra.annulus_envelope_s": "s",
    "spectra.extremal_eigenvalues_s": "s",
    "kernels.assemble_s": "s",
    "kernels.grid_count": "count",
    "kernels.matrix_bytes": "bytes",
    "wigner.wigner_transform_s": "s",
    "wigner.mixed_wigner_s": "s",
    "wigner.grid_cells": "count",
    "wigner.write_wigner_csv_s": "s",
    "wigner.csv_bytes_written": "bytes",
    "wigner.read_wigner_csv_s": "s",
    "wigner.csv_bytes_read": "bytes",
    "wigner.quasiprobability_s": "s",
    "states.build_s": "s",
    "regions.load_region_s": "s",
    "cli.bounds_s": "s",
    "cli.curves_s": "s",
    "cli.wigner_s": "s",
    "cli.check_s": "s",
    "cli.self_s": "s",
    "regions.self_s": "s",
    "specfun.self_s": "s",
    "spectra.self_s": "s",
    "kernels.self_s": "s",
    "states.self_s": "s",
    "wigner.self_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_sum_s": "s",
    "trace.unattributed_s": "s",
}

# cli.<command>_s is a median per invocation, not a per-pass total
PER_INVOCATION = ("cli.bounds", "cli.curves", "cli.wigner", "cli.check")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def check_metric_lists() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            raise BenchError("BENCHMARK.json %s does not match perfbench/run.py" % key)


def blas_threads():
    """(library, thread count) of the OpenBLAS numpy links, or (None, None)."""
    import numpy

    base = os.path.dirname(numpy.__file__)
    for path in sorted(glob.glob(os.path.join(base, os.pardir, "numpy.libs", "*openblas*"))
                       + glob.glob(os.path.join(base, ".libs", "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), int(fn())
    return None, None


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    lib, threads = blas_threads()
    env = {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": lib,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    if threads is not None and threads > nproc:
        raise BenchError("BLAS uses %d threads on %d cores; set OPENBLAS_NUM_THREADS" % (threads, nproc))
    return env


class Tally:
    """Outcomes of every op run: failures, wrong results, reference errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.right = 0
        self.checks = 0
        self.verdicts_wrong = 0
        self.err_max = 0.0
        self.problems = {}  # op label -> first problem seen; unexcused ones break `correct`
        self.defects = {}  # op label -> wrong verdict on a known-defect input

    def record(self, op, rc, out) -> None:
        self.attempted += 1
        if rc not in (0, 1):
            self.failed += 1
            self.problems.setdefault(op.label, "failed: %s" % (out[-300:] if rc is None else "exit %d" % rc))
            return
        j = op.judge(rc, out)
        self.right += j.right
        self.err_max = max([self.err_max] + j.errs)
        if op.check:
            self.checks += 1
            self.verdicts_wrong += j.verdict_wrong
        if j.problems:
            self.problems.setdefault(op.label, "; ".join(j.problems))
        elif j.verdict_wrong:
            target = self.defects if op.known_defect else self.problems
            target.setdefault(op.label, "wrong verdict: %s" % out.strip()[-200:])

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_op(cli, op, tracer=None):
    """(exit code or None if it raised, stdout, seconds) of one CLI call."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                rc = tracer.root("cli.main", cli.main, op.argv)
    except (Exception, SystemExit):
        rc = None
        out.write(traceback.format_exc())
    return rc, out.getvalue(), time.perf_counter() - start


def run_pass(cli, ops, tally, op_times, tracer=None) -> float:
    """Wall seconds for the whole op list; outputs are judged afterwards."""
    start = time.perf_counter()
    results = [run_op(cli, op, tracer) for op in ops]
    wall = time.perf_counter() - start
    for op, (rc, out, dt) in zip(ops, results):
        tally.record(op, rc, out)
        op_times.setdefault(op.label, []).append(dt)
    return wall


def cold_start(op, tally) -> float | None:
    """Seconds from spawning a fresh interpreter to its first result."""
    code = (
        "import sys\n"
        "from wigner_bounds.cli import main\n"
        "rc = main(sys.argv[1:])\n"
        "sys.stdout.write('\\n%s %%d\\n' %% rc)\n"
        "sys.stdout.flush()\n" % SENTINEL
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    elapsed, rc, lines = None, None, []
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code, *op.argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ) as proc:
        # a hung child is killed, which ends its stdout and this loop
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.startswith(SENTINEL):
                    elapsed = time.perf_counter() - start
                    rc = int(line.split()[1])
                    break
                lines.append(line)
            proc.communicate()
        finally:
            watchdog.cancel()
    tally.record(op, rc, "".join(lines))
    return elapsed if rc in (0, 1) else None


def measure(seconds: float, one_pass, min_passes: int) -> None:
    """Repeat one_pass until another would end past `seconds`, at least min_passes times."""
    start = time.perf_counter()
    count = 0
    while True:
        last = one_pass()
        count += 1
        if count >= min_passes and time.perf_counter() - start + last > seconds:
            return


def quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def end_to_end(cli, ops, args, tally, side, op_times, detail) -> dict:
    colds = [cold_start(ops[0], side) for _ in range(COLD_STARTS)]
    colds = [c for c in colds if c is not None]
    run_pass(cli, ops[:1], side, {})  # warm: fills lazy caches the first op needs
    passes = []

    def one_pass():
        passes.append(run_pass(cli, ops, tally, op_times))
        return passes[-1]

    measure(args.seconds, one_pass, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["passes"] = {"count": len(passes), "quartiles_s": quartiles(passes), "all_s": passes}
    detail["cold_starts_s"] = colds
    if not colds:
        raise BenchError("no cold start produced a result")
    return {
        "pass_s": statistics.median(passes),
        "setup_s": statistics.median(colds),
        "peak_rss_mb": rss_mb,
        "bound_err_max": max(tally.err_max, side.err_max),
        "result_ok_rate": tally.right / tally.attempted,
        "op_ok_rate": 1.0 - tally.failed / tally.attempted,
    }


def per_layer(cli, ops, args, tally, side, op_times, detail) -> dict:
    from tracing import Tracer, invocation_median, summarize
    import wigner_bounds.spectra
    import wigner_bounds.wigner

    tracer = Tracer({"cli": cli, "spectra": wigner_bounds.spectra, "wigner": wigner_bounds.wigner})
    run_pass(cli, ops[:1], side, {})
    plain, traced, spans_by_pass, sums = [], [], [], []

    def pair():
        plain.append(run_pass(cli, ops, tally, op_times))
        tracer.install()
        try:
            traced.append(run_pass(cli, ops, tally, {}, tracer))
        finally:
            tracer.remove()
        spans, counts = tracer.take()
        spans_by_pass.append(spans)
        sums.append(summarize(spans, counts))
        return plain[-1] + traced[-1]

    measure(args.seconds, pair, 1)
    out = {}
    for name in PER_LAYER:
        stem = name[:-2] if name.endswith("_s") else None
        if stem in PER_INVOCATION:
            out[name] = invocation_median(spans_by_pass, stem)
        elif not name.startswith("trace."):
            key = "states.self_s" if name == "states.build_s" else name
            out[name] = statistics.median(s.get(key, 0.0) for s in sums)
    out["trace.pass_s"] = statistics.median(traced)
    out["trace.untraced_pass_s"] = statistics.median(plain)
    out["trace.overhead_ratio"] = out["trace.pass_s"] / out["trace.untraced_pass_s"]
    out["trace.self_sum_s"] = statistics.median(s["self_sum_s"] for s in sums)
    out["trace.unattributed_s"] = statistics.median(t - s["self_sum_s"] for t, s in zip(traced, sums))
    detail["passes"] = {"untraced_s": plain, "traced_s": traced}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench", "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": spans_by_pass}, fh, separators=(",", ":"))
    detail["spans_file"] = os.path.relpath(path, ROOT)
    return out


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    try:
        if not os.path.isfile(os.path.join(SRC, "wigner_bounds", "cli.py")):
            raise BenchError("no package at src/wigner_bounds; run from the repository root")
        check_metric_lists()
        sys.path.insert(0, SRC)
        from wigner_bounds import cli

        import reference
        from workloads import WORKLOADS

        detail = {"workload": args.workload, "seed": args.seed, "env": environment()}
        gap = reference.self_check()
        if gap > 1e-13:
            raise BenchError("reference disk spectrum misses the closed forms by %.3g" % gap)
        detail["reference_self_check"] = gap
        workdir = os.path.join(ROOT, ".perfbench", "work-%d" % os.getpid())
        os.makedirs(workdir)
        try:
            ops = WORKLOADS[args.workload](random.Random(args.seed), workdir)
            # rates come from the timed passes; cold starts and the warm-up
            # op count toward attempted, failed and correct only
            tally, side, op_times = Tally(), Tally(), {}
            measure_fn = per_layer if args.trace else end_to_end
            values = measure_fn(cli, ops, args, tally, side, op_times, detail)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    detail["op_s"] = op_times
    detail["op_fail_rate"] = tally.failed / tally.attempted
    detail["verdict_error_rate"] = tally.verdicts_wrong / max(tally.checks, 1)
    detail["known_defects"] = tally.defects
    problems = {**side.problems, **tally.problems}
    detail["problems"] = problems
    print(json.dumps({"perfbench": detail}))
    for label, problem in problems.items():
        print("perfbench: %s: %s" % (label, problem), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": tally.correct and side.correct,
                "attempted": tally.attempted + side.attempted,
                "failed": tally.failed + side.failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
