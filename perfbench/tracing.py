"""Spans around calls into the package's layers, recorded from outside it.

Each traced function is replaced, at the module attribute its caller
looks it up from, by a wrapper that appends (name, start, end, parent)
to an in-memory list.  The layer of a span is the part of its name
before the dot; a layer's self time is its spans' time minus the time
of their direct children.  Attributes a later version of the package no
longer has are skipped, so their metrics read zero.
"""
from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "regions", "specfun", "spectra", "kernels", "states", "wigner")

# (module, attribute, span name): the lookups cli, spectra and wigner make
TARGETS = (
    ("cli", "cmd_bounds", "cli.bounds"),
    ("cli", "cmd_curves", "cli.curves"),
    ("cli", "cmd_wigner", "cli.wigner"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "load_region", "regions.load_region"),
    ("cli", "disk_envelope", "spectra.disk_envelope"),
    ("cli", "annulus_envelope", "spectra.annulus_envelope"),
    ("cli", "disk_eigenvalue", "spectra.disk_eigenvalue"),
    ("spectra", "disk_eigenvalue", "spectra.disk_eigenvalue"),
    ("cli", "extremal_eigenvalues", "spectra.extremal_eigenvalues"),
    ("spectra", "gauss_legendre", "specfun.gauss_legendre"),
    ("spectra", "laguerre_poly", "specfun.laguerre_poly"),
    ("cli", "assemble", "kernels.assemble"),
    ("cli", "default_window", "kernels.default_window"),
    ("cli", "oscillator_state", "states.oscillator_state"),
    ("cli", "coherent_state", "states.coherent_state"),
    ("cli", "normalize", "states.normalize"),
    ("cli", "read_state_csv", "states.read_state_csv"),
    ("cli", "wigner_transform", "wigner.wigner_transform"),
    ("wigner", "wigner_transform", "wigner.wigner_transform"),
    ("cli", "mixed_wigner", "wigner.mixed_wigner"),
    ("cli", "quasiprobability", "wigner.quasiprobability"),
    ("cli", "write_wigner_csv", "wigner.write_wigner_csv"),
    ("cli", "read_wigner_csv", "wigner.read_wigner_csv"),
)


def _count_assemble(counts, args, result):
    n = len(result)
    counts["kernels.grid_count"] += n
    counts["kernels.matrix_bytes"] += 16 * n * n


def _count_transform(counts, args, result):
    counts["wigner.grid_cells"] += result.w.size


def _count_write(counts, args, result):
    counts["wigner.csv_bytes_written"] += os.path.getsize(args[1])


def _count_read(counts, args, result):
    counts["wigner.csv_bytes_read"] += os.path.getsize(args[0])


COUNTERS = {
    "kernels.assemble": _count_assemble,
    "wigner.wigner_transform": _count_transform,
    "wigner.write_wigner_csv": _count_write,
    "wigner.read_wigner_csv": _count_read,
}


class Tracer:
    """Span recorder for one process; install() patches, remove() restores."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(float)
        self._stack = [-1]
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            mod = self.modules[mod_name]
            if hasattr(mod, attr):
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))

    def remove(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def root(self, name, fn, *args):
        """Run fn(*args) as a top-level span."""
        return self._wrap(name, fn)(*args)

    def take(self):
        """Hand over and clear the spans and counts recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        del self.spans[:]
        self.counts.clear()
        return spans, counts


def summarize(spans, counts) -> dict:
    """Per-pass totals: inclusive time and calls per span name, self time
    per layer, and the counters."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        out[name + "_s"] += dur
        out[name + "_calls"] += 1
        out[name.split(".")[0] + ".self_s"] += dur - child[i]
    out.update(counts)
    out["self_sum_s"] = sum(out[layer + ".self_s"] for layer in LAYERS)
    return out


def invocation_median(spans_by_pass, name) -> float:
    durs = [end - start for spans in spans_by_pass for n, start, end, _ in spans if n == name]
    return statistics.median(durs) if durs else 0.0
