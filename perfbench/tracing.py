"""Span tracing for the benchmark's traced run, kept entirely outside the library.

Each public function of a layer is rebound, in every padictiles module that
holds it, to a wrapper that opens a span on entry and closes it on exit.  A
pass makes millions of spans, so spans with the same parent and name merge
into one node of a calling-context tree: the node keeps its parent, its call
count, its total time and its self time (total minus the time its child spans
cover).  Merging loses no self time, and the tree is written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Layer name -> (module, attribute) of a public function.
FUNCTIONS = {
    "padic.character": ("padic", "character"),
    "pairs.zero_sphere_scan": ("pairs", "zero_sphere_scan"),
    "pairs.verify_tiling_pair": ("pairs", "verify_tiling_pair"),
    "pairs.verify_spectral_pair": ("pairs", "verify_spectral_pair"),
    "pairs.lifted_spectrum": ("pairs", "lifted_spectrum"),
    "copen.frame_branching_set": ("copen", "frame_branching_set"),
    "copen.indicator_fourier": ("copen", "indicator_fourier"),
    "copen.autocorrelation": ("copen", "autocorrelation"),
    "decide.classify_all": ("decide", "classify_all"),
    "decide.is_tile_zmod": ("decide", "is_tile_zmod"),
    "decide.is_spectral_zmod": ("decide", "is_spectral_zmod"),
    "decide.verify_spectrum_witness": ("decide", "verify_spectrum_witness"),
    "decide.spectrum_orthogonality_defect": ("decide", "spectrum_orthogonality_defect"),
    "cli.main": ("cli", "main"),
}

# Layer name -> (module, class, method names) of methods counted as one layer.
METHODS = {
    "padic.frac_part": ("padic", "PrimeContext", ("frac_part",)),
    "padic.residue": ("padic", "PrimeContext", ("residue",)),
    "cyclotomic.make": ("cyclotomic", "CyclotomicSum", ("make", "from_roots", "constant")),
    "cyclotomic.is_zero": ("cyclotomic", "CyclotomicSum", ("is_zero",)),
    "cyclotomic.arith": (
        "cyclotomic",
        "CyclotomicSum",
        ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "conjugate", "scale_exponents"),
    ),
}

# Layer name -> {counter suffix: count taken from the call's result}.
TALLIES = {
    "cyclotomic.is_zero": {"zero": lambda r: int(r)},
    "decide.is_tile_zmod": {"positive": lambda r: int(r is not None)},
    "decide.is_spectral_zmod": {"positive": lambda r: int(r is not None)},
    "pairs.zero_sphere_scan": {"levels": len},
    "pairs.verify_tiling_pair": {"checked_points": lambda r: r.checked_points},
    "pairs.verify_spectral_pair": {"checked_points": lambda r: r.checked_points},
}

# Metric name -> (numerator counter, denominator counter).
RATIOS = {
    "cyclotomic.is_zero.zero_ratio": ("cyclotomic.is_zero.zero", "cyclotomic.is_zero.calls"),
    "decide.is_tile_zmod.positive_ratio": ("decide.is_tile_zmod.positive", "decide.is_tile_zmod.calls"),
    "decide.is_spectral_zmod.positive_ratio": (
        "decide.is_spectral_zmod.positive",
        "decide.is_spectral_zmod.calls",
    ),
}

COUNTERS = (
    "pairs.zero_sphere_scan.levels",
    "pairs.verify_tiling_pair.checked_points",
    "pairs.verify_spectral_pair.checked_points",
    "cli.main.bytes_out",
)

LAYERS = tuple(FUNCTIONS) + tuple(METHODS)


class Tracer:
    """Calling-context tree of spans; node 0 is the root, which is never timed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = ["<root>"]
        self.parents = [-1]
        self.calls = [0]
        self.total = [0.0]
        self.self_time = [0.0]
        self.children: list[dict[str, int]] = [{}]
        self.stack: list[list] = []  # open spans: [node, start, time covered by children]
        self.counters: Counter[str] = Counter()

    def enter(self, name: str) -> None:
        parent = self.stack[-1][0] if self.stack else 0
        node = self.children[parent].get(name)
        if node is None:
            node = len(self.names)
            self.children[parent][name] = node
            self.names.append(name)
            self.parents.append(parent)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
            self.children.append({})
        self.stack.append([node, self.clock(), 0.0])

    def exit(self) -> None:
        node, start, covered = self.stack.pop()
        elapsed = self.clock() - start
        self.calls[node] += 1
        self.total[node] += elapsed
        self.self_time[node] += elapsed - covered
        if self.stack:
            self.stack[-1][2] += elapsed

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name, summed over calling contexts."""
        out: dict[str, tuple[int, float]] = {}
        for name, calls, own in zip(self.names[1:], self.calls[1:], self.self_time[1:]):
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + own)
        return out

    def write(self, path) -> None:
        """One JSON line per calling-context node, then one with the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(1, len(self.names)):
                node = {
                    "id": i,
                    "parent": self.parents[i],
                    "name": self.names[i],
                    "calls": self.calls[i],
                    "total_s": self.total[i],
                    "self_s": self.self_time[i],
                }
                fh.write(json.dumps(node) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    tallies = tuple((f"{name}.{key}", count) for key, count in TALLIES.get(name, {}).items())
    enter, exit_, counters = tracer.enter, tracer.exit, tracer.counters

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        for key, count in tallies:
            counters[key] += count(result)
        return result

    return traced


def instrument(tracer: Tracer, package: str = "padictiles") -> list[tuple[object, str, object]]:
    """Rebind every traced layer to a wrapper; returns the patches for restore()."""
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    patches = []
    for name, (module, attr) in FUNCTIONS.items():
        original = getattr(sys.modules[f"{package}.{module}"], attr)
        wrapper = _wrap(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
    for name, (module, cls_name, methods) in METHODS.items():
        cls = getattr(sys.modules[f"{package}.{module}"], cls_name)
        for method in methods:
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                wrapper = classmethod(_wrap(tracer, name, raw.__func__))
            else:
                wrapper = _wrap(tracer, name, raw)
            patches.append((cls, method, raw))
            setattr(cls, method, wrapper)
    return patches


def restore(patches) -> None:
    for owner, key, value in reversed(patches):
        setattr(owner, key, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Calls and self time of every layer, the tallies, and the ratios."""
    seen = tracer.by_name()
    counts = Counter(tracer.counters)
    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, own = seen.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_s"] = own
        counts[f"{layer}.calls"] = calls
    for name in COUNTERS:
        out[name] = counts[name]
    for name, (num, den) in RATIOS.items():
        out[name] = counts[num] / counts[den] if counts[den] else 0.0
    return out
