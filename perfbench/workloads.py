"""The benchmark's workloads: one pass over the inputs, timed per set, then checked.

A workload's run(tick) makes one timed pass and returns the latency of each
set and what the library gave back for it, calling tick() between sets so the
reference loop can sample the machine's speed; check() then counts the sets
whose output is wrong.  Checking is kept out of run() so that a traced pass
can be checked after the tracing wrappers are removed, and so the check's own
calls into the library are neither timed nor traced.  Every library call goes
through the package's attributes at call time, so the wrappers installed by
the traced run are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from fractions import Fraction

import inputs

# sha256 of `padictiles classify --p P --M M --exhaustive --out F`, frozen from
# the seed code, with the number of sets visited and found positive.
CENSUS_FROZEN = {
    (2, 4): ("15204d667b57faf469b84dea8e3dde09c2f1acb74c94417e7e4e8d176fa63fca", 65535, 795),
    (3, 2): ("1f54604ab2d269bcabac46315435673e6f57b3017da947dee233209d2339b25d", 511, 40),
}


class Census:
    """`padictiles classify --exhaustive` through cli.main, for Z/2^4 and Z/3^2.

    The CLI offers no per-set boundary, so the latency of a set is timed
    around the library's per-row step of classify_all: construction rebinds
    decide._row_from_mask to a timing wrapper for the life of the process.
    """

    name = "census"

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.workdir = workdir
        self.families = list(CENSUS_FROZEN)
        self.sets = sum(total for _, total, _ in CENSUS_FROZEN.values())
        self.bytes_out = 0
        self._latencies: list[float] = []
        self._tick = None
        row = lib.decide._row_from_mask
        record = self._latencies.append
        clock = time.perf_counter

        def timed_row(*args):
            start = clock()
            out = row(*args)
            record(clock() - start)
            self._tick()
            return out

        lib.decide._row_from_mask = timed_row

    def path(self, p: int, M: int) -> str:
        return os.path.join(self.workdir, f"census_p{p}_M{M}.jsonl")

    def run(self, tick):
        self._latencies.clear()
        self._tick = tick
        self.bytes_out = 0
        outputs = []
        for p, M in self.families:
            out = io.StringIO()
            argv = ["classify", "--p", str(p), "--M", str(M), "--exhaustive", "--json",
                    "--out", self.path(p, M)]
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.lib.cli.main(argv)
            except Exception as exc:  # a crash fails the family's sets, not the run
                outputs.append(exc)
                continue
            self.bytes_out += len(out.getvalue().encode()) + os.path.getsize(self.path(p, M))
            outputs.append((code, out.getvalue()))
        return list(self._latencies), outputs

    def check(self, outputs) -> int:
        failed = 0
        for (p, M), result in zip(self.families, outputs):
            failed += check_census(self.lib, p, M, self.path(p, M), result)
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.path(p, M))
        return failed


def check_census(lib, p: int, M: int, path: str, result) -> int:
    """Failed sets of one census family: 0 when the file and summary match the
    frozen ones, else the rows that fail their own check (or the whole family
    when no single row is to blame)."""
    digest, total, positive = CENSUS_FROZEN[(p, M)]
    if isinstance(result, Exception):
        return total
    code, stdout = result
    try:
        summary = json.loads(stdout)
        with open(path, "rb") as fh:
            data = fh.read()
    except (ValueError, OSError):
        return total
    if (
        code == 0
        and hashlib.sha256(data).hexdigest() == digest
        and (summary.get("total"), summary.get("positive")) == (total, positive)
    ):
        return 0
    lines = data.decode("utf-8", "replace").splitlines()
    bad = max(total - len(lines), 0)
    for mask, line in enumerate(lines[:total], start=1):
        C = tuple(x for x in range(p**M) if mask >> x & 1)
        bad += not _census_row_ok(lib, p, M, C, line)
    return bad or total


def _census_row_ok(lib, p: int, M: int, C, line: str) -> bool:
    try:
        row = json.loads(line)
        levels = inputs.branching_levels(p, M, C)
        positive = levels is not None
        if tuple(row["C"]) != C:
            return False
        if (row["is_tile"], row["is_spectral"], row["is_homogeneous"]) != (positive,) * 3:
            return False
        if not positive:
            return (row["I"], row["witness_T"], row["witness_Lambda"]) == (None, None, None)
        ctx = lib.PrimeContext(p)
        return (
            tuple(row["I"]) == levels
            and lib.verify_tiling_witness(p, M, C, row["witness_T"])
            and lib.verify_spectrum_witness(ctx, M, C, row["witness_Lambda"])
        )
    except (ValueError, KeyError, TypeError):
        return False


def timed_sets(items, call, tick):
    """call(*item) for each item, timed; an exception is kept as the output."""
    clock = time.perf_counter
    latencies, outputs = [], []
    for item in items:
        start = clock()
        try:
            out = call(*item)
        except Exception as exc:  # counted as a failed set, not raised
            out = exc
        latencies.append(clock() - start)
        outputs.append(out)
        tick()
    return latencies, outputs


class Roundtrip:
    """The gallery pipeline on every homogeneous set of Z/2^4 and Z/3^2:
    lifted spectrum, tiling complement built from it, spectral-pair check."""

    name = "roundtrip"

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.inputs = inputs.roundtrip_inputs(seed)
        self.sets = len(self.inputs)

    def run(self, tick):
        return timed_sets(self.inputs, self._pipeline, tick)

    def _pipeline(self, p: int, M: int, C):
        lib = self.lib
        omega = lib.CompactOpenSet.make(lib.PrimeContext(p), 0, M, C)
        lam = lib.lifted_spectrum(omega, 3)
        U, tiling = lib.spectrum_to_tiling_complement(omega, lam, 3)
        return U, tiling, lib.verify_spectral_pair(omega, lam, 2)

    def check(self, outputs) -> int:
        return sum(not self._ok(out) for out in outputs)

    @staticmethod
    def _ok(out) -> bool:
        if isinstance(out, Exception):
            return False
        U, tiling, spectral = out
        d = tiling.derived
        return (
            tiling.status == "Verified"
            and spectral.status == "Verified"
            and sorted(d["I"] + d["J"]) == list(range(d["n_f"]))
            and len(U) == d["card_U"]
            and d["card_U"] * Fraction(d["measure"]) == 1
        )


class Frontier:
    """The three per-set deciders on stratified sets beyond the exhaustive scope."""

    name = "frontier"

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.inputs = inputs.frontier_inputs(seed)
        self.sets = len(self.inputs)

    def run(self, tick):
        return timed_sets(self.inputs, self._decide, tick)

    def _decide(self, p: int, M: int, C):
        lib = self.lib
        ds = lib.DigitSet.make(lib.PrimeContext(p), M, C)
        return lib.is_tile_zmod(ds), lib.is_spectral_zmod(ds), lib.frame_branching_set(p, M, C)

    def check(self, outputs) -> int:
        return sum(not self._ok(s, out) for s, out in zip(self.inputs, outputs))

    def _ok(self, s, out) -> bool:
        if isinstance(out, Exception):
            return False
        p, M, C = s
        tile, spectrum, levels = out
        want = inputs.branching_levels(p, M, C)
        if (tile is not None, spectrum is not None, levels is not None) != (want is not None,) * 3:
            return False
        if want is None:
            return True
        lib = self.lib
        return (
            tuple(sorted(levels)) == want
            and lib.verify_tiling_witness(p, M, C, tile.elements)
            and lib.verify_spectrum_witness(lib.PrimeContext(p), M, C, spectrum.elements)
        )


WORKLOADS = {w.name: w for w in (Census, Roundtrip, Frontier)}
