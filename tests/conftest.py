"""Commands run in one long-lived child process per test module, fed over a pipe.

A command still running after 10 s kills its child and fails the test that sent it: neither a
Hypothesis deadline nor signal.alarm interrupts one long big-int operation in-process.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import padictiles
from padictiles.padic import _LATTICES

# Each line of stdin is a JSON array: the argv of cli.main.  Each answer is [exit code, stdout,
# stderr, seconds in main]; an exception in main comes back as code None with its traceback.
_CLI = """
import io, json, sys, time, traceback
from contextlib import redirect_stderr, redirect_stdout
from padictiles.cli import main
commands, sys.stdin = sys.stdin, io.StringIO()  # a command reading stdin must not take the next one
for line in commands:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(json.loads(line))
        except Exception:
            code = None
            traceback.print_exc()
    print(json.dumps([code, out.getvalue(), err.getvalue(), time.perf_counter() - start]), flush=True)
"""

# Each line of stdin is a JSON array holding one Python expression, evaluated against the names
# of padictiles.  Each answer is [exception name or "returned", its message (cut at 300
# characters), seconds].
_API = """
import io, json, sys, time
import padictiles
calls, sys.stdin = sys.stdin, io.StringIO()
for line in calls:
    start = time.perf_counter()
    try:
        eval(json.loads(line)[0], vars(padictiles))
        out = ["returned", ""]
    except Exception as exc:
        out = [type(exc).__name__, str(exc)[:300]]
    print(json.dumps(out + [time.perf_counter() - start]), flush=True)
"""


class ChildProcess:
    """Runs the loop of `script` in one long-lived child process and sends it one command at a
    time.  A command still running after `timeout` seconds kills the child (the next command
    starts a new one) and fails the test that sent it."""

    timeout = 10

    def __init__(self, script: str):
        self.script = script
        self.proc = None

    def run(self, *argv):
        """The child's answer to argv, as a tuple."""
        if self.proc is None:
            src = str(Path(padictiles.__file__).parents[1])
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            self.proc = subprocess.Popen([sys.executable, "-c", self.script], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True,
                                         env={**os.environ, "PYTHONPATH": path})
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], self.timeout)[0]:
            self.close()
            pytest.fail(f"{list(argv)} still ran after {self.timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            pytest.fail(f"the child running {list(argv)} exited")
        return tuple(json.loads(line))

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None


@pytest.fixture(scope="module")
def cli_child():
    """(code, out, err, seconds in main) of cli.main on each argv."""
    child = ChildProcess(_CLI)
    yield child
    child.close()


@pytest.fixture(scope="module")
def api_child():
    """(exception name or "returned", message, seconds) of each call, an expression string."""
    child = ChildProcess(_API)
    yield child
    child.close()


def v_p(p: int, x) -> int | float:
    """The p-adic valuation of a rational x, math.inf for 0, by dividing out p one factor at a time: an oracle
    for the tests that reads nothing of the library."""
    x = Fraction(x)
    if not x:
        return math.inf
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _homogeneous_sets(p: int, M: int) -> list[tuple[int, ...]]:
    """Every p-homogeneous digit set of Z/p^M, grown level by level without the library: at level i
    every node takes all p children (a branching level) or each node takes one child of its own."""
    sets = [(0,)]
    for i in range(M):
        w = p**i
        grown = []
        for nodes in sets:
            grown.append(tuple(r + a * w for r in nodes for a in range(p)))
            grown += [tuple(r + a * w for r, a in zip(nodes, ds)) for ds in product(range(p), repeat=len(nodes))]
        sets = grown
    return sets


@pytest.fixture(scope="session")
def roundtrip_sets():
    """(p, M, digits) of the 835 homogeneous sets of Z/2^4 and Z/3^2, the sets of the benchmark's roundtrip."""
    return [(p, M, C) for p, M in ((2, 4), (3, 2)) for C in _homogeneous_sets(p, M)]


@pytest.fixture(params=["cold", "warm"])
def memo(request, monkeypatch):
    """The lattice memo (padic._LATTICES) cold, a budget of 0 that keeps nothing, so that every lattice and
    every fact kept beside a lifted witness is derived on every call, or warm: emptied, then filled by the
    first call for each branching set.  It is emptied again afterwards."""
    _LATTICES.clear()
    if request.param == "cold":
        monkeypatch.setattr(_LATTICES, "budget", 0)
    yield request.param
    _LATTICES.clear()
