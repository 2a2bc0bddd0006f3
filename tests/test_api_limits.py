"""Size and type limits of the library's public calls, checked without the CLI.

A call that once ran until it was killed is run in a fresh child process that
is killed after 10 s: neither a Hypothesis deadline nor signal.alarm
interrupts one long big-int operation in-process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padictiles
from padictiles import (
    DigitSet,
    PrimeContext,
    ScopeTooLarge,
    complement_from_homogeneity,
    spectrum_from_homogeneity,
    verify_spectrum_witness,
    verify_tiling_witness,
)

_CHILD = """
import json, sys, time
import padictiles
start = time.perf_counter()
try:
    eval(sys.argv[1], vars(padictiles))
    out = ["returned", ""]
except Exception as exc:
    out = [type(exc).__name__, str(exc)]
print(json.dumps(out + [time.perf_counter() - start]))
"""


def _in_child(call: str) -> tuple[str, str, float]:
    """(exception name or "returned", message, seconds) of evaluating call against the names of
    padictiles in a child process; a child still running after 10 s is killed and fails the test."""
    src = str(Path(padictiles.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run([sys.executable, "-c", _CHILD, call], capture_output=True, text=True,
                              timeout=10, env={**os.environ, "PYTHONPATH": path})
    except subprocess.TimeoutExpired:
        pytest.fail(f"{call} still ran after 10 s")
    return tuple(json.loads(done.stdout))


@pytest.mark.parametrize("call, names", [
    pytest.param("l_truncation(PrimeContext(2), 40)", "p=2, k=40, q = 2^40 > 262144", id="l_truncation"),
    pytest.param("CompactOpenSet.make(PrimeContext(2), 0, 1, [1]).digits_in_frame(0, 10**6)",
                 "p=2, levels=999999, q = 2^999999 > 262144", id="digits_in_frame"),
    pytest.param("verify_spectrum_witness(PrimeContext(2), 10**5, [0, 1], [0, 2**99999])",
                 "of at most 2048 bits: p=2, M=100000", id="verify_spectrum_witness"),
    pytest.param("vanishing_level_set(PrimeContext(2), [0, 1], range(-10**6, 0, 10**5))",
                 "of at most 2048 bits: p=2, depth=1000000", id="vanishing_level_set"),
])
def test_a_call_that_ran_until_killed_raises_scope_too_large_at_once(call, names):
    # each was still running when a 5 s timeout ended it
    name, message, seconds = _in_child(call)
    assert name == "ScopeTooLarge" and names in message and seconds < 1


def test_the_spectrum_check_takes_every_depth_a_frame_may_have():
    # lifted_spectrum rechecks spectra on the full frame of a set, up to M = 2047 for p = 2
    ctx = PrimeContext(2)
    assert verify_spectrum_witness(ctx, 2047, [0, 1], [0, 2**2046])
    with pytest.raises(ScopeTooLarge, match="a spectrum check .* p=2, M=2048"):
        verify_spectrum_witness(ctx, 2048, [0, 1], [0, 2**2047])


def test_the_spectrum_check_refuses_a_float_in_the_witness():
    # returned True: Λ = {0, 0.5} is not a set of integers mod 4
    with pytest.raises(ValueError, match=r"element 0\.5 of lam is not an int"):
        verify_spectrum_witness(PrimeContext(2), 2, [0, 1], [0, 0.5])
    with pytest.raises(ValueError, match=r"element 1\.0 of C is not an int"):
        verify_spectrum_witness(PrimeContext(2), 2, [0, 1.0], [0, 2])


def test_the_tiling_check_refuses_a_float_in_the_witness():
    # returned True
    with pytest.raises(ValueError, match=r"element 0\.0 of T is not an int"):
        verify_tiling_witness(2, 1, [0], [0.0, 1.0])
    with pytest.raises(ValueError, match="element '0' of C is not an int"):
        verify_tiling_witness(2, 1, ["0"], [0, 1])


def test_the_spectrum_constructor_refuses_a_level_past_M():
    # returned a "verified" witness with the elements (0.0, 0.0625): p^(M-1-5) is the float 2^-4
    C = DigitSet.make(PrimeContext(2), 2, [0, 1])
    with pytest.raises(ValueError, match=r"element 5 of levels is not an int in range\(M\) = range\(2\)"):
        spectrum_from_homogeneity(C, {5})
    with pytest.raises(ValueError, match=r"element 1\.0 of levels is not an int"):
        spectrum_from_homogeneity(C, {1.0})
    assert spectrum_from_homogeneity(C, {0}).elements == (0, 2)


def test_the_complement_constructor_refuses_a_negative_level():
    # raised ConstructionFailed, which the CLI reports as an impossible construction (exit 2)
    C = DigitSet.make(PrimeContext(2), 2, [0, 1])
    with pytest.raises(ValueError, match=r"element -50 of levels is not an int in range\(M\) = range\(2\)"):
        complement_from_homogeneity(C, {-50})
    assert complement_from_homogeneity(C, {0}).elements == (0, 2)
