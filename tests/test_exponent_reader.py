"""Every public exponent (a depth, level, window or order) is read as an int by one reader, padic._read_int.

A float, a Fraction, None or a str raises ValueError naming the argument before any work, as does a
negative value where the call needs one that is not negative; a bool is read as its int.  Before the
one reader, some of these calls answered (a negative depth gave True, False, 1 or a list of floats),
and others ended in TypeError or AttributeError.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padictiles import (
    Ball,
    CompactOpenSet,
    CyclotomicSum,
    DigitSet,
    PrimeContext,
    SphereStatus,
    UniformDiscreteSet,
    classify_all,
    complement_from_homogeneity,
    density,
    frame_branching_set,
    homogeneous_census_size,
    lifted_spectrum,
    lifted_tiling_complement,
    spectrum_from_homogeneity,
    spectrum_orthogonality_defect,
    spectrum_to_tiling_complement,
    uniformity_check,
    verify_spectral_pair,
    verify_spectrum_witness,
    verify_tiling_pair,
    verify_tiling_witness,
    zero_sphere_scan,
)
from padictiles.cyclotomic import residue_counts, vanishes

CTX = PrimeContext(2)
OMEGA = CompactOpenSet.make(CTX, 0, 2, [0, 1])  # {0, 1} + 4Z_2: branching at level 0, homogeneous
E = UniformDiscreteSet.make(CTX, 2, [0, 1, 3])
DS = DigitSet.make(CTX, 2, [0, 1])

# (id, call of one exponent, the name its ValueError gives, whether a negative value is refused)
EXPONENTS = [
    ("DigitSet.make-M", lambda e: DigitSet.make(CTX, e, [0, 1]), "M", True),
    ("CompactOpenSet.make-v", lambda e: CompactOpenSet.make(CTX, e, 1, [1]), "v", False),
    ("CompactOpenSet.make-M", lambda e: CompactOpenSet.make(CTX, 0, e, [1]), "M", True),
    ("digits_in_frame-v2", lambda e: OMEGA.digits_in_frame(e, 4), "v2", False),
    ("digits_in_frame-M2", lambda e: OMEGA.digits_in_frame(0, e), "M2", False),
    ("Ball.make-v", lambda e: Ball.make(CTX, e, 1, 1), "v", False),
    ("Ball.make-M", lambda e: Ball.make(CTX, 0, e, 1), "M", True),
    ("Ball.make-c", lambda e: Ball.make(CTX, 0, 1, e), "c", False),
    ("PrimeContext-p", lambda e: PrimeContext(e), "p", True),
    ("PrimeContext.pow", lambda e: CTX.pow(e), "e", False),
    ("PrimeContext.residue", lambda e: CTX.residue(5, e), "m", True),
    ("CyclotomicSum.make-n", lambda e: CyclotomicSum.make(CTX, e, {0: 1}), "n", True),
    ("CyclotomicSum.make-exponent", lambda e: CyclotomicSum.make(CTX, 2, {e: 1, 1: 1}), "exponent", False),
    ("vanishes", lambda e: vanishes(2, e, {0: 1, 1: 1}), "n", True),
    ("residue_counts", lambda e: residue_counts(2, e, [1, 2, 3]), "m", True),
    ("frame_branching_set", lambda e: frame_branching_set(2, e, [0, 1]), "M", True),
    ("verify_tiling_witness", lambda e: verify_tiling_witness(2, e, [0], [0]), "M", True),
    ("verify_spectrum_witness", lambda e: verify_spectrum_witness(CTX, e, [0], [0]), "M", True),
    ("spectrum_orthogonality_defect", lambda e: spectrum_orthogonality_defect(2, e, [0], [0]), "M", True),
    ("spectrum_from_homogeneity", lambda e: spectrum_from_homogeneity(DS, [e]), "levels", True),
    ("complement_from_homogeneity", lambda e: complement_from_homogeneity(DS, [e]), "levels", True),
    ("homogeneous_census_size", lambda e: homogeneous_census_size(2, e, []), "M", True),
    ("homogeneous_census_size-levels", lambda e: homogeneous_census_size(2, 3, [e]), "levels", True),
    ("classify_all-M", lambda e: classify_all(2, e), "M", True),
    ("classify_all-sample_size", lambda e: classify_all(2, 2, "sample", sample_size=e), "sample_size", True),
    ("classify_all-jobs", lambda e: classify_all(2, 1, jobs=e), "jobs", True),
    ("UniformDiscreteSet.make", lambda e: UniformDiscreteSet.make(CTX, e, [0]), "window", False),
    ("residues-w", lambda e: E.residues(e, 2), "w", False),
    ("residues-m", lambda e: E.residues(2, e), "m", True),
    ("count_in_ball", lambda e: E.count_in_ball(1, e), "radius_exp", False),
    ("zero_sphere_scan", lambda e: zero_sphere_scan(E, [e]), "levels", False),
    ("density", lambda e: density(E, 0, [e]), "k_range", False),
    ("uniformity_check", lambda e: uniformity_check(E, e, []), "n", False),
    ("verify_tiling_pair", lambda e: verify_tiling_pair(OMEGA, E, e), "window_exp", False),
    ("verify_spectral_pair", lambda e: verify_spectral_pair(OMEGA, E, e), "window_exp", False),
    ("spectrum_to_tiling_complement", lambda e: spectrum_to_tiling_complement(OMEGA, E, e), "verify_window_exp",
     False),
    ("lifted_spectrum", lambda e: lifted_spectrum(OMEGA, e), "extra_exp", True),
    ("lifted_tiling_complement", lambda e: lifted_tiling_complement(OMEGA, e), "extra_exp", True),
]

NOT_AN_INT = st.one_of(st.floats(), st.fractions(), st.none(), st.text(max_size=3))


@pytest.mark.parametrize("call, name, nonneg", [row[1:] for row in EXPONENTS], ids=[row[0] for row in EXPONENTS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_public_exponent_is_read_as_an_int(call, name, nonneg, data):
    e = data.draw(st.one_of(NOT_AN_INT, st.integers(max_value=-1)) if nonneg else NOT_AN_INT)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"\b{name}\b") as raised:  # not TypeError or AttributeError, nor an answer
        call(e)
    assert raised.type is ValueError  # the reader's, not a size bound's ScopeTooLarge
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("call, message", [
    # returned True
    ("verify_spectrum_witness(CTX, -1, [0], [0])", "a spectrum check takes an int M >= 0: M=-1"),
    # returned False
    ("verify_tiling_witness(2, -1, [0], [0])", "a tiling check takes an int M >= 0: M=-1"),
    # returned 1
    ("homogeneous_census_size(2, -1, [])", "a census size takes an int M >= 0: M=-1"),
    # returned [0.0, 0.0, 0.0]
    ("E.residues(2, -1)", "a residue list takes an int m >= 0: m=-1"),
    # returned 0
    ("CTX.residue(5, -1)", "a residue takes an int m >= 0: m=-1"),
    # returned the float 1.4142135623730951
    ("CTX.pow(0.5)", "a power of p takes an int e: e=0.5"),
    # returned False, where n = 1 returns True
    ("vanishes(2, 0.5, {0: 1, 1: 1})", "a zero test takes an int n >= 0: n=0.5"),
    # returned False
    ("vanishes(2, -1, {0: 1})", "a zero test takes an int n >= 0: n=-1"),
    # returned a map with float keys
    ("residue_counts(2, 0.5, [1, 2, 3])", "a residue count takes an int m >= 0: m=0.5"),
    # returned {0.0: 3}
    ("residue_counts(2, -1, [1, 2, 3])", "a residue count takes an int m >= 0: m=-1"),
])
def test_a_call_that_answered_for_an_exponent_it_cannot_take_refuses_it(call, message):
    with pytest.raises(ValueError) as raised:
        eval(call)
    assert str(raised.value) == message


def test_a_float_exponent_that_was_accepted_is_refused():
    # each was accepted: the sum kept the exponent 0.5, and the digit set kept M = 2.0, on which both deciders
    # raised TypeError
    with pytest.raises(ValueError, match=r"^a cyclotomic sum takes an int exponent: exponent=0\.5$"):
        CyclotomicSum.make(CTX, 2, {0.5: 1, 1: 1})
    with pytest.raises(ValueError, match=r"^a frame takes an int M >= 0: M=2\.0$"):
        DigitSet.make(CTX, 2.0, [0, 1])


@pytest.mark.parametrize("call, message", [
    ("Ball.make(CTX, 0, 1, 2.5)", "a ball takes an int c: c=2.5"),
    ("verify_spectral_pair(OMEGA, E, 1.5)", "a spectral check takes an int window_exp: window_exp=1.5"),
    ("lifted_spectrum(OMEGA, 2.0)", "a lift takes an int extra_exp >= 0: extra_exp=2.0"),
    ("classify_all(2, 2.0)", "a census takes an int M >= 0: M=2.0"),
    ("UniformDiscreteSet.make(CTX, None, [0])", "a truncation takes an int window: window=None"),
])
def test_a_call_that_raised_type_or_attribute_error_names_the_exponent(call, message):
    with pytest.raises(ValueError) as raised:
        eval(call)
    assert str(raised.value) == message


def test_a_census_reads_its_sample_size_and_jobs_as_ints():
    # sample_size=2.5 visited 3 sets, and jobs=1.5 ended in TypeError from the process pool
    with pytest.raises(ValueError, match=r"^a sample census takes an int sample_size >= 0: sample_size=2\.5$"):
        classify_all(2, 2, "sample", sample_size=2.5)
    with pytest.raises(ValueError, match=r"^a census takes an int jobs: jobs=1\.5$"):
        classify_all(2, 2, jobs=1.5)
    assert classify_all(2, 2, "sample", sample_size=True).total == 1  # a bool is read as its int
    census = classify_all(2, True, jobs=True)
    assert type(census.M) is int and census.total == 3


def test_a_bool_exponent_is_read_as_a_plain_int():
    # the scan's dict was keyed True, and the set's v was stored (and written to JSON) as true
    scan = zero_sphere_scan(E, [True])
    assert list(scan) == [1] and type(next(iter(scan))) is int and scan[1] is SphereStatus.NOT_IN_ZERO_SET
    v = CompactOpenSet.make(CTX, True, 1, [1]).to_json_dict()["v"]
    assert type(v) is int and v == 1
    assert type(DigitSet.make(CTX, True, [0, 1]).M) is int
    assert [type(k) for k, _ in density(E, 0, [False, True])] == [int, int]
    ball = Ball.make(CTX, True, True, True)
    assert (type(ball.v), type(ball.M), type(ball.c)) == (int, int, int)


def test_a_power_of_p_is_bounded_as_an_exponent(api_child):
    # pow(10**12) formed 2^(10^12)
    name, message, seconds = api_child.run("PrimeContext(2).pow(10**12)")
    assert name == "ScopeTooLarge" and seconds < 1
    assert message == "a power of p is limited to p^|e| of at most 4096 bits: p=2, e=1000000000000"
    assert CTX.pow(-4095) == Fraction(1, 2**4095) and PrimeContext(3).pow(2584) == 3**2584
