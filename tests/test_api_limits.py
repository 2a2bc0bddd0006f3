"""Size and type limits of the library's public calls, checked without the CLI.

A call that once ran until it was killed is run in the long-lived child process
of the api_child fixture (conftest.py), which is killed after 10 s.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padictiles
from padictiles import (
    Ball,
    CompactOpenSet,
    DigitSet,
    EmptySet,
    PrimeContext,
    ScopeTooLarge,
    SphereStatus,
    UniformDiscreteSet,
    WindowTooSmall,
    complement_from_homogeneity,
    copen,
    density,
    frame_branching_set,
    homogeneous_census_size,
    is_p_homogeneous,
    lifted_spectrum,
    normalize_set,
    padic,
    spectrum_from_homogeneity,
    spectrum_orthogonality_defect,
    verify_spectrum_witness,
    verify_tiling_pair,
    verify_tiling_witness,
    zero_sphere_scan,
)


# Folds of many residues through many levels: each took 3 s to 12 s, or ran until killed after 8 s
_DEEP_TREE = "is_p_homogeneous(CompactOpenSet.make(PrimeContext(2), -2047, 4094, range(0, 3 * 2**16, 3)))"
_DEEP_SCAN = "zero_sphere_scan(UniformDiscreteSet(PrimeContext(2), 1000, tuple(range(4096))), range(-1000, 1001))"
_DEEP_SPECTRUM = "verify_spectrum_witness(PrimeContext(2), 2000, range(16384), [x << 1980 for x in range(16384)])"
# The two folds of a set's classes through its levels: the spectral check's valuations of D - D, and the level counts
# that the zero orders are read from
_DEEP_VALUATIONS = "decide._valuations(2, 2000, tuple(range(1, 16385)))"
_DEEP_LEVELS = "cyclotomic._zero_orders(2, 2000, cyclotomic._level_counts(2, 2000, range(1, 16385)))"


@pytest.mark.parametrize("call, names", [
    pytest.param("CompactOpenSet.make(PrimeContext(2), 0, 1, [1]).digits_in_frame(0, 10**6)",
                 "p=2, levels=999999, q = 2^999999 > 262144", id="digits_in_frame"),
    pytest.param("verify_spectrum_witness(PrimeContext(2), 10**5, [0, 1], [0, 2**99999])",
                 "of at most 2048 bits: p=2, M=100000", id="verify_spectrum_witness"),
    pytest.param("frame_branching_set(2, 10**6, [0, 1])",
                 "a digit-tree test is limited to p^|M| of at most 4096 bits: p=2, M=1000000",
                 id="frame_branching_set"),
    pytest.param("verify_tiling_witness(3, 10**8, [0], [0])",
                 "a tiling check is limited to p^|M| of at most 2048 bits: p=3, M=100000000",
                 id="verify_tiling_witness"),
    pytest.param("CompactOpenSet.make(PrimeContext(3), 0, 1, [1]).digits_in_frame(-10**8, 10**8 + 1)",
                 "a refined frame is limited to p^|v2| of at most 2048 bits: p=3, v2=-100000000",
                 id="digits_in_frame_far_above"),
    pytest.param("zero_sphere_scan(UniformDiscreteSet.make(PrimeContext(2), 0, [0, 1]), range(-10**6, 0, 10**5))",
                 "of at most 2048 bits: p=2, depth=1000000", id="zero_sphere_scan_far_level"),
    pytest.param("homogeneous_census_size(2, 40, range(39))",
                 "a census size is limited to q <= 262144: p=2, M=40", id="homogeneous_census_size"),
    pytest.param("spectrum_orthogonality_defect(2, 10**9, [0, 1], [0, 1])",
                 "a spectrum check is limited to p^|M| of at most 2048 bits: p=2, M=1000000000",
                 id="spectrum_orthogonality_defect"),
    # it built its one-element spectrum, p**(M - 1), before it bounded M: 6.4 s and 779 MB
    pytest.param("spectrum_from_homogeneity(DigitSet.make(PrimeContext(2), 10**9, [0]), [0])",
                 "a spectrum check is limited to p^|M| of at most 2048 bits: p=2, M=1000000000",
                 id="spectrum_from_homogeneity"),
    pytest.param("complement_from_homogeneity(DigitSet.make(PrimeContext(2), 10**9, [0]), [])",
                 "a digit lattice is limited to q <= 262144: p=2, levels=1000000000",
                 id="complement_from_homogeneity"),
    pytest.param("UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]).residues(2, 10**9)",
                 "a residue list is limited to p^|m| of at most 4115 bits: p=2, m=1000000000",
                 id="residues_deep"),
    pytest.param("UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]).residues(10**9, 2)",
                 "a residue scale is limited to p^|w - window_exp| of at most 2048 bits: p=2, "
                 "w - window_exp=999999998", id="residues_far_scale"),
    pytest.param("UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]).count_in_ball(0, -10**9)",
                 "a ball count is limited to p^|m| of at most 4115 bits: p=2, m=1000000002",
                 id="count_in_ball"),
    pytest.param("Ball.make(PrimeContext(2), 0, 10**9, 1)",
                 "a ball is limited to p^|M| of at most 2048 bits: p=2, M=1000000000", id="Ball.make_M"),
    pytest.param("Ball.make(PrimeContext(3), 10**9, 0, 0).measure()",
                 "a ball is limited to p^|v| of at most 2048 bits: p=3, v=1000000000", id="Ball.measure"),
    # two balls, one nested in the other or far apart, whose union is more digits than a frame may hold
    pytest.param("normalize_set(PrimeContext(2), [Ball.make(PrimeContext(2), 0, 40, 1), "
                 "Ball.make(PrimeContext(2), 0, 0, 0)])",
                 "normalizing a union of balls is limited to q <= 262144: p=2, levels below a ball=40",
                 id="normalize_set"),
    pytest.param("normalize_set(PrimeContext(2), [Ball.make(PrimeContext(2), 2047, 0, 0), "
                 "Ball.make(PrimeContext(2), -2047, 0, 0)])",
                 "normalizing a union of balls is limited to q <= 262144: p=2, levels below a ball=4094",
                 id="normalize_set_far_apart"),
    pytest.param("verify_spectral_pair(CompactOpenSet.make(PrimeContext(3), 0, 1, [0]), "
                 "UniformDiscreteSet.make(PrimeContext(3), 2, [0, 1]), -10**9).verified_window.measure()",
                 "a ball's measure is limited to p^|v + M| of at most 4096 bits: p=3, v + M=1000000000",
                 id="report_window_measure"),
    # raised at once before the measure was built from ints too; an int p**(v + M) would run until killed
    pytest.param("CompactOpenSet(PrimeContext(3), 10**9, 0, (0,)).measure()",
                 "a power of p is limited to p^|e| of at most 4096 bits: p=3, e=-1000000000",
                 id="CompactOpenSet.measure"),
    pytest.param("CyclotomicSum.make(PrimeContext(2), 10**9, {1: 1})",
                 "a cyclotomic sum is limited to p^|n| of at most 4096 bits: p=2, n=1000000000",
                 id="CyclotomicSum.make"),
    # these three formed p^m with no bound: m = 10^7 took 4.7 MB, so the residue's 10^10 would ask for 4.7 GB
    pytest.param("PrimeContext(2).residue(5, 10**10)",
                 "a residue is limited to p^|m| of at most 4115 bits: p=2, m=10000000000", id="residue"),
    pytest.param("cyclotomic.vanishes(2, 10**9, {1: 1})",
                 "a zero test is limited to p^|n| of at most 4096 bits: p=2, n=1000000000", id="vanishes"),
    pytest.param("cyclotomic.residue_counts(2, 10**9, [1])",
                 "a residue count is limited to p^|m| of at most 4096 bits: p=2, m=1000000000",
                 id="residue_counts"),
    # refused before as well, but checked only through the CLI's spectrum-to-tiling --lift-exp 18
    pytest.param("lifted_spectrum(CompactOpenSet.make(PrimeContext(2), 0, 2, [0, 3]), 18)",
                 "p=2, k=18, q = 2·2^18 > 262144", id="lifted_spectrum"),
    pytest.param("n_f_of(CompactOpenSet.make(PrimeContext(2), 0, 16, range(0, 2**16, 3)))",
                 "n_f_of is limited to 26214400 units of digit-difference work "
                 "(|D|^2 + min(|D|^2, p^M)·(8 + bits // 128)): |D| = 21846, p=2, M=16", id="n_f_of_dense"),
    pytest.param("verify_spectral_pair(CompactOpenSet.make(PrimeContext(2), 0, 16, range(0, 2**16, 3)), "
                 "UniformDiscreteSet.make(PrimeContext(2), 16, [0]), 0)",
                 "a spectral check at window_exp=0 is limited to 26214400 units of digit-difference work "
                 "(|D|^2 + min(|D|^2, p^M)·(8 + bits // 128)): |D| = 21846, p=2, M=16",
                 id="verify_spectral_pair_dense"),
    # the lattice bound counted the free levels one exponent at a time: 2.2-2.5 s each at k = 5·10^7
    pytest.param("pairs._lattice_truncation(PrimeContext(2), [0], 40, 40)",
                 "a truncation of 1 integers at depth k is limited to q <= 262144: p=2, k=40, q = 2^40 > 262144",
                 id="lattice_truncation"),
    pytest.param("pairs._lattice_truncation(PrimeContext(2), [0], 10**12, 10**12)",
                 "a truncation of 1 integers at depth k is limited to q <= 262144: p=2, k=1000000000000",
                 id="lattice_truncation_far"),
    pytest.param("CompactOpenSet.make(PrimeContext(2), 0, 1, [0]).digits_in_frame(0, 10**12)",
                 "a refined frame is limited to q <= 262144: p=2, levels=999999999999", id="digits_in_frame_far"),
    pytest.param("lifted_spectrum(CompactOpenSet.make(PrimeContext(2), 0, 1, [0]), 10**12)",
                 "p=2, k=1000000000000, q = 2^1000000000000 > 262144", id="lifted_spectrum_far"),
    pytest.param("lifted_tiling_complement(CompactOpenSet.make(PrimeContext(2), 0, 1, [0]), 10**12)",
                 "p=2, k=1000000000000, q = 2·2^1000000000000 > 262144", id="lifted_tiling_complement_far"),
    pytest.param("lifted_tiling_complement(CompactOpenSet.make(PrimeContext(2), 0, 2, [0, 3]), 18)",
                 "p=2, k=18, q = 2·2^18 > 262144", id="lifted_tiling_complement"),
    pytest.param(_DEEP_TREE, "a digit-tree test is limited to 1048576 classes (count·(levels - e), "
                 "p^e <= count < p^(e+1)): p=2, count=65536, levels=4094", id="is_p_homogeneous_deep"),
    pytest.param(_DEEP_SCAN, "a level fold is limited to 1048576 classes (count·(levels - e), "
                 "p^e <= count < p^(e+1)): p=2, count=4096, levels=2000", id="zero_sphere_scan_deep"),
    pytest.param(_DEEP_SPECTRUM, "p=2, count=16384, levels=2000", id="verify_spectrum_witness_deep"),
    pytest.param(_DEEP_VALUATIONS, "p=2, count=16384, levels=2000", id="valuations_deep"),
    pytest.param(_DEEP_LEVELS, "p=2, count=16384, levels=2000", id="level_counts_deep"),
])
def test_a_call_that_ran_until_killed_raises_scope_too_large_at_once(api_child, call, names):
    # each was still running when a 5 s timeout ended it, unless its row says otherwise
    name, message, seconds = api_child.run(call)
    assert name == "ScopeTooLarge" and names in message and seconds < 1


def test_each_argument_is_read_once():
    # each case read its argument twice, so a one-shot iterable was used up by the int check: the tiling
    # check raised TypeError on a tiling of Z/2, as did the spectrum check on a spectrum, the numeric guard
    # read C as empty (0.0, against 1.0 for the list), and the constructors failed with "levels=[]"
    ctx = PrimeContext(2)
    assert verify_tiling_witness(2, 1, (x for x in [0]), [0, 1])
    assert verify_spectrum_witness(ctx, 1, (x for x in [0, 1]), [0, 1])
    assert spectrum_orthogonality_defect(2, 1, (x for x in [0]), [0, 1]) == 1.0
    assert spectrum_orthogonality_defect(2, 1, [0], [0, 1]) == 1.0
    C = DigitSet.make(ctx, 2, [0, 1])
    assert complement_from_homogeneity(C, (x for x in [0])).elements == (0, 2)
    assert spectrum_from_homogeneity(C, (x for x in [0])).elements == (0, 2)
    # a bool digit was stored as it came and printed as true, which from_json_dict refuses
    om = CompactOpenSet.make(ctx, 0, 2, [True, 2])
    assert json.dumps(om.to_json_dict()["digits"]) == "[1, 2]"
    assert CompactOpenSet.from_json_dict(json.loads(json.dumps(om.to_json_dict()))) == om
    assert DigitSet.make(ctx, 2, [True, 2]).C == (1, 2) and type(DigitSet.make(ctx, 2, [True]).C[0]) is int


def test_a_refined_frame_bounds_the_digits_it_builds_in_all():
    # each digit was bounded alone: 4 digits refined by 17 levels built 524,288 digits, twice the limit
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 3, [0, 1, 2, 5])
    with pytest.raises(ScopeTooLarge, match=r"a refined frame is limited to q <= 262144: p=2, levels=17, "
                                            r"q = 4·2\^17 > 262144"):
        om.digits_in_frame(0, 20)
    assert len(om.digits_in_frame(0, 19)) == 2**18
    # a refinement that adds no level only rescales the digits
    assert CompactOpenSet.make(ctx, 1, 2, [1, 3]).digits_in_frame(-1, 4) == (4, 12)


def test_a_refinement_that_adds_no_level_rescales_a_frame_of_any_size():
    # the bound is on |D|·p^levels; with no level added there is no lattice tail, so none applies
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 3, 20, range(2**18 + 1))
    assert len(om.digits) == 2**18 + 1
    assert om.digits_in_frame(1, 22) == tuple(4 * d for d in range(2**18 + 1))


def test_the_fold_bound_counts_the_levels_past_those_where_the_classes_must_merge():
    # count·(levels - e) with p^e <= count < p^(e+1): 2^10 residues through 2^10 + 10 levels keep 2^20 classes
    padic._check_fold(2, 2**10, 2**10 + 10, "a fold")
    padic._check_fold(3, 3**12, 13, "a fold")  # 3^12 is at most p^levels
    with pytest.raises(ScopeTooLarge, match=r"^a fold is limited to 1048576 classes .*: p=2, count=1024, "
                                            r"levels=1035$"):
        padic._check_fold(2, 2**10, 2**10 + 11, "a fold")
    with pytest.raises(ScopeTooLarge, match=r"p=2, count=1025, levels=1034$"):
        padic._check_fold(2, 2**10 + 1, 2**10 + 10, "a fold")


def test_the_fold_bound_admits_every_fold_the_library_makes_within_its_other_limits():
    # the scan of a lifted spectrum of 2^18 elements at window 19 (2^15 digits on a frame of depth 16), and the
    # deepest canonical digit tree; T1 and the recheck on all of Z/2^18 are in tests/test_cli.py
    ctx = PrimeContext(2)
    lam = lifted_spectrum(CompactOpenSet.make(ctx, 0, 16, range(2**15)), 3)
    assert (len(lam.numerators), lam.window_exp) == (2**18, 19)
    statuses = zero_sphere_scan(lam, range(16))
    # the branching levels 0..14 of the digit tree are the zero spheres, and level 15 is not
    assert [n for n, s in statuses.items() if s is SphereStatus.IN_ZERO_SET] == list(range(15))
    assert is_p_homogeneous(CompactOpenSet.make(ctx, -2047, 4094, [1])) == (True, frozenset())


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


def test_the_digit_tree_test_refuses_a_float():
    # returned frozenset({0}): the classes 0.5 and 1.5 mod 4 were read as two leaves first apart at level 0
    with pytest.raises(ValueError, match=r"element 0\.5 of digits is not an int"):
        frame_branching_set(2, 2, [0.5, 1.5])
    assert frame_branching_set(2, 2, (x for x in [0, 3])) == frozenset({0})


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


def test_a_failed_spectral_check_far_below_its_window_returns_at_once(api_child):
    # ran until killed: the report named its failing xi as t * p**-window_exp, forming 2**(10**9) for t = 0
    call = ("verify_spectral_pair(CompactOpenSet.make(PrimeContext(2), 0, 2, [0, 1]), "
            "UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]), -10**9)")
    name, _, seconds = api_child.run(call)
    assert name == "returned" and seconds < 1
    report = eval(call, vars(padictiles))
    assert report.status == "FailedAt" and report.failure.xi == 0


def test_the_numeric_guard_refuses_a_float_or_a_string():
    # returned 0.0, read as "orthogonal", for the float; the string ended in a TypeError
    with pytest.raises(ValueError, match=r"element 0\.5 of lam is not an int"):
        spectrum_orthogonality_defect(2, 2, [0, 1], [0, 0.5])
    with pytest.raises(ValueError, match="element '1' of C is not an int"):
        spectrum_orthogonality_defect(2, 2, [0, "1"], [0, 2])
    assert spectrum_orthogonality_defect(2, 2, [0, 1], [0, 2]) < 1e-9


def test_the_sphere_scan_refuses_a_level_that_is_not_an_int():
    with pytest.raises(ValueError, match=r"^element -0\.5 of levels is not an int$"):
        zero_sphere_scan(UniformDiscreteSet.make(PrimeContext(2), 0, [0, 1]), [-0.5, -1])
    with pytest.raises(ValueError, match=r"^element 0\.5 of k_range is not an int$"):
        density(UniformDiscreteSet.make(PrimeContext(2), 0, [0, 1]), 0, [0.5, 0])
    got = zero_sphere_scan(UniformDiscreteSet.make(PrimeContext(2), 0, [0, 1]), iter([-1, 0]))
    assert got == {-1: SphereStatus.IN_ZERO_SET, 0: SphereStatus.NOT_IN_ZERO_SET}


def test_the_census_size_refuses_a_level_that_is_not_an_int():
    # returned 32
    with pytest.raises(ValueError, match=r"element 0\.5 of levels is not an int in range\(M\) = range\(3\)"):
        homogeneous_census_size(2, 3, [0.5])
    with pytest.raises(ValueError, match=r"element -1 of levels is not an int in range\(M\)"):
        homogeneous_census_size(2, 3, [-1])
    assert homogeneous_census_size(2, 3, (j for j in [1])) == homogeneous_census_size(2, 3, {1}) == 8


def test_the_residue_bound_takes_every_depth_a_tiling_check_asks_for():
    # the translates at window 2047 are reduced mod 2^(2047 + 2065) for a check 18 levels below a ball
    # of scale 2047; one level more is refused by the cell count, before any residue
    ctx = PrimeContext(2)
    omega, translates = CompactOpenSet.make(ctx, 2047, 0, [0]), UniformDiscreteSet.make(ctx, 2047, [0])
    assert verify_tiling_pair(omega, translates, -2065).status == "Verified"
    with pytest.raises(ScopeTooLarge, match="p=2, cell depth=19"):
        verify_tiling_pair(omega, translates, -2066)


def test_a_ball_takes_v_up_to_the_exponent_limit():
    # 2^2047 has 2048 bits; the far balls of test_a_call_that_ran_until_killed_... are refused the same way
    ctx = PrimeContext(2)
    with pytest.raises(ScopeTooLarge, match=r"a ball is limited to p\^\|v\| of .* bits: p=2, v=-2048$"):
        Ball.make(ctx, -2048, 0, 0)
    deepest = Ball.make(ctx, 2047, 2047, 1)
    assert (deepest.v, deepest.M, deepest.c) == (2047, 2047, 1) and deepest.measure() == ctx.pow(-4094)


def test_a_valuation_in_the_thousands_of_digits_takes_no_time(api_child):
    # p was divided out one at a time: 2.9 s for each element of valuation 10**5, so four ran until killed
    name, _, seconds = api_child.run("[PrimeContext(2).frac_exponent(padic.Fraction(1, x)) for x in [2**100000, "
                                     "3 * 2**99999, 2**99998, 5 * 2**99997]]")
    assert name == "returned" and seconds < 1
    assert PrimeContext(3).frac_exponent(padic.Fraction(1, 5 * 3**100000))[0] == 100000
    assert padic._capped_valuation(3, 5 * 3**100000, 10**6) == 100000 and padic._capped_valuation(2, 7, 3) == 0


def test_the_digit_readers_refuse_a_digit_that_is_not_an_int():
    # each read a digit through int(): the first set was {0, 1, 2, 3}, a tile and spectral, the second
    # DigitSet had C == (1, 3), the CompactOpenSet had digits (0, 1), and the ball had c = 1.5 and held 1.5
    ctx = PrimeContext(2)
    with pytest.raises(ValueError, match=r"element 0\.5 of digits is not an int"):
        DigitSet.make(ctx, 2, [0.5, 1.7, 2, 3])
    with pytest.raises(ValueError, match="element '3' of digits is not an int"):
        DigitSet.make(ctx, 2, ["3", 1.9])
    with pytest.raises(ValueError, match=r"element 0\.9 of digits is not an int"):
        CompactOpenSet.make(ctx, 0, 2, [0.9, 1.2])
    with pytest.raises(ValueError, match=r"a ball takes an int c: c=1\.5"):
        Ball.make(ctx, 0, 2, 1.5)
    # 1.0 == 1, so a set of the digits would keep the int and drop the float unread
    with pytest.raises(ValueError, match=r"element 1\.0 of digits is not an int"):
        DigitSet.make(ctx, 2, [1, 1.0])
    assert DigitSet.make(ctx, 2, (d for d in [3, 1, 3])).C == (1, 3)
    assert Ball.make(ctx, 0, 2, 5).c == 1 and normalize_set(ctx, [Ball.make(ctx, 0, 2, 5)]).digits == (1,)


def test_a_digit_past_a_huge_depth_names_p_and_m():
    # the message printed p**M: "Exceeds the limit (4300 digits) for integer string conversion"
    with pytest.raises(ValueError, match=r"elements outside \[0, p\*\*M\): p=2, M=100000$"):
        DigitSet.make(PrimeContext(2), 10**5, [2**200000])
    with pytest.raises(ValueError, match=r"a frame takes an int M >= 0: M=-1$"):
        CompactOpenSet.make(PrimeContext(3), 0, -1, [0])


def test_an_empty_digit_list_is_an_empty_set():
    # DigitSet.make raised a plain ValueError; EmptySet is one, defined once
    assert padictiles.EmptySet is copen.EmptySet is padic.EmptySet
    with pytest.raises(EmptySet, match="a frame needs at least one digit"):
        DigitSet.make(PrimeContext(2), 2, [])
    with pytest.raises(EmptySet):
        CompactOpenSet.make(PrimeContext(2), 0, 2, iter([]))


# The API that no command, pipeline or benchmark reached, deleted with its README entry (API change: API-only
# code is gone): module-level names, then methods
_DELETED_NAMES = ["vanishing_level_set", "ball_member", "ball_relation", "BallRelation", "INF", "l_truncation"]
_DELETED_METHODS = [(Ball, "around"), (Ball, "center"), (Ball, "radius_exp"), (PrimeContext, "valuation"),
                    (CompactOpenSet, "member"), (CompactOpenSet, "balls")]


def test_every_exported_name_resolves_and_no_deleted_name_does():
    # a name left in __all__ after its definition goes makes `from padictiles import *` raise AttributeError
    modules = [padictiles, *(getattr(padictiles, m) for m in ("padic", "cyclotomic", "copen", "decide", "pairs"))]
    for module in modules:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__
        assert [n for n in _DELETED_NAMES if hasattr(module, n)] == [], module.__name__
    assert [(cls.__name__, n) for cls, n in _DELETED_METHODS if hasattr(cls, n)] == []
    exec("from padictiles import *", {})


@pytest.mark.parametrize("p, deepest", [(2, 4095), (3, 2584)])
def test_the_digit_tree_test_takes_every_depth_a_canonical_frame_may_have(p, deepest):
    # |v| and |v + M| of a canonical frame each fit in 2048 bits, so M reaches 4094 for p = 2, 2584 for p = 3
    start = time.perf_counter()
    assert frame_branching_set(p, deepest, range(p)) == frozenset({0})
    assert time.perf_counter() - start < 1
    with pytest.raises(ScopeTooLarge, match=f"of at most 4096 bits: p={p}, M={deepest + 1}$"):
        frame_branching_set(p, deepest + 1, [0, 1])
    with pytest.raises(ValueError, match="^a digit-tree test takes an int M >= 0: M=-1$"):
        frame_branching_set(p, -1, [0, 1])


def test_a_union_refines_to_the_frame_of_its_lowest_v():
    # the frame (-10, 2050) holds a digit of 2,050 bits; v2 = -10 is within the exponent limit
    ctx = PrimeContext(2)
    om = normalize_set(ctx, [Ball.make(ctx, -10, 2047, 1), Ball.make(ctx, 2040, 0, 0)])
    assert (om.v, om.M, len(om.digits)) == (-10, 2050, 9)


_NOT_A_NUMBER = [("float('inf')", "float"), ("float('nan')", "float"), ("0.5", "float"), ("'1/2'", "str")]


@pytest.mark.parametrize("call", ["UniformDiscreteSet.make(PrimeContext(2), 0, [0, {x}])",
                                  "UniformDiscreteSet.make(PrimeContext(3), -1, iter([3, {x}]))"])
@pytest.mark.parametrize("x, kind", _NOT_A_NUMBER, ids=[x for x, _ in _NOT_A_NUMBER])
def test_the_element_reader_refuses_what_is_not_an_int_or_a_fraction(call, x, kind):
    # inf ended in an OverflowError, which is not a ValueError, and 0.5 and '1/2' were read as 1/2
    with pytest.raises(ValueError, match=f"^element 1 is a {kind}, not an int or a Fraction$"):
        eval(call.format(x=x), vars(padictiles))


def test_a_window_refusal_names_the_position_of_the_element_not_its_digits():
    # raised a plain ValueError, "Exceeds the limit (4300 digits) for integer string conversion", in
    # printing the element
    with pytest.raises(WindowTooSmall, match=r"^element 1 lies outside the window B\(0, p\*\*2047\)$"):
        UniformDiscreteSet.make(PrimeContext(2), 2047, [0, padic.Fraction(1, 2**10**5)])
    with pytest.raises(WindowTooSmall, match=r"^element 2 lies outside the window B\(0, p\*\*-2\)$"):
        UniformDiscreteSet.make(PrimeContext(3), -2, [0, 9, 6])


@pytest.mark.parametrize("call, name", [
    pytest.param("UniformDiscreteSet.make(PrimeContext(2), 0, [2**(2*10**6)])", "returned", id="make_deep_int"),
    pytest.param("zero_sphere_scan(UniformDiscreteSet.make(PrimeContext(2), 0, [2**(2*10**6), 0]), [0])", "returned",
                 id="zero_sphere_scan_deep_int"),
    pytest.param("Ball.make(PrimeContext(2), 0, 10, 2**(2*10**6))", "returned", id="Ball.make_deep_int"),
    pytest.param("UniformDiscreteSet.make(PrimeContext(2), 2047, [padic.Fraction(1, 2**10**7)])", "WindowTooSmall",
                 id="make_deep_denominator"),
    pytest.param("UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]).count_in_ball("
                 "padic.Fraction(1, 2**(2*10**6)), 0)", "ScopeTooLarge", id="count_in_ball_deep_denominator"),
])
def test_an_element_of_a_deep_valuation_is_read_at_once(api_child, call, name):
    # each took 12-13 s in a full valuation of the element, or ran until killed after 3 minutes
    got, message, seconds = api_child.run(call)
    assert got == name and seconds < 1, message


_DEEP = "2**(2*10**6)"


@pytest.mark.parametrize("call", [
    pytest.param(f"copen.indicator_fourier(CompactOpenSet.make(PrimeContext(2), 0, 2, [1, 2]), {_DEEP})",
                 id="indicator_fourier"),
    pytest.param(f"copen.indicator_fourier(CompactOpenSet.make(PrimeContext(2), 0, 2, [1, 2]), "
                 f"padic.Fraction(1, {_DEEP}))",
                 id="indicator_fourier_deep_denominator"),
    pytest.param(f"density(UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]), {_DEEP}, [0, 2])", id="density"),
    pytest.param(f"UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]).count_in_ball({_DEEP}, 0)", id="count_in_ball"),
    pytest.param(f"copen.autocorrelation(CompactOpenSet.make(PrimeContext(2), 0, 2, [1, 2]), {_DEEP})",
                 id="autocorrelation"),
    # a point of valuation 0 against a bound of as many bits: a capped valuation by gcd with p**(bound + 1) took 9.4 s
    pytest.param("padic._valuation_at_least(2, padic.Fraction(3**1262000), 2*10**6)",
                 id="valuation_at_least_far_bound"),
])
def test_a_point_of_a_deep_valuation_is_compared_with_its_bound_at_once(api_child, call):
    # indicator_fourier took 11.5-11.8 s in a full valuation of the point
    name, message, seconds = api_child.run(call)
    assert name == "returned" and seconds < 1, message


def test_a_clamped_comparison_answers_as_the_full_valuation():
    # the calls above compare v_p of a point with a bound through padic._valuation_at_least or _clamped_valuation
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 2, [1, 2])
    assert copen.autocorrelation(om, 2**4000) == copen.autocorrelation(om, 0) == om.measure()
    assert copen.autocorrelation(om, 1 + 2**4000) == copen.autocorrelation(om, 1)
    assert UniformDiscreteSet.make(ctx, 2, [0, 1]).count_in_ball(2**4000, 0) == 2
    assert UniformDiscreteSet.make(ctx, 2, [0, 1]).count_in_ball(2**4000 + 1, -1) == 1
    assert copen.indicator_fourier(om, 2**4000) == copen.indicator_fourier(om, 0)
    assert copen.indicator_fourier(om, padic.Fraction(1, 2**4000)).sum.coeffs == {}
    e = UniformDiscreteSet.make(ctx, 2, [0, 1])
    assert density(e, 2**4000, [0, 2]) == density(e, 0, [0, 2])
    with pytest.raises(WindowTooSmall, match=r"^the ball of radius p\*\*0 about x0 is not contained in the "
                                             r"window B\(0, p\*\*2\)$"):
        density(e, padic.Fraction(1, 2**4000), [0, 2])
    with pytest.raises(WindowTooSmall, match=r"radius p\*\*3 about x0"):
        density(e, 0, [1, 3])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-40, 40), st.integers(1, 30), st.integers(-60, 60))
@example(2, 0, 1, 0)
@example(3, -5, 1, 10**9)
@example(3, 5, 1, -10**9)
def test_the_clamped_comparison_equals_the_full_valuation(p, v, unit, K):
    # unit is made prime to p, so x = p**v * unit has valuation v; 0 is at least every bound
    unit += unit % p == 0
    x = padic.Fraction(unit) * PrimeContext(p).pow(v)
    assert padic._valuation_at_least(p, x, K) == (v >= K)
    assert padic._valuation_at_least(p, padic.Fraction(0), K)
    k = min(abs(K), 100)
    assert padic._capped_valuation(p, x.numerator * x.denominator, k) == min(abs(v), k)
    assert padic._capped_valuation(p, 0, k) == k


def test_a_capped_valuation_answers_as_the_full_one_or_refuses_a_value_past_the_exponent_limit():
    ctx = PrimeContext(2)
    e = UniformDiscreteSet.make(ctx, 0, [2**4000, 0])
    assert e.numerators == (0, 2**4000) and e.count_in_ball(2**4000, 0) == 2 and e.count_in_ball(2**4000, -4001) == 1
    # this was refused after a full valuation, naming w - window_exp=3998
    with pytest.raises(ScopeTooLarge, match="w - window_exp=2048$"):
        UniformDiscreteSet.make(ctx, 2, [0, 1]).count_in_ball(padic.Fraction(1, 2**4000), 0)



# A hostile size for a depth, a scale v or a window: small, at or just past a limit for p = 2 or 3,
# or anything up to 10^9 in size
_SIZE = st.one_of(st.integers(-4, 24), st.sampled_from([1292, 1293, 2047, 2048, 2584, 2585, 4094, 4095, 4096]),
                  st.integers(-10**9, 10**9)).map(str)
# A digit as an expression: small, or a power of 2 of up to 10^5 bits give or take one; a digit list
# holds ints only, or may hold something else too
_DIGIT = st.one_of(st.integers(-2, 64).map(str), st.builds("2**{}+{}".format, st.integers(0, 10**5),
                                                           st.integers(-1, 1)))
_DIGITS = st.one_of(st.lists(_DIGIT, min_size=1, max_size=6),
                    st.lists(st.one_of(_DIGIT, st.sampled_from(["0.5", "'3'", "True"])), max_size=6),
                    ).map(lambda ds: f"[{', '.join(ds)}]")
_LEVELS = st.lists(_SIZE, max_size=4).map(lambda ls: f"[{', '.join(ls)}]")
_RANGE = st.builds("range({}, 2**{}, {})".format, st.integers(0, 3), st.integers(0, 17), st.integers(1, 5))

# Every public call that takes a depth, a frame, a window or a digit list; {S}, {O} and {E} are the
# digit set, compact open set and truncation built from the drawn p, v, M and C, and {R} a range of up
# to 2^17 digits, which also feeds the level folds at deep frames
_CALLS = [
    "DigitSet.make(PrimeContext({p}), {M}, {C})",
    "CompactOpenSet.make(PrimeContext({p}), {v}, {M}, {C})",
    "{O}.digits_in_frame({v2}, {M2})",
    "Ball.make(PrimeContext({p}), {v}, {M}, {c})",
    "normalize_set(PrimeContext({p}), [Ball.make(PrimeContext({p}), {v}, {M}, {c}), "
    "Ball.make(PrimeContext({p}), {v2}, {M2}, 1)])",
    "frame_branching_set({p}, {M}, {C})",
    "is_p_homogeneous({O})",
    "n_f_of({O})",
    "verify_tiling_witness({p}, {M}, {C}, {T})",
    "verify_spectrum_witness(PrimeContext({p}), {M}, {C}, {T})",
    "spectrum_orthogonality_defect({p}, {M}, {C}, {T})",
    "is_tile_zmod({S})",
    "is_spectral_zmod({S})",
    "spectrum_from_homogeneity({S}, {L})",
    "complement_from_homogeneity({S}, {L})",
    "homogeneous_census_size({p}, {M}, {L})",
    "classify_all({p}, {M}, 'sample', 1)",
    "UniformDiscreteSet.make(PrimeContext({p}), {v}, {C})",
    "zero_sphere_scan({E}, {L})",
    "density({E}, 0, {L})",
    "verify_tiling_pair({O}, {E}, {v2})",
    "verify_spectral_pair({O}, {E}, {v2})",
    "spectrum_to_tiling_complement({O}, {E}, {v2})",
    "lifted_spectrum({O}, {M2})",
    "lifted_tiling_complement({O}, {M2})",
    "{E}.residues({v}, {M})",
    "{E}.count_in_ball({c}, {v})",
    "Ball.make(PrimeContext({p}), {v}, {M}, {c}).measure()",
    "verify_spectral_pair({O}, {E}, {v2}).verified_window.measure()",
    "CyclotomicSum.make(PrimeContext({p}), {M}, {{{c}: 1}})",
    "n_f_of(CompactOpenSet.make(PrimeContext({p}), 0, 40, {R}))",
    "frame_branching_set({p}, 2584, {R})",
    "is_p_homogeneous(CompactOpenSet.make(PrimeContext({p}), -1200, 2400, {R}))",
    "verify_spectrum_witness(PrimeContext({p}), 1290, {R}, {R})",
    "zero_sphere_scan(UniformDiscreteSet.make(PrimeContext({p}), 640, {R}), range(-640, 641))",
]


@st.composite
def _api_call(draw):
    sizes = {k: draw(_SIZE) for k in ("v", "M", "v2", "M2")}
    args = dict(p=draw(st.sampled_from(["2", "3", "5"])), C=draw(_DIGITS), T=draw(_DIGITS), c=draw(_DIGIT),
                L=draw(_LEVELS), R=draw(_RANGE), **sizes)
    args.update(S="DigitSet.make(PrimeContext({p}), {M}, {C})".format(**args),
                O="CompactOpenSet.make(PrimeContext({p}), {v}, {M}, {C})".format(**args),
                E="UniformDiscreteSet.make(PrimeContext({p}), {v2}, {T})".format(**args))
    return draw(st.sampled_from(_CALLS)).format(**args)


@settings(max_examples=300, deadline=None)
@given(call=_api_call())
@example(call="frame_branching_set(2, 10**6, [0, 1])")
@example(call="homogeneous_census_size(2, 10**9, [])")
@example(call="spectrum_from_homogeneity(DigitSet.make(PrimeContext(2), 10**9, [0]), [0])")
@example(call="UniformDiscreteSet.make(PrimeContext(3), 2, [0, 1]).residues(2, 10**9)")
@example(call="UniformDiscreteSet.make(PrimeContext(3), 2, [0, 1]).count_in_ball(0, -10**9)")
@example(call="Ball.make(PrimeContext(3), 10**9, 0, 0).measure()")
@example(call="n_f_of(CompactOpenSet.make(PrimeContext(2), 0, 16, range(0, 2**16, 3)))")
@example(call=_DEEP_TREE)
@example(call=_DEEP_SCAN)
@example(call=_DEEP_SPECTRUM)
@example(call="CompactOpenSet.make(PrimeContext(2), 0, 1, [0]).digits_in_frame(0, 10**12)")
@example(call="lifted_spectrum(CompactOpenSet.make(PrimeContext(2), 0, 1, [0]), 10**12)")
@example(call="lifted_tiling_complement(CompactOpenSet.make(PrimeContext(2), 0, 1, [0]), 10**12)")
@example(call="UniformDiscreteSet.make(PrimeContext(2), 2, [0, 1]).count_in_ball(padic.Fraction(1, 2**(2*10**6)), 0)")
def test_fuzz_public_calls_with_hostile_sizes_return_at_once(api_child, call):
    # a call still running after 10 s fails by name in api_child.run
    name, message, _ = api_child.run(call)
    assert name not in ("MemoryError", "RecursionError", "SystemError"), (call, message)
