from __future__ import annotations

import cmath
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import v_p
from padictiles.copen import (
    CompactOpenSet,
    EmptySet,
    ScaledCyclotomic,
    autocorrelation,
    frame_branching_set,
    indicator_fourier,
    is_p_homogeneous,
    local_constancy_parameter,
    normalize_set,
)
from padictiles.cyclotomic import CyclotomicSum
from padictiles.padic import Ball, PrimeContext, ScopeTooLarge, _reduce_frame


def _random_set(rng, p, max_m=3):
    ctx = PrimeContext(p)
    v = rng.randint(-2, 2)
    m = rng.randint(0, max_m)
    count = rng.randint(1, p**m)
    digits = rng.sample(range(p**m), count)
    return CompactOpenSet.make(ctx, v, m, digits), (v, m, tuple(sorted(digits)))


def _member(om: CompactOpenSet, x: F) -> bool:
    """x in p**v * (D + p**M Z_p): x - d * p**v has valuation at least v + M for some digit d."""
    return any(v_p(om.context.p, x - d * om.context.pow(om.v)) >= om.v + om.M for d in om.digits)


def test_canonicalization_frozen_cases():
    c2, c3 = PrimeContext(2), PrimeContext(3)
    om = CompactOpenSet.make(c2, 0, 3, (0, 1, 4, 5))
    assert (om.v, om.M, om.digits) == (0, 2, (0, 1))
    om = CompactOpenSet.make(c3, 0, 2, (0, 3, 6))
    assert (om.v, om.M, om.digits) == (1, 0, (0,))
    om = CompactOpenSet.make(c2, 0, 2, (0, 1, 2, 3))  # all of Z_2
    assert (om.v, om.M, om.digits) == (0, 0, (0,))
    assert om.measure() == 1
    om = CompactOpenSet.make(c2, 0, 2, (0, 3))  # already canonical
    assert (om.v, om.M, om.digits) == (0, 2, (0, 3))
    with pytest.raises(EmptySet):
        CompactOpenSet.make(c2, 0, 1, ())


def test_canonicalization_preserves_membership_and_measure():
    rng = random.Random(211)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(120):
            om, (v, m, digits) = _random_set(rng, p)
            assert om.measure() == len(digits) * ctx.pow(-(v + m))
            # canonical frame is never coarser than the set allows
            again = CompactOpenSet.make(ctx, om.v, om.M, om.digits)
            assert again == om
            for _ in range(10):
                x = F(rng.randint(-40, 40), rng.choice([1, p, p * p, 3, 7, 9]))
                raw = any(v_p(p, x - d * ctx.pow(v)) >= v + m for d in digits)
                assert _member(om, x) == raw


def test_digits_in_frame_refinement():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    fine = om.digits_in_frame(-1, 4)
    # each original cell splits into p^(refinement) cells, count scales
    assert len(fine) == len(om.digits) * 2 ** ((-1 + 4) - (0 + 2))
    for f in fine:
        assert _member(om, f * ctx.pow(-1))
    assert om.digits_in_frame(0, 2) == (0, 3)


@pytest.mark.parametrize("v2, M2", [(1, 1), (0, 1), (1, 3), (-1, 2)])
def test_digits_in_frame_refuses_a_frame_that_does_not_refine(v2, M2):
    # the canonical frame of {0, 3} + 4Z_2 is (v, M) = (0, 2): a refinement has v2 <= 0 and v2 + M2 >= 2
    with pytest.raises(ValueError, match="^target frame does not refine the canonical frame$"):
        CompactOpenSet.make(PrimeContext(2), 0, 2, (0, 3)).digits_in_frame(v2, M2)


def _reference_canonical_frame(p, v, M, digits):
    """The fixpoint loop CompactOpenSet.make ran before the frame reducer: merge a level when
    every class mod p**(M-1) has all p children, else shift when p divides every digit."""
    ds = set(digits)
    while M >= 1:
        q = p ** (M - 1)
        groups = {}
        for d in ds:
            groups[d % q] = groups.get(d % q, 0) + 1
        if all(n == p for n in groups.values()):
            ds = set(groups)
            M -= 1
            continue
        if all(d % p == 0 for d in ds):
            ds = {d // p for d in ds}
            v += 1
            M -= 1
            continue
        break
    return v, M, tuple(sorted(ds))


def _reference_ball(p, v, M, c):
    """The loop Ball.make ran before the frame reducer."""
    c %= p**M
    while c != 0 and c % p == 0:
        c //= p
        v += 1
        M -= 1
    if c == 0:
        v += M
        M = 0
    return v, M, c


@st.composite
def _frames(draw):
    """(p, v, M, digits): a random set of the top M - s - k levels, each digit grown into the full
    subtree of the next k levels, then scaled by p**s, and now and then one more random digit."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    M = draw(st.integers(0, 4 if p < 5 else 3))
    s = draw(st.integers(0, M))
    k = draw(st.integers(0, M - s))
    top = draw(st.lists(st.integers(0, p ** (M - s - k) - 1), min_size=1, max_size=12, unique=True))
    digits = {(b + t * p ** (M - s - k)) * p**s for b in top for t in range(p**k)}
    if draw(st.booleans()):
        digits.add(draw(st.integers(0, p**M - 1)))
    return p, draw(st.integers(-3, 3)), M, sorted(digits)


@settings(max_examples=1000, deadline=None)
@given(_frames(), st.data())
def test_reduce_frame_equals_the_fixpoint_loop(frame, data):
    p, v, M, digits = frame
    ctx = PrimeContext(p)
    want = _reference_canonical_frame(p, v, M, digits)
    assert _reduce_frame(p, v, M, set(digits)) == want
    om = CompactOpenSet.make(ctx, v, M, digits)
    assert (om.v, om.M, om.digits) == want
    c = data.draw(st.sampled_from(digits))
    b = Ball.make(ctx, v, M, c)
    assert (b.v, b.M, b.c) == _reference_ball(p, v, M, c)
    # the comprehension digits_in_frame ran before it read the digit lattice
    v2 = om.v - data.draw(st.integers(0, 2))
    M2 = om.v + om.M - v2 + data.draw(st.integers(0, 2))
    f, step = p ** (om.v - v2), p ** (om.v - v2 + om.M)
    tail = p ** (v2 + M2 - om.v - om.M)
    assert om.digits_in_frame(v2, M2) == tuple(sorted(c * f + t * step for c in om.digits for t in range(tail)))


def test_digits_in_frame_is_bounded_by_the_lattice_limit():
    om = CompactOpenSet.make(PrimeContext(2), 0, 1, [1])
    assert len(om.digits_in_frame(0, 19)) == 2**18
    with pytest.raises(ScopeTooLarge, match="p=2, levels=19, q = 2\\^19 > 262144"):
        om.digits_in_frame(0, 20)


def test_digit_cells_partition_the_set():
    # the balls p**v * (d + p**M Z_p) of the digits are pairwise disjoint, and their union is the set
    rng = random.Random(223)
    for p in (2, 3):
        for _ in range(60):
            om, _ = _random_set(rng, p)
            cells = [Ball.make(om.context, om.v, om.M, d) for d in om.digits]
            assert sum(c.measure() for c in cells) == om.measure()
            assert normalize_set(om.context, cells) == om
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    assert normalize_set(om.context, [cells[i], cells[j]]).measure() == 2 * cells[i].measure()


def test_normalize_set_merges_cover():
    ctx = PrimeContext(2)
    quarters = [Ball.make(ctx, 0, 2, c) for c in range(4)]
    om = normalize_set(ctx, quarters)
    assert (om.v, om.M, om.digits) == (0, 0, (0,))
    om = normalize_set(ctx, [Ball.make(ctx, 0, 2, 1), Ball.make(ctx, 0, 2, 3)])
    assert (om.v, om.M, om.digits) == (0, 1, (1,))
    with pytest.raises(EmptySet):
        normalize_set(ctx, [])


def test_json_round_trip_and_warning():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, -1, 2, (1, 2))
    back = CompactOpenSet.from_json_dict(om.to_json_dict())
    assert back == om
    msgs = []
    CompactOpenSet.from_json_dict(
        {"p": 2, "v": 0, "M": 2, "digits": [0, 1, 2, 3]}, warn=msgs.append
    )
    assert msgs  # non-canonical input is reported, not rejected


def test_indicator_fourier_frozen_values():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    val = indicator_fourier(om, F(1, 4))
    assert val.power == -2
    assert val.sum.coeffs == {0: 1, 1: 1}  # 1 + i, scaled by 1/4
    assert val.value_if_rational() is None
    # small xi: character is trivial on the whole set
    val = indicator_fourier(om, 2)
    assert val.value_if_rational() == F(1, 2)
    # xi at the edge of the support dual
    val = indicator_fourier(om, F(1, 2))
    assert val.value_if_rational() == 0  # 1 + chi(-3/2) = 1 - 1


def test_indicator_fourier_vanishes_beyond_support():
    rng = random.Random(227)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(80):
            om, _ = _random_set(rng, p)
            e = om.v + om.M + rng.randint(1, 3)
            t = rng.choice([t for t in range(1, p * p) if t % p])
            val = indicator_fourier(om, F(t) * ctx.pow(-e))
            assert val.sum.is_zero()


def _fourier_quadrature(om: CompactOpenSet, xi: F, extra=3) -> complex:
    # Riemann sum over cells of radius p^-(v+M+extra); exact up to rounding
    # because the integrand is constant on those cells.  The character x ->
    # chi(xi*x) is constant on x + p^k Z_p only once v(xi) + k >= 0, so the
    # resolution grows with |xi|
    ctx = om.context
    v2 = om.v
    m2 = om.M + extra
    if xi != 0:
        m2 = max(m2, -v_p(ctx.p, xi) - v2)
    cell = ctx.pow(-(v2 + m2))
    total = 0j
    for d in om.digits_in_frame(v2, m2):
        x = d * ctx.pow(v2)
        total += cmath.exp(-2j * math.pi * float(ctx.frac_part(xi * x))) * float(cell)
    return total


def test_indicator_fourier_matches_quadrature():
    rng = random.Random(229)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(40):
            om, _ = _random_set(rng, p, max_m=3)
            vm = om.v + om.M
            for _ in range(5):
                # exponents straddling the support cutoff -(v+M)
                e = rng.randint(-abs(vm) - 2, abs(vm) + 2)
                t = rng.randint(1, p**3)
                xi = F(t) * ctx.pow(e)
                val = indicator_fourier(om, xi).numeric()
                assert abs(val - _fourier_quadrature(om, xi)) < 1e-9


def test_fourier_at_zero_is_the_measure():
    rng = random.Random(233)
    for p in (2, 3):
        for _ in range(30):
            om, _ = _random_set(rng, p)
            assert indicator_fourier(om, 0).value_if_rational() == om.measure()


def test_parseval_on_the_frame_duals():
    # sum over j < p^M of |1^(j p^-(v+M+?))|^2 ... for v=0 frames:
    # sum_{j<p^M} |1^(j/p^M)|^2 = measure(Omega)
    for p, m, digits in ((2, 2, (0, 3)), (2, 3, (1, 2, 5)), (3, 2, (0, 4, 7))):
        ctx = PrimeContext(p)
        om = CompactOpenSet.make(ctx, 0, m, digits)
        total = sum(
            abs(indicator_fourier(om, F(j, p**m)).numeric()) ** 2 for j in range(p**m)
        )
        assert abs(total - float(om.measure())) < 1e-9


def test_autocorrelation_frozen_values():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    assert autocorrelation(om, 0) == F(1, 2)
    assert autocorrelation(om, 1) == F(1, 4)
    assert autocorrelation(om, 2) == 0
    assert autocorrelation(om, 3) == F(1, 4)
    assert autocorrelation(om, F(1, 4)) == 0  # shift leaves Z_2 entirely
    assert autocorrelation(om, 4) == F(1, 2)  # 4 = 0 mod 4 maps the set to itself
    # shifts far outside the frame, answered without refining it to 2^40 cells
    assert autocorrelation(om, F(1, 2**40)) == 0
    assert autocorrelation(om, 2**40) == om.measure()


def test_autocorrelation_is_linear_in_the_digits():
    # the 2^14 digits below 2^14 of Z/2^15: a pass over D² (2^28 pairs) would take
    # minutes, one set lookup per digit takes milliseconds
    om = CompactOpenSet.make(PrimeContext(2), 0, 15, range(2**14))
    assert (om.v, om.M, len(om.digits)) == (0, 15, 2**14)
    start = time.perf_counter()
    assert autocorrelation(om, 0) == om.measure() == F(1, 2)
    assert autocorrelation(om, 1) == F(2**14 - 1, 2**15)
    assert autocorrelation(om, 2**14) == 0
    assert time.perf_counter() - start < 2


def _autocorr_oracle(om: CompactOpenSet, x: F) -> F:
    # measure of overlap by exhausting cells two levels finer than both the
    # frame and the shift
    ctx = om.context
    vx = v_p(ctx.p, x) if x else om.v
    v2 = min(om.v, vx)
    m2 = (om.v + om.M) - v2 + 1
    cell = ctx.pow(-(v2 + m2))
    total = F(0)
    for d in range(ctx.p ** m2):
        y = d * ctx.pow(v2)
        if _member(om, y) and _member(om, y - x):
            total += cell
    return total


def test_autocorrelation_matches_membership_oracle():
    rng = random.Random(239)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(25):
            om, _ = _random_set(rng, p, max_m=2)
            for _ in range(6):
                x = F(rng.randint(-12, 12), rng.choice([1, 1, p, p * p]))
                got = autocorrelation(om, x)
                assert got == _autocorr_oracle(om, x)
                assert got == autocorrelation(om, -x)
    # total mass identity on a frame: sum over all shifts of one period
    om = CompactOpenSet.make(PrimeContext(2), 0, 3, (0, 2, 5))
    assert sum(autocorrelation(om, t) for t in range(8)) == F(9, 8)


def test_local_constancy_parameter():
    c2 = PrimeContext(2)
    assert local_constancy_parameter(CompactOpenSet.make(c2, 0, 0, (0,))) == 0
    assert local_constancy_parameter(CompactOpenSet.make(c2, 2, 0, (0,))) == 2
    assert local_constancy_parameter(CompactOpenSet.make(c2, -1, 1, (1,))) == -1
    assert local_constancy_parameter(CompactOpenSet.make(c2, 0, 2, (0, 3))) == 0
    # largest absolute value in the set is p^-ell
    rng = random.Random(241)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(60):
            om, _ = _random_set(rng, p)
            ell = local_constancy_parameter(om)
            sup = max(
                (ctx.pow(-v_p(p, F(d) * ctx.pow(om.v))) if d else F(0))
                for d in om.digits
            )
            sup = max(sup, ctx.pow(-(om.v + om.M)))  # reach of the cell around a digit
            assert sup == ctx.pow(-ell)


def _reference_local_constancy_parameter(omega):
    """The minimum over the digits of v + M (digit 0) or v + v_p(c), on Fraction valuations."""
    ctx = omega.context
    out = None
    for c in omega.digits:
        e = omega.v + omega.M if c == 0 else omega.v + v_p(ctx.p, c)
        out = e if out is None else min(out, e)
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-4, 4), st.integers(0, 4), st.data())
def test_local_constancy_parameter_equals_the_fraction_reference(p, v, m, data):
    # frames built directly, so not canonical: digits all divisible by p (any scale > 1),
    # the digits (0,) and v < 0 each come up in many draws
    ctx = PrimeContext(p)
    scale = p ** data.draw(st.integers(0, m))
    digits = data.draw(st.lists(st.integers(0, p**m // scale - 1), min_size=1, max_size=6, unique=True))
    for om in (CompactOpenSet(ctx, v, m, tuple(sorted(d * scale for d in digits))),
               CompactOpenSet(ctx, v, m, (0,))):
        assert local_constancy_parameter(om) == _reference_local_constancy_parameter(om)


def test_fourier_is_constant_on_constancy_cells():
    rng = random.Random(251)
    ctx = PrimeContext(2)
    for _ in range(30):
        om, _ = _random_set(rng, 2, max_m=2)
        ell = local_constancy_parameter(om)
        xi = F(rng.randint(-20, 20), rng.choice([1, 2, 4]))
        # perturbations of absolute value <= p^ell cannot move the transform
        delta = rng.randint(1, 4) * ctx.pow(-ell + rng.randint(0, 2))
        a = indicator_fourier(om, xi)
        b = indicator_fourier(om, xi + delta)
        assert a.power == b.power and (a.sum - b.sum).is_zero()


def test_frame_branching_set_frozen():
    assert frame_branching_set(2, 2, (0, 3)) == frozenset({0})
    assert frame_branching_set(2, 3, (0, 1, 4, 5)) == frozenset({0, 2})
    assert frame_branching_set(3, 1, (0, 1, 2)) == frozenset({0})
    assert frame_branching_set(3, 2, (0, 1, 3)) is None
    assert frame_branching_set(2, 2, (1,)) == frozenset()
    assert frame_branching_set(2, 2, (0, 1, 2)) is None


def _reference_frame_branching_set(p, M, digits):
    # the level-by-level scan from the root, without the leaf-count gate
    digits = list(digits)
    levels = set()
    below = 1
    for i in range(M):
        n = len({d % p ** (i + 1) for d in digits})
        if n == p * below:
            levels.add(i)
        elif n != below:
            return None
        below = n
    return frozenset(levels)


@pytest.mark.parametrize("p, M", [(2, 4), (3, 2)])
def test_frame_branching_set_equals_the_reference_on_every_subset(p, M):
    q = p**M
    for mask in range(1 << q):
        digits = [x for x in range(q) if mask >> x & 1]
        assert frame_branching_set(p, M, digits) == _reference_frame_branching_set(p, M, digits), digits


@st.composite
def _digit_lists(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    M = draw(st.integers(0, 4))
    # duplicates and digits past p**M, which reduce onto another leaf
    return p, M, draw(st.lists(st.integers(0, 2 * p ** (M + 1)), min_size=1, max_size=30))


@settings(max_examples=400, deadline=None)
@given(_digit_lists())
def test_frame_branching_set_equals_the_reference_on_drawn_digits(case):
    p, M, digits = case
    assert frame_branching_set(p, M, digits) == _reference_frame_branching_set(p, M, digits)


def test_is_p_homogeneous_on_canonical_frame():
    c2 = PrimeContext(2)
    flag, levels = is_p_homogeneous(CompactOpenSet.make(c2, 0, 3, (0, 1, 4, 5)))
    # canonicalizes to (0, 2, {0,1}): branching at level 0 only
    assert flag and levels == frozenset({0})
    flag, levels = is_p_homogeneous(CompactOpenSet.make(c2, 0, 2, (0, 1, 2)))
    assert not flag and levels is None
    flag, levels = is_p_homogeneous(CompactOpenSet.make(c2, 1, 0, (0,)))
    assert flag and levels == frozenset()


def test_digit_tree_counts():
    # the digit tree's levels counted directly: residues mod p**(i+1) per
    # residue mod p**i, against frame_branching_set and is_p_homogeneous
    def children_per_level(p, m, digits):
        out = []
        for i in range(m):
            children = Counter(r % p**i for r in {d % p ** (i + 1) for d in digits})
            out.append(set(children.values()))
        return out

    rng = random.Random(257)
    for p in (2, 3):
        for _ in range(40):
            om, _ = _random_set(rng, p)
            assert len({d % p**om.M for d in om.digits}) == len(om.digits)  # leaf count
            rows = children_per_level(p, om.M, om.digits)
            tree_levels = {i for i, row in enumerate(rows) if row == {p}}
            tree_flag = all(row in ({1}, {p}) for row in rows)
            levels = frame_branching_set(p, om.M, om.digits)
            flag, hom_levels = is_p_homogeneous(om)
            assert (levels is not None) == flag == tree_flag
            assert levels == hom_levels
            # homogeneous cardinality is the branching power
            if flag:
                assert levels == tree_levels
                assert len(om.digits) == p ** len(levels)


def test_scaled_numeric_past_the_float_range_reads_inf_not_an_overflow():
    # float(p**power) raised OverflowError past the largest float: a nonzero part now reads ±inf, and a zero
    # part stays zero rather than inf * 0.0 = nan
    c2 = PrimeContext(2)
    s = CyclotomicSum.make(c2, 3, {0: 3, 1: 2, 2: 1, 6: 1, 7: 2})  # the left side of a spectral failure
    assert ScaledCyclotomic(1194, s).numeric() == complex(math.inf, -math.inf)
    assert ScaledCyclotomic(1194, CyclotomicSum.constant(c2, -2)).numeric() == complex(-math.inf, 0.0)
    assert ScaledCyclotomic(1194, CyclotomicSum.make(c2, 1, {})).numeric() == 0
    assert ScaledCyclotomic(1023, s).numeric() == 2.0**1023 * s.numeric()
    assert ScaledCyclotomic(-2000, s).numeric() == 0
    big = ScaledCyclotomic(700, CyclotomicSum.constant(PrimeContext(3), 1)).numeric()  # 3^700 > 2^1109
    assert big == complex(math.inf, 0.0)


def test_scaled_cyclotomic_rational_detection():
    c2, c3 = PrimeContext(2), PrimeContext(3)
    half = ScaledCyclotomic(-2, CyclotomicSum.constant(c2, 2))
    assert half.value_if_rational() == F(1, 2)
    one = ScaledCyclotomic(-1, CyclotomicSum.constant(c3, 3))
    assert one.value_if_rational() == 1
    irr = ScaledCyclotomic(-2, CyclotomicSum.make(c2, 2, {0: 1, 1: 1}))
    assert irr.value_if_rational() is None
    assert not irr.sum.is_zero()
    # p^e * s with s = 0 is zero whatever the power
    assert ScaledCyclotomic(5, CyclotomicSum.make(c2, 1, {0: 1, 1: 1})).sum.is_zero()
