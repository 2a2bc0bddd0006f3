from __future__ import annotations

import cmath
import math
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padictiles.cyclotomic import _level_counts, _zero_orders, vanishing_level_set
from padictiles.decide import homogeneous_census_size

from padictiles.padic import (
    Ball,
    BallRelation,
    INF,
    PrimeContext,
    RootOfUnity,
    ScopeTooLarge,
    WindowTooSmall,
    _digit_lattice,
    _is_prime,
    _require_ints,
    ball_member,
    ball_relation,
    character,
)
from padictiles.pairs import UniformDiscreteSet


def test_prime_context_rejects_composites():
    for bad in (0, 1, 4, 6, 9, -3):
        with pytest.raises(ValueError):
            PrimeContext(bad)
    PrimeContext(2)
    PrimeContext(97)


@pytest.mark.parametrize("p", [2.0, F(3), 5.0, 4])
def test_a_prime_is_an_int(p):
    # _is_prime compared with ==, so 2.0, Fraction(3) and 5.0 passed: the deciders then ran on float residues
    # (a TypeError from bytearray, or None at p = 5.0), CompactOpenSet.make raised AttributeError, and the
    # census size, which read p without PrimeContext, was 4.0 at p = 2.0 and 256 at p = 4
    refused = rf"^p must be prime, got {re.escape(repr(p))}$"
    with pytest.raises(ValueError, match=refused):
        PrimeContext(p)
    with pytest.raises(ValueError, match=refused):
        homogeneous_census_size(p, 2, [0])


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_prime_context_on_large_and_pseudoprime_inputs():
    start = time.perf_counter()
    PrimeContext(2**61 - 1)  # trial division would take about 1.5e9 steps
    assert time.perf_counter() - start < 1
    for bad in (561, 41041, 2**61 + 1):  # two Carmichael numbers, 3 * 768614336404564651
        with pytest.raises(ValueError):
            PrimeContext(bad)
    # no factor below 43, so Miller-Rabin itself must reject them: a Carmichael
    # number 211 * 421 * 631, a strong pseudoprime to the bases 2..23, and one
    # to the first 12 prime bases that only the 13th (41) exposes
    for bad in (56052361, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(bad)
    with pytest.raises(ValueError, match="not decided exactly"):
        PrimeContext(2**89 - 1)


def test_valuation_frozen_values():
    c2, c3, c5 = PrimeContext(2), PrimeContext(3), PrimeContext(5)
    assert c2.valuation(12) == 2
    assert c3.valuation(12) == 1
    assert c2.valuation(F(5, 6)) == -1
    assert c3.valuation(F(5, 6)) == -1
    assert c5.valuation(F(5, 6)) == 1
    assert c2.valuation(0) == INF
    assert c2.valuation(F(-8)) == 3


def test_valuation_is_additive_and_ultrametric():
    rng = random.Random(11)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(200):
            x = F(rng.randint(-50, 50), rng.randint(1, 50))
            y = F(rng.randint(-50, 50), rng.randint(1, 50))
            if x and y:
                assert ctx.valuation(x * y) == ctx.valuation(x) + ctx.valuation(y)
            vs = ctx.valuation(x + y)
            lo = min(ctx.valuation(x), ctx.valuation(y))
            assert vs >= lo
            if x and y and ctx.valuation(x) != ctx.valuation(y):
                assert vs == lo


def test_frac_part_frozen_values():
    assert PrimeContext(3).frac_part(F(1, 6)) == F(2, 3)
    assert PrimeContext(2).frac_part(F(5, 6)) == F(1, 2)
    assert PrimeContext(3).frac_part(F(4, 9)) == F(4, 9)
    assert PrimeContext(2).frac_part(7) == 0
    assert PrimeContext(5).frac_part(F(-1, 5)) == F(4, 5)


def test_frac_part_characterization():
    # {x} is the unique rational in [0,1) with p-power denominator and x - {x}
    # a p-adic integer.
    rng = random.Random(13)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(300):
            x = F(rng.randint(-400, 400), rng.randint(1, 400))
            f = ctx.frac_part(x)
            assert 0 <= f < 1
            assert ctx.valuation(x - f) >= 0 or x == f
            v = ctx.valuation(x)
            expected_den = p ** (-v) if (x != 0 and v < 0) else 1
            assert f.denominator == expected_den


def test_residue_inverts_unit_denominators():
    ctx = PrimeContext(2)
    assert ctx.residue(F(3, 5), 3) == 7  # 7*5 = 35 = 3 (mod 8)
    assert ctx.residue(10, 2) == 2
    assert ctx.residue(F(1, 3), 0) == 0
    with pytest.raises(ValueError):
        ctx.residue(F(1, 2), 3)
    rng = random.Random(5)
    for p in (3, 5):
        ctx = PrimeContext(p)
        for _ in range(100):
            den = rng.randint(1, 60)
            if den % p == 0:
                continue
            x = F(rng.randint(-60, 60), den)
            m = rng.randint(1, 4)
            r = ctx.residue(x, m)
            assert 0 <= r < p**m
            assert ctx.valuation(x - r) >= m


def test_root_of_unity_canonical_form():
    # character is the one producer of roots: 0 <= k < p**n, and p divides k only when n = 0
    ctx = PrimeContext(2)
    r = character(ctx, F(6, 4), 1)  # 6/4 = 1/2 mod 1
    assert r == RootOfUnity(ctx, 1, 1)
    assert character(ctx, F(8, 8), 3) == RootOfUnity(ctx, 0, 0)
    assert character(ctx, F(-7, 12), 2) == RootOfUnity(ctx, 1, 1)  # -7/6 = 1/2 mod Z_2
    rng = random.Random(7)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(200):
            r = character(ctx, F(rng.randint(-80, 80), rng.randint(1, 80)), rng.randint(-9, 9))
            assert 0 <= r.k < p**r.n and (r.k % p != 0 if r.n else r.k == 0)


def test_character_frozen_values():
    ctx = PrimeContext(2)
    r = character(ctx, F(1, 2), 1)
    assert (r.n, r.k) == (1, 1)  # e^{pi i} = -1
    r = character(ctx, F(1, 4), 3)
    assert (r.n, r.k) == (2, 3)  # e^{2 pi i 3/4} = -i
    r = character(ctx, F(1, 4), 4)
    assert (r.n, r.k) == (0, 0)


def test_character_is_multiplicative_in_x():
    rng = random.Random(23)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(200):
            xi = F(rng.randint(-40, 40), rng.randint(1, 40))
            x = F(rng.randint(-40, 40), rng.randint(1, 40))
            y = F(rng.randint(-40, 40), rng.randint(1, 40))
            lhs = character(ctx, xi, x + y)
            a, b = character(ctx, xi, x), character(ctx, xi, y)
            f = (F(a.k, p**a.n) + F(b.k, p**b.n)) % 1  # exponents add mod 1
            assert (p**lhs.n, lhs.k) == (f.denominator, f.numerator)


def test_character_numeric_agrees_with_cmath():
    rng = random.Random(29)
    ctx = PrimeContext(3)
    for _ in range(100):
        xi = F(rng.randint(-30, 30), rng.randint(1, 30))
        x = F(rng.randint(-30, 30), rng.randint(1, 30))
        r = character(ctx, xi, x)
        f = ctx.frac_part(xi * x)
        assert abs(cmath.exp(2j * math.pi * r.k / 3**r.n) - cmath.exp(2j * math.pi * float(f))) < 1e-12


def test_ball_canonical_form():
    ctx = PrimeContext(2)
    b = Ball.make(ctx, 0, 2, 4)  # 4 + 4 Z_2 = 4 Z_2
    assert (b.v, b.M, b.c) == (2, 0, 0)
    b = Ball.make(ctx, 0, 3, 6)  # 6 + 8 Z_2 = 2(3 + 4 Z_2)
    assert (b.v, b.M, b.c) == (1, 2, 3)
    assert Ball.make(ctx, -1, 1, 9) == Ball.make(ctx, -1, 1, 1)
    with pytest.raises(ValueError):
        Ball.make(ctx, 0, -1, 0)


def test_ball_make_preserves_membership():
    rng = random.Random(31)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(150):
            v = rng.randint(-2, 2)
            m = rng.randint(0, 3)
            c = rng.randint(-10, 10)
            b = Ball.make(ctx, v, m, c)
            for _ in range(8):
                x = F(rng.randint(-30, 30), rng.choice([1, p, p * p, 3, 7]))
                raw = ctx.valuation(x - c * ctx.pow(v)) >= v + m
                assert ball_member(x, b) == raw


def test_ball_around_and_measure():
    ctx = PrimeContext(3)
    x = F(2, 3)
    b = Ball.around(ctx, x, -2)
    assert ball_member(x, b)
    assert b.measure() == F(1, 9)
    assert b.radius_exp() == -2
    # a radius at least |x| swallows the center into the ball around 0
    wide = Ball.around(ctx, x, 1)
    assert (wide.v, wide.M, wide.c) == (-1, 0, 0)
    assert wide.measure() == 3


def _relation_oracle(ctx, a, b):
    # nested-or-disjoint, decided from memberships of the two centers
    a_in_b = ball_member(a.center(), b) and a.radius_exp() <= b.radius_exp()
    b_in_a = ball_member(b.center(), a) and b.radius_exp() <= a.radius_exp()
    if a_in_b and b_in_a:
        return BallRelation.EQUAL
    if a_in_b:
        return BallRelation.FIRST_INSIDE_SECOND
    if b_in_a:
        return BallRelation.SECOND_INSIDE_FIRST
    return BallRelation.DISJOINT


def test_ball_relation_matches_membership_oracle():
    rng = random.Random(37)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(400):
            a = Ball.make(ctx, rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 26))
            b = Ball.make(ctx, rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 26))
            assert ball_relation(a, b) == _relation_oracle(ctx, a, b)


def test_ball_relation_never_partial():
    # ultrametric dichotomy: when the relation says disjoint, no point of a
    # lies in b (spot-checked on the digit grid of a)
    ctx = PrimeContext(2)
    rng = random.Random(41)
    for _ in range(200):
        a = Ball.make(ctx, rng.randint(-1, 2), rng.randint(0, 3), rng.randint(0, 15))
        b = Ball.make(ctx, rng.randint(-1, 2), rng.randint(0, 3), rng.randint(0, 15))
        if ball_relation(a, b) is not BallRelation.DISJOINT:
            continue
        for t in range(4):
            x = a.center() + t * ctx.pow(a.v + a.M)
            assert ball_member(x, a)
            assert not ball_member(x, b)


def test_context_mixing_is_rejected():
    c2, c3 = PrimeContext(2), PrimeContext(3)
    with pytest.raises(ValueError):
        ball_relation(Ball.make(c2, 0, 0, 0), Ball.make(c3, 0, 0, 0))


def test_the_int_check_names_the_first_bad_element():
    with pytest.raises(ValueError, match=r"element 0\.5 of T is not an int$"):
        _require_ints(C=[0, 1], T=[0, 2, 0.5, "x"])
    with pytest.raises(ValueError, match=r"element 3 of levels is not an int in range\(M\) = range\(3\)$"):
        _require_ints(stop=3, levels=[0, 2, 3, 1.5])
    # True is an int, as isinstance says
    _require_ints(C=[True, 2], T=(False,))
    _require_ints(stop=2, levels={True, 0})


def test_the_int_check_names_a_bad_element_at_either_end_of_a_long_list():
    # the messages that a faster test of the whole list must keep: the float last of 1,000, and an element
    # out of range first or last; a bool and an int subclass pass, the subclass kept as given
    with pytest.raises(ValueError, match=r"^element 2\.5 of xs is not an int$"):
        _require_ints(xs=[*range(999), 2.5])
    with pytest.raises(ValueError, match=r"^element -1 of xs is not an int in range\(M\) = range\(1000\)$"):
        _require_ints(stop=1000, xs=[-1, *range(999)])
    with pytest.raises(ValueError, match=r"^element 1000 of xs is not an int in range\(M\) = range\(1000\)$"):
        _require_ints(stop=1000, xs=[*range(999), 1000])

    class Digit(int):
        pass

    assert _require_ints(stop=3, xs=[True, Digit(2)]) == [(True, 2)]
    assert type(_require_ints(xs=[Digit(2)])[0][0]) is Digit
    assert _require_ints(stop=0, xs=[]) == [()]


def test_the_int_check_reads_a_one_shot_iterable_once():
    good = iter([0, 1, 2])
    _require_ints(xs=good)
    assert list(good) == []
    with pytest.raises(ValueError, match=r"element -1 of xs is not an int in range\(M\) = range\(4\)$"):
        _require_ints(stop=4, xs=(x for x in [1, 2, -1, 5]))
    with pytest.raises(ValueError, match="element '2' of xs is not an int$"):
        _require_ints(xs=iter([1, "2", 3.0]))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), exponents=st.sets(st.integers(0, 6), max_size=4).map(sorted),
       base=st.sets(st.integers(0, 40), min_size=1, max_size=5).map(sorted), shift=st.integers(0, 8))
def test_the_digit_lattice_is_the_product_of_a_base_and_a_tail(p, exponents, base, shift):
    # every sum b * p^shift + sum of a_j * p^j over the exponents, with digits a_j in [0, p), in order
    tails = [0]
    for j in exponents:
        tails = [t + a * p**j for t in tails for a in range(p)]
    want = sorted(b * p**shift + t for b in base for t in tails)
    assert _digit_lattice(p, exponents, base, shift) == want
    assert _digit_lattice(p, exponents) == sorted(tails)


def test_the_digit_lattice_bounds_its_base_times_its_tail():
    assert _digit_lattice(3, []) == [0] and _digit_lattice(3, [], [4, 1], 2) == [9, 36]
    assert _digit_lattice(2, [0, 2]) == [0, 1, 4, 5] and _digit_lattice(2, [2], [0, 1]) == [0, 1, 4, 5]
    # |base|·p^levels is bounded as a whole, in the caller's words, before anything is built
    assert len(_digit_lattice(2, range(16), range(4))) == 2**18
    with pytest.raises(ScopeTooLarge, match=r"^a refined frame is limited to q <= 262144: p=2, levels=17, "
                                            r"q = 4·2\^17 > 262144$"):
        _digit_lattice(2, range(17), range(4), 0, "a refined frame")
    with pytest.raises(ScopeTooLarge, match=r"^a digit lattice is limited to q <= 262144: p=5, levels=8, "
                                            r"q = 5\^8"):
        _digit_lattice(5, range(8))
    # with no exponent the base is only rescaled, at any size
    assert _digit_lattice(2, (), range(2**18 + 1), 1)[-1] == 2**19


def test_the_digit_lattice_places_a_rule_digit_at_a_rule_level():
    # level 1 of Z/3^3 takes digit rules[1][t mod 3] from the digit at level 0, levels 0 and 2 are free
    rules = {1: {0: 2, 1: 0, 2: 1}}
    want = sorted(a0 + 3 * rules[1][a0] + 9 * a2 for a0 in range(3) for a2 in range(3))
    assert _digit_lattice(3, range(3), rules=rules) == want
    assert _digit_lattice(3, range(2), range(3), 2, rules=rules) == want
    # a class with no digit at a rule level is left out, and only the free levels count toward the bound
    assert _digit_lattice(2, range(3), rules={1: {1: 1}, 2: {3: 0, 1: 1}}) == [3]
    assert len(_digit_lattice(2, range(19), rules={0: {0: 1}})) == 2**18


def _reference_make(context, window_exp, elements):
    """(numerators, unit) of UniformDiscreteSet.make by its Fraction path, before the one element reader."""
    elems = sorted({F(x) for x in elements})
    if not elems:
        raise ValueError("truncation must contain at least one element")
    for x in elems:
        if x != 0 and context.valuation(x) < -window_exp:
            raise WindowTooSmall(f"element {x} lies outside the declared window B(0, p**{window_exp})")
    p = context.p
    # p**bits(d) is a multiple of the p-part of d, so the gcd is that p-part
    unit = math.lcm(*(x.denominator // math.gcd(x.denominator, p ** x.denominator.bit_length()) for x in elems))
    scale = context.pow(window_exp) * unit
    return tuple(int(x * scale) for x in elems), unit


def _reference_vanishing_level_set(context, elements, levels):
    """vanishing_level_set by its Fraction path, before the one element reader."""
    p = context.p
    elems = [F(e) for e in elements]
    levels = sorted(set(levels))
    V = min((context.valuation(c) for c in elems if c != 0), default=0)
    depth = max([0] + [-(i + V) for i in levels])
    residues = [context.residue(c * context.pow(-V), depth) for c in elems]
    zero = _zero_orders(p, depth, _level_counts(p, depth, residues))
    return frozenset(i for i in levels if max(0, -(i + V)) in zero)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc).__name__


@st.composite
def _elements(draw, p):
    """Ints (small, or a unit times a p-power of up to 80 levels, or a bool), fractions over p-powers and over
    p-powers times a unit, and repeats of any of them."""
    small = st.integers(-60, 60)
    unit = st.integers(2, 40).filter(lambda u: u % p)
    kinds = st.one_of(small, st.booleans(), st.builds(lambda u, k: u * p**k, small, st.integers(0, 80)),
                      st.builds(lambda a, k: F(a, p**k), small, st.integers(1, 6)),
                      st.builds(lambda a, k, u: F(a, p**k * u), small, st.integers(0, 6), unit))
    xs = draw(st.lists(kinds, max_size=8))
    return xs + draw(st.lists(st.sampled_from(xs), max_size=3)) if xs else xs


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_element_reader_equals_the_fraction_path(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    ctx, xs = PrimeContext(p), data.draw(_elements(p))
    window = data.draw(st.integers(-6, 8))
    levels = data.draw(st.lists(st.integers(-12, 6), max_size=5))
    made = _outcome(UniformDiscreteSet.make, ctx, window, xs)
    if isinstance(made, UniformDiscreteSet):
        made = made.numerators, made.unit
    assert made == _outcome(_reference_make, ctx, window, xs)
    assert _outcome(vanishing_level_set, ctx, xs, levels) == _reference_vanishing_level_set(ctx, xs, levels)
