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

from conftest import v_p
from padictiles.copen import normalize_set
from padictiles.cyclotomic import CyclotomicSum
from padictiles.decide import homogeneous_census_size

from padictiles.padic import (
    Ball,
    PrimeContext,
    RootOfUnity,
    ScopeTooLarge,
    WindowTooSmall,
    _clamped_valuation,
    _digit_lattice,
    _is_prime,
    _require_ints,
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
    # the library's one valuation of a rational, clamped to [-k, k]: 0 and every value past k read as the bound
    assert _clamped_valuation(2, F(12), 10) == 2 and _clamped_valuation(3, F(12), 10) == 1
    assert _clamped_valuation(2, F(5, 6), 10) == -1 and _clamped_valuation(3, F(5, 6), 10) == -1
    assert _clamped_valuation(5, F(5, 6), 10) == 1 and _clamped_valuation(2, F(-8), 10) == 3
    assert _clamped_valuation(2, F(0), 10) == 10
    assert _clamped_valuation(2, F(2**50), 10) == 10 and _clamped_valuation(2, F(1, 2**50), 10) == -10
    assert PrimeContext(2).frac_exponent(F(5, 6))[0] == 1 and PrimeContext(5).frac_exponent(F(5, 6)) == (0, 0)


def test_valuation_is_additive_and_ultrametric():
    rng = random.Random(11)
    for p in (2, 3, 5):
        def val(x):
            return _clamped_valuation(p, x, 64)  # exact here: |v_p| <= 12 for these x, 64 for 0
        for _ in range(200):
            x = F(rng.randint(-50, 50), rng.randint(1, 50))
            y = F(rng.randint(-50, 50), rng.randint(1, 50))
            assert val(x) == (v_p(p, x) if x else 64)
            if x and y:
                assert val(x * y) == val(x) + val(y)
            vs = val(x + y)
            lo = min(val(x), val(y))
            assert vs >= lo
            if x and y and val(x) != val(y):
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
            assert v_p(p, x - f) >= 0 or x == f
            v = v_p(p, x)
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
            assert v_p(p, x - r) >= m


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
                raw = v_p(p, x - c * ctx.pow(v)) >= v + m
                assert (v_p(p, x - b.c * ctx.pow(b.v)) >= b.v + b.M) == raw


def test_ball_measure():
    # the balls of radius 3**-2 and 3 about 2/3: 3**-1 * (2 + 27 Z_3) = 2/3 + 9 Z_3, and 3**-1 Z_3
    ctx = PrimeContext(3)
    assert Ball.make(ctx, -1, 3, 2).measure() == F(1, 9)
    assert Ball.make(ctx, -1, 0, 0).measure() == 3


def _inside(ctx, a: Ball, b: Ball) -> bool:
    """a is a subset of b: a's radius is at most b's and a point of a lies in b."""
    return a.v + a.M >= b.v + b.M and v_p(ctx.p, a.c * ctx.pow(a.v) - b.c * ctx.pow(b.v)) >= b.v + b.M


def test_two_balls_are_nested_or_disjoint():
    # the union of two balls is the larger when one holds the other, and otherwise measures their sum
    rng = random.Random(37)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(400):
            a = Ball.make(ctx, rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 26))
            b = Ball.make(ctx, rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 26))
            union = normalize_set(ctx, [a, b])
            if _inside(ctx, a, b):
                assert union == normalize_set(ctx, [b])
            elif _inside(ctx, b, a):
                assert union == normalize_set(ctx, [a])
            else:
                assert union.measure() == a.measure() + b.measure()
            assert union.measure() in (max(a.measure(), b.measure()), a.measure() + b.measure())


def test_a_ball_is_the_union_of_its_cells():
    # the p**k balls k levels below a ball partition it: their union is the ball, and without one of them the
    # union is smaller by that cell's measure
    rng = random.Random(41)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(100):
            b = Ball.make(ctx, rng.randint(-2, 2), rng.randint(0, 3), rng.randint(0, 26))
            k = rng.randint(1, 2)
            cells = [Ball.make(ctx, b.v, b.M + k, b.c + t * p**b.M) for t in range(p**k)]
            assert sum(c.measure() for c in cells) == b.measure()
            assert normalize_set(ctx, cells) == normalize_set(ctx, [b])
            rest = normalize_set(ctx, cells[1:])
            assert rest.measure() == b.measure() - cells[0].measure() and rest != normalize_set(ctx, [b])


def test_context_mixing_is_rejected():
    c2, c3 = PrimeContext(2), PrimeContext(3)
    with pytest.raises(ValueError, match="^ball context differs$"):
        normalize_set(c2, [Ball.make(c2, 0, 0, 0), Ball.make(c3, 0, 0, 0)])
    with pytest.raises(ValueError, match="^CyclotomicSum contexts differ$"):
        CyclotomicSum.make(c2, 1, {1: 1}) + CyclotomicSum.make(c3, 1, {1: 1})


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
        if x != 0 and v_p(context.p, x) < -window_exp:
            raise WindowTooSmall(f"element {x} lies outside the declared window B(0, p**{window_exp})")
    p = context.p
    # p**bits(d) is a multiple of the p-part of d, so the gcd is that p-part
    unit = math.lcm(*(x.denominator // math.gcd(x.denominator, p ** x.denominator.bit_length()) for x in elems))
    scale = context.pow(window_exp) * unit
    return tuple(int(x * scale) for x in elems), unit


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
    made = _outcome(UniformDiscreteSet.make, ctx, window, xs)
    if isinstance(made, UniformDiscreteSet):
        made = made.numerators, made.unit
    assert made == _outcome(_reference_make, ctx, window, xs)
