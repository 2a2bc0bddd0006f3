from __future__ import annotations

import cmath
import inspect
import json
import math
import random
import re
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padictiles import cyclotomic, decide
from padictiles.cyclotomic import (
    CyclotomicSum,
    _level_counts,
    _zero_orders,
    residue_counts,
    vanishes,
)
from padictiles.decide import ConstructionFailed, classify_all
from padictiles.padic import PrimeContext


def _numeric(s: CyclotomicSum) -> complex:
    q = s.context.p**s.n
    return sum(a * cmath.exp(2j * math.pi * j / q) for j, a in s.coeffs.items())


def test_make_reduces_and_merges():
    ctx = PrimeContext(2)
    s = CyclotomicSum.make(ctx, 2, [(0, 1), (4, 2), (1, 1), (1, -1)])
    assert s.coeffs == {0: 3}
    assert s.n == 2
    assert CyclotomicSum.make(ctx, 1, {0: 0}).coeffs == {}
    with pytest.raises(ValueError):
        CyclotomicSum.make(ctx, -1, {})


@pytest.mark.parametrize("a", [2.0, float("inf"), None, F(1), "1"])
def test_make_refuses_a_coefficient_that_is_not_an_int(a):
    # read as a != int(a): inf raised OverflowError, None TypeError, and 2.0 was taken as 2
    with pytest.raises(ValueError, match=rf"^coefficient {re.escape(repr(a))} of exponent 1 is not an int$"):
        CyclotomicSum.make(PrimeContext(2), 2, {0: 1, 1: a})


def test_numeric_does_not_depend_on_insertion_order():
    # summed in insertion order, the two orders below differed in the last
    # bits on 49 of 50 shuffles
    ctx = PrimeContext(2)
    rng = random.Random(5)
    items = [(j, rng.randint(-9, 9)) for j in rng.sample(range(64), 20)]
    for _ in range(50):
        rng.shuffle(items)
        forward = CyclotomicSum(ctx, 6, dict(items))
        backward = CyclotomicSum(ctx, 6, dict(reversed(items)))
        assert forward.numeric() == backward.numeric()
        assert abs(forward.numeric() - _numeric(forward)) < 1e-9


def test_numeric_forms_each_angle_from_an_int_quotient_past_the_float_range():
    # with the float step j / q, a root of order 2^1100 raised OverflowError and one of order 2^1023 read nan
    c2, c3 = PrimeContext(2), PrimeContext(3)
    assert abs(abs(CyclotomicSum.make(c2, 1100, {1: 1}).numeric()) - 1) < 1e-12
    assert abs(CyclotomicSum.make(c2, 1100, {2**1099: 1}).numeric() + 1) < 1e-12
    assert abs(CyclotomicSum.make(c2, 1023, {-1: 1}).numeric() - 1) < 1e-12
    assert abs(CyclotomicSum.make(c3, 700, {3**699: 1, 2 * 3**699: 1}).numeric() + 1) < 1e-12  # w + w^2 = -1


def test_is_zero_frozen_cases():
    c2, c3 = PrimeContext(2), PrimeContext(3)
    assert CyclotomicSum.make(c3, 1, {0: 1, 1: 1, 2: 1}).is_zero()
    assert CyclotomicSum.make(c2, 2, {0: 1, 2: 1}).is_zero()  # 1 + i^2
    assert not CyclotomicSum.make(c2, 2, {0: 1, 1: 1}).is_zero()  # 1 + i
    assert CyclotomicSum.make(c2, 0, {}).is_zero()
    assert not CyclotomicSum.constant(c2, 3).is_zero()
    # zero test is valid at a non-minimal declared order
    assert CyclotomicSum.make(c3, 2, {0: 1, 3: 1, 6: 1}).is_zero()


def test_vanishes_reads_each_exponent_mod_the_order():
    # read as given, {2: 1} at n = 1 was taken as zero (its coset {0, 1} holds no count), 1 + w + w^2
    # with w^0 written as w^3 as nonzero, and 1 - 1 at n = 0 as nonzero
    assert not vanishes(2, 1, {2: 1})  # w_2^2 = 1
    assert vanishes(3, 1, {3: 1, 1: 1, 2: 1})  # 1 + w + w^2 = 0
    assert vanishes(2, 0, {0: 1, 1: -1})
    assert vanishes(2, 2, {-2: 1, 4: 1, 1: 0})  # i^2 + 1, and 0 * i
    assert not vanishes(2, 2, {-2: 1, 6: 1})  # i^2 twice, merged
    # the trusted constructor keeps an exponent as given; is_zero reads it through vanishes, as numeric() does
    s = CyclotomicSum(PrimeContext(2), 1, {2: 1})
    assert not s.is_zero() and s.numeric() == 1


def test_vanishes_names_an_exponent_or_count_that_is_not_an_int():
    with pytest.raises(ValueError, match=r"^element 0\.5 of exponents is not an int$"):
        vanishes(2, 1, {0: 1, 0.5: 1})
    with pytest.raises(ValueError, match=r"^element 1\.0 of counts is not an int$"):
        vanishes(2, 1, {0: 1, 1: 1.0})
    assert vanishes(2, 1, {False: True, True: 1})  # a bool is its int, as everywhere


def test_float_sum_reads_a_count_past_the_float_range_as_inf():
    # cmath.rect raised OverflowError on the int 10**400; now it reads inf, and inf - inf reads nan
    c2 = PrimeContext(2)
    assert CyclotomicSum.make(c2, 1, {0: 10**400}).numeric() == complex(math.inf, 0.0)
    z = CyclotomicSum.make(c2, 1, {0: 10**400, 1: 10**400}).numeric()
    assert math.isnan(z.real) and z.imag == math.inf
    assert CyclotomicSum.make(c2, 0, {0: -(10**400)}).numeric() == complex(-math.inf, 0.0)
    # finite terms whose real parts overflow fsum (OverflowError) add up to inf
    big = 10**308
    assert CyclotomicSum.make(c2, 3, {0: big, 1: big, 7: big}).numeric().real == math.inf


def _coset_scan(p, n, counts):
    """The zero test before the successor form, kept as the reference: every coset of the index-p subgroup
    holds one count, read class by class."""
    if n == 0:
        return not any(counts.values())
    q = p ** (n - 1)
    checked = set()
    for j in counts:
        r = j % q
        if r in checked:
            continue
        checked.add(r)
        a = counts.get(r, 0)
        for t in range(1, p):
            if counts.get(r + t * q, 0) != a:
                return False
    return True


@st.composite
def _reduced_counts(draw):
    """(p, n, counts) with exponents in [0, p**n): some classes mod p**(n-1) carry one count on all p lifts,
    so that many draws vanish, a zero count being present or absent; then a few counts anywhere."""
    p, n = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(0, 4))
    q, counts = p**n, {}
    for r in draw(st.sets(st.integers(0, max(q // p - 1, 0)), max_size=4)) if n else ():
        a = draw(st.integers(-3, 3))
        for t in range(p):
            if a or draw(st.booleans()):
                counts[r + t * q // p] = a
    counts.update(draw(st.dictionaries(st.integers(0, q - 1), st.integers(-3, 3), max_size=4)))
    return p, n, counts


@settings(max_examples=500, deadline=None)
@given(_reduced_counts())
def test_the_zero_test_kernel_matches_the_coset_scan(case):
    p, n, counts = case
    assert cyclotomic._vanishes(p, n, counts) == _coset_scan(p, n, counts)
    assert vanishes(p, n, counts) == _coset_scan(p, n, counts)


def _mutant_kernel():
    """cyclotomic._vanishes with its successor step (j + q) % pq mutated to (j + 1) % pq."""
    source = inspect.getsource(cyclotomic._vanishes)
    assert source.count("(j + q) % pq") == 1
    scope = dict(vars(cyclotomic))
    exec(source.replace("(j + q) % pq", "(j + 1) % pq"), scope)
    return scope["_vanishes"]


def test_a_mutated_successor_step_fails_the_kernel_test(monkeypatch):
    monkeypatch.setattr(cyclotomic, "_vanishes", _mutant_kernel())
    with pytest.raises(AssertionError):
        test_the_zero_test_kernel_matches_the_coset_scan()


def test_a_mutated_successor_step_fails_the_census(monkeypatch):
    # T1 decides by sums of squares, so only the exact recheck of each spectrum reads the kernel: the mutant
    # refuses the first spectrum with a vanishing level of order 4 or more
    monkeypatch.setattr(decide, "_vanishes", _mutant_kernel())
    with pytest.raises(ConstructionFailed, match="homogeneity spectrum formula failed"):
        classify_all(2, 4)


def test_is_zero_agrees_with_numeric_oracle():
    rng = random.Random(101)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(800):
            n = rng.randint(0, 3)
            q = p**n
            coeffs = {rng.randrange(q): rng.randint(-3, 3) for _ in range(rng.randint(0, 6))}
            s = CyclotomicSum.make(ctx, n, coeffs)
            assert s.is_zero() == (abs(_numeric(s)) < 1e-9)


def test_vanishing_constructions_are_zero():
    # integer combinations of full cosets of the index-p subgroup span the
    # whole relation module, at any declared order
    rng = random.Random(103)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(150):
            n = rng.randint(1, 3)
            q = p ** (n - 1)
            coeffs: dict[int, int] = {}
            for _ in range(rng.randint(1, 3)):
                r = rng.randrange(q)
                a = rng.randint(-2, 2)
                for t in range(p):
                    j = r + t * q
                    coeffs[j] = coeffs.get(j, 0) + a
            s = CyclotomicSum.make(ctx, n, coeffs)
            assert s.is_zero()
            assert abs(_numeric(s)) < 1e-9


def test_arithmetic_matches_numeric():
    rng = random.Random(107)
    ctx = PrimeContext(3)
    for _ in range(150):
        a = CyclotomicSum.make(
            ctx, rng.randint(0, 2), {rng.randrange(9): rng.randint(-2, 2) for _ in range(3)}
        )
        b = CyclotomicSum.make(
            ctx, rng.randint(0, 2), {rng.randrange(9): rng.randint(-2, 2) for _ in range(3)}
        )
        assert abs(_numeric(a + b) - (_numeric(a) + _numeric(b))) < 1e-9
        assert abs(_numeric(a - b) - (_numeric(a) - _numeric(b))) < 1e-9
        assert abs(_numeric(a * b) - _numeric(a) * _numeric(b)) < 1e-9
        assert abs(_numeric(a * 5) - 5 * _numeric(a)) < 1e-9
        assert abs(_numeric(a.conjugate()) - _numeric(a).conjugate()) < 1e-9


def test_from_roots_uses_common_order():
    from padictiles.padic import RootOfUnity, character

    ctx = PrimeContext(2)
    roots = [RootOfUnity(ctx, 1, 1), RootOfUnity(ctx, 2, 1)]
    s = CyclotomicSum.from_roots(ctx, roots)
    assert s.n == 2
    assert s.coeffs == {2: 1, 1: 1}
    t = CyclotomicSum.from_roots(ctx, [character(ctx, F(1, 4), c) for c in (0, 1, 2, 3)])
    assert t.is_zero()


def test_scale_exponents_is_a_galois_action():
    rng = random.Random(109)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(120):
            n = rng.randint(1, 3)
            s = CyclotomicSum.make(
                ctx, n, {rng.randrange(p**n): rng.randint(-2, 2) for _ in range(4)}
            )
            u = rng.choice([x for x in range(1, p**n) if x % p])
            scaled = s.scale_exponents(u)
            # sigma_u maps w -> w^u; evaluate both sides numerically
            q = p**n
            expected = sum(
                a * cmath.exp(2j * math.pi * (j * u % q) / q) for j, a in s.coeffs.items()
            )
            assert abs(_numeric(scaled) - expected) < 1e-9
            assert s.is_zero() == scaled.is_zero()
        with pytest.raises(ValueError):
            CyclotomicSum.make(ctx, 1, {0: 1}).scale_exponents(p)


def test_value_if_integer():
    ctx = PrimeContext(2)
    s = CyclotomicSum.make(ctx, 2, {0: 5, 1: 2, 3: 2})  # 5 + 2i - 2i = 5
    assert s.value_if_integer() == 5
    assert (s - CyclotomicSum.constant(ctx, 5)).is_zero()
    assert not (s - CyclotomicSum.constant(ctx, 4)).is_zero()
    assert CyclotomicSum.make(ctx, 2, {0: 1, 1: 1}).value_if_integer() is None
    assert CyclotomicSum.make(ctx, 3, {}).value_if_integer() == 0
    ctx3 = PrimeContext(3)
    # 2 - w - w^2 = 3 at order 3
    s = CyclotomicSum.make(ctx3, 1, {0: 2, 1: -1, 2: -1})
    assert s.value_if_integer() == 3
    # random sums, half of them an integer c padded with full cosets (which add to 0), at
    # declared orders that need not be minimal: the value is r exactly when s - r vanishes,
    # for every r within the bound |value| <= sum of |coefficients|
    rng = random.Random(131)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(300):
            n = rng.randint(0, 3)
            c = rng.randint(-4, 4)
            coeffs = {0: c}
            for _ in range(rng.randint(0, 3) if n else 0):
                step, a = p ** (n - 1), rng.randint(-2, 2)
                for j in range(rng.randrange(step), p**n, step):
                    coeffs[j] = coeffs.get(j, 0) + a
            padded = rng.random() < 0.5
            if not padded:
                for _ in range(rng.randint(1, 3)):
                    j = rng.randrange(p**n)
                    coeffs[j] = coeffs.get(j, 0) + rng.randint(-2, 2)
            s = CyclotomicSum.make(ctx, n, coeffs)
            v = s.value_if_integer()
            if padded:
                assert v == c
            bound = sum(abs(a) for a in s.coeffs.values())
            for r in range(-bound, bound + 1):
                assert (s - CyclotomicSum.constant(ctx, r)).is_zero() == (r == v)


def test_semantic_equality():
    ctx = PrimeContext(3)
    a = CyclotomicSum.make(ctx, 1, {0: 1, 1: 1, 2: 1})
    assert a == CyclotomicSum.constant(ctx, 0)
    b = CyclotomicSum.make(ctx, 1, {0: 3, 1: 2, 2: 2})  # 3 + 2(w + w^2) = 1
    assert b == CyclotomicSum.constant(ctx, 1)
    assert b != CyclotomicSum.constant(ctx, 2)


def _reference_normalize(s: CyclotomicSum) -> CyclotomicSum:
    """Equal sum at the least order: divide exponents by p while possible."""
    n, coeffs = s.n, s.coeffs
    if not coeffs:
        return CyclotomicSum(s.context, 0, {})
    p = s.context.p
    while n >= 1 and all(j % p == 0 for j in coeffs):
        n -= 1
        coeffs = {j // p: a for j, a in coeffs.items()}
    return CyclotomicSum(s.context, n, dict(coeffs))


def test_normalize_minimizes_order():
    ctx = PrimeContext(2)
    s = CyclotomicSum.make(ctx, 3, {0: 1, 4: 1})  # lives at order 2: 1 + w8^4 = 1 - 1
    t = _reference_normalize(s)
    assert t.n <= 1
    assert s.is_zero() and t.is_zero()
    u = _reference_normalize(CyclotomicSum.make(ctx, 2, {2: 7}))
    assert (u.n, u.coeffs) == (1, {1: 7})


def test_json_round_trip():
    ctx = PrimeContext(5)
    s = CyclotomicSum.make(ctx, 2, {0: 1, 7: -2, 13: 4})
    d = json.loads(json.dumps(s.to_json_dict()))
    t = CyclotomicSum.make(PrimeContext(d["p"]), d["n"], {int(j): a for j, a in d["coeffs"].items()})
    assert t.n == s.n and t.coeffs == s.coeffs and t.context == s.context


def test_zero_orders_frozen_on_digit_sets():
    # the sum of exp(2*pi*i * c / p**n) over a set vanishes at n = 1 for {0, 3} and for all of Z/5, and
    # scaling {0, 3} by 2 moves its zero to n = 2
    assert _zero_orders(2, 3, _level_counts(2, 3, [0, 3])) == {1}
    assert _zero_orders(5, 2, _level_counts(5, 2, range(5))) == {1}
    assert _zero_orders(2, 4, _level_counts(2, 4, [0, 6])) == {2}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_zero_orders_equal_one_zero_test_per_order(data):
    # the residues mix random integers with full cosets r + t*p**(n-1) mod p**n, so
    # that most draws vanish at some order; each residue and each coset is repeated
    # up to 5 times, so counts above 1 meet the sum-of-squares test too; the empty
    # list vanishes at every order
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    m = data.draw(st.integers(0, 5))
    residues = []
    for r, k in data.draw(st.lists(st.tuples(st.integers(-(p ** (m + 1)), p ** (m + 1)),
                                             st.integers(1, 5)), max_size=8)):
        residues += [r] * k
    for n, r, lift, k in data.draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 10**4),
                                                      st.integers(0, 3), st.integers(1, 5)),
                                            max_size=3)):
        residues += [r + t * p ** (n - 1) + lift * p**n for t in range(p)] * k
    want = {n for n in range(m + 1) if vanishes(p, n, residue_counts(p, n, residues))}
    assert _zero_orders(p, m, _level_counts(p, m, residues)) == want
    # a list of the maps, as T1 keeps them, reads as the generator does
    assert _zero_orders(p, m, list(_level_counts(p, m, residues))) == want
    seen = []  # the visitor sees the counts of each order n >= 1 whose sum does not vanish, once, from m down
    assert _zero_orders(p, m, _level_counts(p, m, residues), lambda n, counts: seen.append((n, counts))) == want
    assert seen == [(n, residue_counts(p, n, residues)) for n in range(m, 0, -1) if n not in want]
    for k in range(1, m + 1):  # the maps mod p**m down to p**(m-k+1) decide the orders above m - k + 1 alone
        assert _zero_orders(p, m, islice(_level_counts(p, m, residues), k)) == {n for n in want if n > m - k + 1}
    assert _zero_orders(p, m, _level_counts(p, m, [])) == set(range(m + 1))
    assert _zero_orders(2, 3, _level_counts(2, 3, [0, 4])) == {3}
    assert _zero_orders(2, 2, _level_counts(2, 2, range(4))) == {1, 2}
