from __future__ import annotations

import cmath
import concurrent.futures
import math
import os
import random
import sys
import time
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padictiles import cyclotomic, decide
from padictiles.copen import CompactOpenSet
from padictiles.cyclotomic import CyclotomicSum, _level_counts, residue_counts, vanishes
from padictiles.decide import (
    Census,
    ConstructionFailed,
    DigitSet,
    ScopeTooLarge,
    Witness,
    WitnessKind,
    _defect,
    _homogeneity_spectrum,
    _levels_at,
    _t1_levels,
    _valuations,
    classify_all,
    complement_from_homogeneity,
    homogeneous_census_size,
    is_spectral_zmod,
    is_tile_zmod,
    spectrum_from_homogeneity,
    spectrum_orthogonality_defect,
    verify_spectrum_witness,
    verify_tiling_witness,
)
from padictiles.copen import frame_branching_set
from padictiles.padic import _LATTICES, PrimeContext, _LatticeMemo
from padictiles.pairs import lifted_spectrum, spectrum_to_tiling_complement


def test_digitset_make_validates():
    ctx = PrimeContext(2)
    ds = DigitSet.make(ctx, 2, (3, 0, 3))
    assert ds.C == (0, 3)
    with pytest.raises(ValueError):
        DigitSet.make(ctx, 1, (0, 2))
    with pytest.raises(ValueError):
        DigitSet.make(ctx, 1, ())


def test_witness_verifiers_frozen():
    assert verify_tiling_witness(2, 2, (0, 3), (0, 2))
    assert not verify_tiling_witness(2, 2, (0, 3), (0, 1))
    assert verify_tiling_witness(2, 2, (0, 1, 2, 3), (0,))
    ctx = PrimeContext(2)
    assert verify_spectrum_witness(ctx, 2, (0, 3), (0, 2))
    assert not verify_spectrum_witness(ctx, 2, (0, 3), (0, 1))
    # wrong cardinality is rejected even when orthogonal
    assert not verify_spectrum_witness(ctx, 2, (0, 3), (0,))
    assert spectrum_orthogonality_defect(2, 2, (0, 3), (0, 2)) < 1e-12
    assert spectrum_orthogonality_defect(2, 2, (0, 3), (0, 1)) > 0.5


def test_the_coverage_recount_refuses_a_wrong_size_before_any_sum():
    # the recount once built all 4096 * 4096 sums before it compared their number with 2^4
    big = tuple(range(4096))
    start = time.perf_counter()
    assert not verify_tiling_witness(2, 4, big, big)
    assert time.perf_counter() - start < 0.1
    assert not verify_tiling_witness(2, 2, (0, 1), (0,))


def test_the_coverage_recount_refuses_a_repeated_element_of_the_right_size():
    # |C|·|T| = p^M, but a repeat leaves some class bare and covers another twice
    assert not verify_tiling_witness(2, 2, (0, 0), (0, 2))
    assert not verify_tiling_witness(2, 2, (0, 1), (0, 0))
    assert not verify_tiling_witness(3, 2, (0, 1, 1), (0, 3, 6))
    assert not verify_tiling_witness(2, 2, (0, 4), (0, 2))  # 0 and 4 are one class mod 4
    assert verify_tiling_witness(2, 2, (0, 5), (0, 2)) and verify_tiling_witness(3, 2, (0, 1, 2), (0, 3, 6))


def test_is_tile_frozen_cases():
    ctx = PrimeContext(2)
    w = is_tile_zmod(DigitSet.make(ctx, 2, (0, 3)))
    assert w is not None and w.elements == (0, 2)
    assert w.kind is WitnessKind.TILING_COMPLEMENT
    assert is_tile_zmod(DigitSet.make(ctx, 2, (0, 1, 2))) is None  # 3 does not divide 4
    ctx3 = PrimeContext(3)
    assert is_tile_zmod(DigitSet.make(ctx3, 2, (0, 1, 3))) is None
    w = is_tile_zmod(DigitSet.make(ctx3, 2, (0, 3, 6)))
    assert w is not None and w.elements == (0, 1, 2)


def test_is_spectral_frozen_cases():
    ctx3 = PrimeContext(3)
    assert is_spectral_zmod(DigitSet.make(ctx3, 1, (0, 1))) is None
    w = is_spectral_zmod(DigitSet.make(ctx3, 1, (0, 1, 2)))
    assert w is not None and w.elements == (0, 1, 2)
    ctx = PrimeContext(2)
    w = is_spectral_zmod(DigitSet.make(ctx, 2, (0, 3)))
    assert w is not None and w.elements == (0, 2)
    w = is_spectral_zmod(DigitSet.make(ctx, 3, (5,)))
    assert w is not None and w.elements == (0,)


def _brute_tile(p, m, c):
    q = p**m
    k = len(c)
    if q % k:
        return None
    cs = set(c)
    size = q // k
    for rest in combinations([t for t in range(1, q)], size - 1):
        t_set = (0,) + rest
        hits = [(x + t) % q for x in cs for t in t_set]
        if len(set(hits)) == q:
            return t_set
    return None


def _brute_spectrum(p, m, c):
    q = p**m
    k = len(c)
    table = [
        [cmath.exp(2j * math.pi * x * d / q) for x in c] for d in range(q)
    ]

    def orth(d):
        return abs(sum(table[d])) < 1e-9

    for rest in combinations(range(1, q), k - 1):
        lam = (0,) + rest
        if all(orth((a - b) % q) for a, b in combinations(lam, 2)):
            return lam
    return None


def test_deciders_match_brute_force_everywhere_p2_m3():
    # every nonempty subset of Z/8: existence agrees with brute-force search
    ctx = PrimeContext(2)
    for mask in range(1, 256):
        c = tuple(i for i in range(8) if mask >> i & 1)
        ds = DigitSet.make(ctx, 3, c)
        wt = is_tile_zmod(ds)
        ws = is_spectral_zmod(ds)
        assert (wt is not None) == (_brute_tile(2, 3, c) is not None)
        assert (ws is not None) == (_brute_spectrum(2, 3, c) is not None)
        if wt is not None:
            assert verify_tiling_witness(2, 3, c, wt.elements)
        if ws is not None:
            assert verify_spectrum_witness(ctx, 3, c, ws.elements)


def test_deciders_match_brute_force_sampled_p3_m2():
    rng = random.Random(301)
    ctx = PrimeContext(3)
    masks = rng.sample(range(1, 512), 60)
    for mask in masks:
        c = tuple(i for i in range(9) if mask >> i & 1)
        ds = DigitSet.make(ctx, 2, c)
        assert (is_tile_zmod(ds) is not None) == (_brute_tile(3, 2, c) is not None)
        assert (is_spectral_zmod(ds) is not None) == (_brute_spectrum(3, 2, c) is not None)


def _reference_tile(p, m, c):
    """The unpruned exact-cover search: cover the smallest uncovered x with
    candidates sorted((x - c) % q), backtracking on overlap."""
    q = p**m
    if q % len(c):
        return None
    masks = [sum(1 << ((x + t) % q) for x in c) for t in range(q)]
    full = (1 << q) - 1
    chosen = []

    def dfs(covered):
        if covered == full:
            return True
        x = ((covered + 1) & ~covered).bit_length() - 1
        for t in sorted((x - y) % q for y in c):
            if not covered & masks[t]:
                chosen.append(t)
                if dfs(covered | masks[t]):
                    return True
                chosen.pop()
        return False

    return tuple(sorted(chosen)) if dfs(0) else None


def _homogeneous_and_perturbed(rng, p, m):
    """Per proper branching set: a random homogeneous set and a copy with one
    base-p digit of one element changed (same size)."""
    for mask in range((1 << m) - 1):
        digits = [0]
        for i in range(m):
            w = p**i
            if mask >> i & 1:
                digits = [d + a * w for d in digits for a in range(p)]
            else:
                digits = [d + rng.randrange(p) * w for d in digits]
        yield tuple(sorted(digits))
        members = set(digits)
        while True:
            c = rng.choice(digits)
            w = p ** rng.randrange(m)
            moved = c + (rng.choice([a for a in range(p) if a != c // w % p]) - c // w % p) * w
            if moved not in members:
                yield tuple(sorted(members - {c} | {moved}))
                break


@pytest.mark.parametrize("p,m", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_tile_witness_equals_unpruned_search(p, m):
    rng = random.Random(1009 * p + m)
    ctx = PrimeContext(p)
    seen = {True: 0, False: 0}
    for c in (c for _ in range(3) for c in _homogeneous_and_perturbed(rng, p, m)):
        w = is_tile_zmod(DigitSet.make(ctx, m, c))
        ref = _reference_tile(p, m, c)
        assert (None if w is None else w.elements) == ref, c
        seen[ref is not None] += 1
    assert seen[True] and seen[False]


def _full_tile_walk(p, m, c):
    """The greedy tile walk run until every cell is covered: the smallest uncovered x takes the first t of
    sorted((x - c) % q) whose digit i, at each branching level i of c, matches that of the translates chosen
    before in its class mod p^i; None when c is not homogeneous."""
    levels = frame_branching_set(p, m, c)
    if levels is None:
        return None
    q = p**m
    rules = [(p**i, {}) for i in sorted(levels)]
    covered = bytearray(q)
    chosen = []
    x = 0
    while x != -1:
        t = next(t for t in sorted((x - y) % q for y in c)
                 if all(d.get(t % w, t // w % p) == t // w % p for w, d in rules))
        for w, d in rules:
            d[t % w] = t // w % p
        for y in c:
            covered[(y + t) % q] = 1
        chosen.append(t)
        x = covered.find(0, x)
    return tuple(sorted(chosen))


_SCALE_INPUTS = [
    # branching levels {1, 5, 9, 13} of Z/2^18, with nonzero digits at the unary levels
    (2, 18, (92296, 92310, 92520, 92534, 95880, 95894, 96104, 96118,
             166024, 166038, 166248, 166262, 169608, 169622, 169832, 169846)),
    (3, 11, (5,)),  # no branching level: no walk step, every cell of Z/3^11 listed from no rule
]


def _tile_walk_cases():
    for p, m in [(2, 3), (2, 4), (3, 2)]:
        for k in (p**e for e in range(m + 1)):
            yield from ((p, m, c) for c in combinations(range(p**m), k))
    for p, m in [(2, 10), (3, 6), (5, 3), (7, 3), (11, 2)]:
        rng = random.Random(1021 * p + m)
        yield from ((p, m, c) for c in _homogeneous_and_perturbed(rng, p, m))
    yield from _SCALE_INPUTS


def test_tile_walk_that_stops_at_the_last_rule_equals_the_full_walk():
    # the walk stops once every digit rule of the complement is set and lists the rest from the rules
    seen = {True: 0, False: 0}
    for p, m, c in _tile_walk_cases():
        w = is_tile_zmod(DigitSet.make(PrimeContext(p), m, c))
        ref = _full_tile_walk(p, m, c)
        assert (None if w is None else w.elements) == ref, (p, m, c)
        seen[ref is not None] += 1
    assert seen[True] > 2000 and seen[False]


def _reference_spectrum(p, m, c):
    """The depth-first spectrum search: anchored at 0, candidates in increasing
    order, every pairwise difference in the zero-difference set D."""
    q = p**m
    k = len(c)
    zeros = {
        j for j in range(m)
        if abs(sum(cmath.exp(2j * math.pi * x * p**j / q) for x in c)) < 1e-9
    }
    dmask = 0
    for d in range(1, q):
        v = 0
        while d % p**(v + 1) == 0:
            v += 1
        if v in zeros:
            dmask |= 1 << d
    full = (1 << q) - 1
    adj = [((dmask << a) | (dmask >> (q - a))) & full for a in range(q)]
    chosen, stack = [0], [adj[0]]
    while len(chosen) < k:
        mask = stack[-1]
        if len(chosen) + mask.bit_count() < k:
            if len(stack) == 1:
                return None
            stack.pop()
            chosen.pop()
            continue
        low = mask & -mask
        stack[-1] = mask ^ low
        chosen.append(low.bit_length() - 1)
        stack.append(stack[-1] & adj[chosen[-1]])
    return tuple(chosen)


@pytest.mark.parametrize("p,m", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_spectrum_witness_equals_search(p, m):
    rng = random.Random(1013 * p + m)
    ctx = PrimeContext(p)
    seen = {True: 0, False: 0}
    for c in (c for _ in range(3) for c in _homogeneous_and_perturbed(rng, p, m)):
        w = is_spectral_zmod(DigitSet.make(ctx, m, c))
        ref = _reference_spectrum(p, m, c)
        assert (None if w is None else w.elements) == ref, c
        seen[ref is not None] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("p,m", [(2, 10), (3, 6)])
def test_spectral_decisions_past_the_search_scope(p, m):
    rng = random.Random(211 * p + m)
    ctx = PrimeContext(p)
    sets = list(_homogeneous_and_perturbed(rng, p, m))
    rejected = 0
    for c in rng.sample(sets, 40):
        start = time.perf_counter()
        w = is_spectral_zmod(DigitSet.make(ctx, m, c))
        took = time.perf_counter() - start
        assert (w is not None) == (frame_branching_set(p, m, c) is not None), c
        if w is None:
            rejected += 1
            # the depth-first search took seconds on some of these sets
            assert took < 0.1, (c, took)
    assert rejected


def test_deciders_at_the_edges_of_z_2_10():
    ctx = PrimeContext(2)
    w = is_tile_zmod(DigitSet.make(ctx, 10, (0,)))
    assert w is not None and w.elements == tuple(range(1024))
    assert verify_tiling_witness(2, 10, (0,), w.elements)
    w = is_spectral_zmod(DigitSet.make(ctx, 10, range(1024)))
    assert w is not None and w.elements == tuple(range(1024))
    assert verify_spectrum_witness(ctx, 10, range(1024), w.elements)


def test_constructors_from_homogeneity_frozen():
    ctx = PrimeContext(2)
    ds = DigitSet.make(ctx, 2, (0, 3))
    assert spectrum_from_homogeneity(ds, {0}).elements == (0, 2)
    assert complement_from_homogeneity(ds, {0}).elements == (0, 2)
    ds = DigitSet.make(ctx, 2, (0, 2))
    assert spectrum_from_homogeneity(ds, {1}).elements == (0, 1)
    assert complement_from_homogeneity(ds, {1}).elements == (0, 1)
    ds = DigitSet.make(ctx, 1, (0, 1))
    assert spectrum_from_homogeneity(ds, {0}).elements == (0, 1)
    assert complement_from_homogeneity(ds, {0}).elements == (0,)
    ctx3 = PrimeContext(3)
    ds = DigitSet.make(ctx3, 2, (0, 3, 6))
    assert spectrum_from_homogeneity(ds, {1}).elements == (0, 1, 2)
    assert complement_from_homogeneity(ds, {1}).elements == (0, 1, 2)


def test_constructors_verify_on_random_homogeneous_sets():
    rng = random.Random(307)
    for p, mmax in ((2, 4), (3, 2)):
        ctx = PrimeContext(p)
        for _ in range(60):
            m = rng.randint(1, mmax)
            levels = frozenset(i for i in range(m) if rng.random() < 0.5)
            # grow a homogeneous digit set level by level: full fan-out on
            # the chosen levels, a single random child elsewhere
            digits = [0]
            for i in range(m):
                w = p**i
                if i in levels:
                    digits = [d + a * w for d in digits for a in range(p)]
                else:
                    digits = [d + rng.randrange(p) * w for d in digits]
            c = tuple(sorted(digits))
            assert frame_branching_set(p, m, c) == levels
            ds = DigitSet.make(ctx, m, c)
            wl = spectrum_from_homogeneity(ds, levels)
            wt = complement_from_homogeneity(ds, levels)
            assert verify_spectrum_witness(ctx, m, c, wl.elements)
            assert verify_tiling_witness(p, m, c, wt.elements)
            assert spectrum_orthogonality_defect(p, m, c, wl.elements) < 1e-9


def test_homogeneous_census_size_closed_form():
    assert homogeneous_census_size(2, 1, frozenset()) == 2
    assert homogeneous_census_size(2, 1, frozenset({0})) == 1
    assert homogeneous_census_size(2, 2, frozenset({0})) == 4
    assert homogeneous_census_size(2, 2, frozenset({1})) == 2
    assert homogeneous_census_size(3, 2, frozenset({1})) == 3
    # exhaustive confirmation at p=2, M=3
    from collections import Counter

    counts = Counter()
    for mask in range(1, 256):
        c = tuple(i for i in range(8) if mask >> i & 1)
        levels = frame_branching_set(2, 3, c)
        if levels is not None:
            counts[levels] += 1
    for levels, n in counts.items():
        assert homogeneous_census_size(2, 3, levels) == n


def test_classify_exhaustive_frozen_counts():
    assert classify_all(2, 1, "exhaustive").positive == 3
    census = classify_all(2, 2, "exhaustive")
    assert (census.total, census.positive) == (15, 11)
    assert census.counts_by_card == {1: 4, 2: 6, 4: 1}
    census = classify_all(2, 3, "exhaustive")
    assert (census.total, census.positive) == (255, 59)
    census = classify_all(3, 1, "exhaustive")
    assert (census.total, census.positive) == (7, 4)
    census = classify_all(3, 2, "exhaustive")
    assert (census.total, census.positive) == (511, 40)


def test_classify_rows_carry_verified_witnesses():
    ctx = PrimeContext(3)
    census = classify_all(3, 2, "exhaustive")
    for row in census.rows:
        if not row.is_tile:
            assert row.witness_T is None and row.witness_Lambda is None
            continue
        assert row.is_spectral and row.is_homogeneous
        assert verify_tiling_witness(3, 2, row.C, row.witness_T)
        assert verify_spectrum_witness(ctx, 2, row.C, row.witness_Lambda)
        assert len(row.C) * len(row.witness_T) == 9
        assert len(row.C) == 3 ** len(row.branching)


def test_census_rows_refuse_assignment_and_keep_their_json_shape():
    rows = classify_all(2, 2, "exhaustive").rows
    positive, negative = rows[2], rows[6]  # masks 3 and 7
    for name in ("C", "is_tile", "branching", "witness_T", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(positive, name, None)
    assert positive.to_json_dict() == {
        "C": [0, 1], "is_tile": True, "is_spectral": True, "is_homogeneous": True,
        "I": [0], "witness_T": [0, 2], "witness_Lambda": [0, 2],
    }
    assert negative.to_json_dict() == {
        "C": [0, 1, 2], "is_tile": False, "is_spectral": False, "is_homogeneous": False,
        "I": None, "witness_T": None, "witness_Lambda": None,
    }


def test_classify_sample_mode_is_deterministic():
    a = classify_all(2, 4, "sample", sample_size=64, seed=9)
    b = classify_all(2, 4, "sample", sample_size=64, seed=9)
    assert [r.C for r in a.rows] == [r.C for r in b.rows]
    assert a.total == 64
    assert len({r.C for r in a.rows}) == 64
    c = classify_all(2, 4, "sample", sample_size=64, seed=10)
    assert [r.C for r in c.rows] != [r.C for r in a.rows]
    # sampling is allowed beyond the exhaustive scope
    d = classify_all(5, 2, "sample", sample_size=10, seed=0)
    assert d.total == 10


def test_classify_jobs_agree_with_serial(monkeypatch):
    # two workers are allowed on a one-CPU host too
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = classify_all(2, 3, "exhaustive")
    parallel = classify_all(2, 3, "exhaustive", jobs=2)
    assert [r.to_json_dict() for r in serial.rows] == [
        r.to_json_dict() for r in parallel.rows
    ]


def test_classify_scope_guard():
    with pytest.raises(ScopeTooLarge):
        classify_all(2, 5, "exhaustive")
    with pytest.raises(ScopeTooLarge):
        classify_all(5, 1, "exhaustive")
    with pytest.raises(ValueError):
        classify_all(2, 2, "nonsense")


@pytest.mark.parametrize("M, sample_size, message", [
    (0, 2, "sample_size exceeds number of nonempty subsets"),  # Z/2^0 has one nonempty subset
    (2, None, "sample mode needs sample_size >= 0"),
])
def test_a_sample_census_refuses_a_size_it_cannot_draw(M, sample_size, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        classify_all(2, M, "sample", sample_size=sample_size)


@pytest.mark.parametrize("mode, sample_size", [("exhaustive", None), ("sample", 1)])
def test_a_census_refuses_a_negative_depth(mode, sample_size):
    # 1 << p**M raised a TypeError on the float 2**-1
    with pytest.raises(ValueError, match="M=-1"):
        classify_all(2, -1, mode, sample_size)


def test_witness_json_shape():
    ctx = PrimeContext(2)
    w = is_tile_zmod(DigitSet.make(ctx, 2, (0, 3)))
    d = w.to_json_dict()
    assert d == {"kind": "tiling-complement", "p": 2, "M": 2, "elements": [0, 2]}


@pytest.mark.parametrize("p, M", [(2, 19), (3, 12)])
def test_mask_limit_is_checked_before_allocation(p, M):
    # the first q past 2^18: without the check both deciders would run their
    # level sums, the tile walk would allocate q bytes and loop q times, and
    # sampling would build a q-bit mask
    ds = DigitSet.make(PrimeContext(p), M, [0])
    tracemalloc.start()
    start = time.perf_counter()
    try:
        for decider in (is_tile_zmod, is_spectral_zmod):
            with pytest.raises(ScopeTooLarge, match=rf"p={p}, M={M}.*q = {p}\^{M} > 262144"):
                decider(ds)
        with pytest.raises(ScopeTooLarge, match=rf"p={p}, M={M}"):
            classify_all(p, M, "sample", sample_size=1)
        took = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p**M // 8
    assert took < 0.5
    # at the limit itself all three run: the tile walk on {0} covers q cells one
    # translate at a time, and the sampled row reads a q-bit mask
    ds = DigitSet.make(PrimeContext(p), M - 1, [0])
    assert len(is_tile_zmod(ds).elements) == p ** (M - 1)
    assert is_spectral_zmod(ds).elements == (0,)
    assert classify_all(p, M - 1, "sample", sample_size=1).total == 1


def test_deciders_at_scale():
    # checking every difference of Λ took 78 s on the first set, and a q-bit
    # tile walk 0.84 s on the second (2-core Xeon, Python 3.11.7)
    ctx = PrimeContext(2)
    C = range(2**13)
    start = time.perf_counter()
    w = is_spectral_zmod(DigitSet.make(ctx, 14, C))
    assert time.perf_counter() - start < 3
    assert w is not None and verify_spectrum_witness(ctx, 14, C, w.elements)
    C = (0, 2**15)
    start = time.perf_counter()
    w = is_tile_zmod(DigitSet.make(ctx, 16, C))
    assert time.perf_counter() - start < 3
    assert w is not None and verify_tiling_witness(2, 16, C, w.elements)


def _reference_verify_spectrum_witness(context, M, C, lam):
    """The exact recheck over every distinct difference of lam."""
    if len(set(lam)) != len(lam) or len(lam) != len(C):
        return False
    p, q = context.p, context.p**M
    return all(
        vanishes(p, M, residue_counts(p, M, (d * c for c in C)))
        for d in {(a - b) % q for a, b in combinations(lam, 2)}
    )


def _reference_spectrum_orthogonality_defect(p, M, C, lam):
    """The numeric guard over every distinct difference of lam."""
    q = p**M
    worst = 0.0
    for d in {(a - b) % q for a, b in combinations(lam, 2)}:
        s = sum(cmath.exp(2j * cmath.pi * ((d * c) % q) / q) for c in C)
        worst = max(worst, abs(s))
    return worst


@pytest.mark.parametrize("p,m", [(2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2)])
def test_recheck_per_valuation_equals_all_differences(p, m):
    rng = random.Random(1013 * p + m)
    ctx, q = PrimeContext(p), p**m
    pairs = positives = 0
    for c in (c for _ in range(3) for c in _homogeneous_and_perturbed(rng, p, m)):
        w = is_spectral_zmod(DigitSet.make(ctx, m, c))
        candidates = [tuple(rng.sample(range(q), len(c))) for _ in range(4)]
        # entries that agree mod q, and an entry repeated
        candidates.append((*c[:-1], c[0] + q) if len(c) > 1 else (q,))
        candidates.append((c[0],) * len(c))
        if w is not None:
            lam = w.elements
            positives += 1
            assert _reference_spectrum_orthogonality_defect(p, m, c, lam) < 1e-9
            assert spectrum_orthogonality_defect(p, m, c, lam) < 1e-9
            candidates.append(lam)
            for i in range(len(lam)):
                moved = rng.choice([x for x in range(q) if x != lam[i]])
                candidates.append(lam[:i] + (moved,) + lam[i + 1 :])
        for lam in candidates:
            want = _reference_verify_spectrum_witness(ctx, m, c, lam)
            assert verify_spectrum_witness(ctx, m, c, lam) == want, (c, lam)
            if len(set(lam)) == len(lam) == len(c):
                # the narrowed guard still separates orthogonal from not
                assert (spectrum_orthogonality_defect(p, m, c, lam) < 1e-9) == want, (c, lam)
            pairs += 1
    assert positives and pairs > 100


def test_the_memoised_recheck_follows_each_witness_of_one_set():
    # one C, asked about good, bad, good Λ in turn, then Λ as a list (JSON witnesses are lists)
    ctx = PrimeContext(2)
    c = (0, 1, 4, 5)
    good = spectrum_from_homogeneity(DigitSet.make(ctx, 3, c), frame_branching_set(2, 3, c)).elements
    bad = (0, 1, 2, 3)
    assert verify_spectrum_witness(ctx, 3, c, good)
    assert not verify_spectrum_witness(ctx, 3, c, bad)
    assert spectrum_orthogonality_defect(2, 3, c, bad) > 1
    assert verify_spectrum_witness(ctx, 3, c, good)
    assert spectrum_orthogonality_defect(2, 3, c, good) < 1e-9
    assert verify_spectrum_witness(ctx, 3, list(c), list(good))
    assert not verify_spectrum_witness(ctx, 3, list(c), list(bad))


@pytest.fixture(params=["cold", "warm"])
def memo(request, monkeypatch):
    """The lattice memo (padic._LATTICES) cold, a budget of 0 that keeps nothing, so that every lattice is
    built on every call, or warm: emptied, then filled by the first call for each branching set.  It is
    emptied again afterwards."""
    _LATTICES.clear()
    if request.param == "cold":
        monkeypatch.setattr(_LATTICES, "budget", 0)
    yield request.param
    _LATTICES.clear()


@pytest.mark.parametrize("p,M", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_the_spectrum_rechecked_on_t1s_counts_equals_the_recount_on_every_exhaustive_family(p, M, memo):
    # the census spectrum is rechecked on the count maps of T1; spectrum_from_homogeneity folds C itself
    ctx = PrimeContext(p)
    rows = [row for row in classify_all(p, M, "exhaustive").rows if row.is_spectral]
    for row in rows:
        assert row.witness_Lambda == spectrum_from_homogeneity(DigitSet(ctx, M, row.C), row.branching).elements
    assert rows
    assert bool(_LATTICES.entries) == (memo == "warm")


@pytest.mark.parametrize("p,m", [(2, 6), (3, 3), (5, 2), (7, 2)])
def test_the_spectrum_rechecked_on_t1s_counts_equals_the_recount_on_perturbed_draws(p, m, memo):
    rng = random.Random(1019 * p + m)
    ctx = PrimeContext(p)
    seen = {True: 0, False: 0}
    for c in (c for _ in range(3) for c in _homogeneous_and_perturbed(rng, p, m)):
        ds = DigitSet.make(ctx, m, c)
        w, levels = is_spectral_zmod(ds), frame_branching_set(p, m, c)
        assert (w is None) == (levels is None), c
        seen[w is not None] += 1
        if w is not None:
            assert w.elements == spectrum_from_homogeneity(ds, levels).elements
            # the levels and counts the recheck read are those of a fold of C of its own
            maps = _t1_levels(ds)[1]
            occurring = _valuations(p, m, w.elements)
            assert _levels_at(p, m, ds.C, occurring, maps) == _levels_at(p, m, ds.C, occurring)
    assert seen[True] and seen[False]
    assert bool(_LATTICES.entries) == (memo == "warm")


def test_a_wrong_count_in_t1s_maps_fails_the_spectrum_recheck():
    # the recheck reads T1's maps rather than folding C again: one count raised at an occurring level of
    # the spectrum (the lowest zero level) must fail it
    ds = DigitSet.make(PrimeContext(2), 4, (0, 1, 4, 5))
    levels, maps = _t1_levels(ds)
    counts = maps[min(levels)]
    try:
        counts[next(iter(counts))] += 1
        with pytest.raises(ConstructionFailed, match="homogeneity spectrum formula failed"):
            is_spectral_zmod(ds)
    finally:
        _t1_levels.cache_clear()
    assert is_spectral_zmod(ds).elements == (0, 2, 8, 10)


@pytest.mark.parametrize("seed", range(3))
def test_a_mutated_lattice_builder_fails_every_spectrum_it_reaches(monkeypatch, seed):
    # the memo keeps lattices, never verdicts: a builder that moves one element of Λ by 1 (at a seeded place)
    # fails the decider, the constructor and the lift, each on a cold memo that builds the bad Λ and again on
    # the warm memo that then holds it
    rng = random.Random(seed)
    build = decide._digit_lattice

    def mutated(*args, **kwargs):
        xs = build(*args, **kwargs)
        xs[rng.randrange(len(xs))] += 1
        return xs

    ctx = PrimeContext(2)
    c = (0, 1, 4, 5)  # branching levels {0, 2}, Λ = {0, 2, 8, 10}
    calls = [lambda: is_spectral_zmod(DigitSet.make(ctx, 4, c)),
             lambda: spectrum_from_homogeneity(DigitSet.make(ctx, 4, c), [2, 0]),
             lambda: lifted_spectrum(CompactOpenSet.make(ctx, 0, 4, c), 3)]
    monkeypatch.setattr(decide, "_digit_lattice", mutated)
    try:
        for call in calls:
            _LATTICES.clear()
            for _ in range(2):
                with pytest.raises(ConstructionFailed, match="homogeneity spectrum formula failed"):
                    call()
    finally:
        _LATTICES.clear()
    monkeypatch.undo()
    assert spectrum_from_homogeneity(DigitSet.make(ctx, 4, c), [0, 2]).elements == (0, 2, 8, 10)


def test_the_tile_walk_on_every_wrong_level_set_fails_at_an_exit_or_returns_a_complement(monkeypatch):
    # T1 handing the walk a wrong set of zero levels, of any size, for every set that passes T1: the walk
    # ends in one of its three ConstructionFailed exits or returns a complement that the recount accepts,
    # and each exit is reached
    exits = dict.fromkeys(["no allowed translate", "rule entries unset", "failed coverage recount"], 0)
    valid = 0
    for p, M in [(2, 3), (3, 2)]:
        for c in (c for k in range(1, p**M + 1) for c in combinations(range(p**M), k)):
            ds = DigitSet.make(PrimeContext(p), M, c)
            if (t1 := _t1_levels(ds)) is None:
                continue
            for wrong in {frozenset(z) for r in range(M + 1) for z in combinations(range(M), r)} - {t1[0]}:
                monkeypatch.setattr(decide, "_t1_levels", lambda C, t1=(wrong, t1[1]): t1)
                try:
                    w = is_tile_zmod(ds)
                except ConstructionFailed as e:
                    exits[next(m for m in exits if m in str(e))] += 1
                else:
                    assert verify_tiling_witness(p, M, c, w.elements), (c, wrong)
                    valid += 1
    assert (list(exits.values()), valid) == ([29, 20, 479], 5)


def test_a_wrong_level_fails_the_homogeneity_complement():
    # {0, 1} branches at level 0, not 1: the digits off level 1 make the complement {0, 1}, and C + {0, 1} misses 3
    with pytest.raises(ConstructionFailed, match="homogeneity complement formula failed"):
        complement_from_homogeneity(DigitSet.make(PrimeContext(2), 2, [0, 1]), [1])


@pytest.mark.parametrize("p, M, C, levels, want", [
    (2, 6, range(0, 64, 2), None, "0x1.1a62633145c07p-49"),
    (3, 3, range(1, 26, 3), {1, 2}, "0x1.0f1dc00529f14p-50"),
])
def test_the_numeric_guard_is_frozen_on_homogeneity_spectra(p, M, C, levels, want):
    # the guard's floats, bit for bit, from before its sums were taken in a plain loop over the levels of T1
    ds = DigitSet.make(PrimeContext(p), M, C)
    lam = spectrum_from_homogeneity(ds, frame_branching_set(p, M, C) if levels is None else levels).elements
    assert spectrum_orthogonality_defect(p, M, C, lam).hex() == want


def test_the_numeric_guard_is_frozen_on_failing_spectra():
    assert spectrum_orthogonality_defect(2, 1024, [0, 2**1022], [0, 1]).hex() == "0x1.6a09e667f3bcdp+0"
    assert spectrum_orthogonality_defect(5, 2, range(5), range(5)).hex() == "0x1.2c2559ae477cep+2"


def test_a_fault_in_the_shared_float_evaluator_fails_the_numeric_guard(monkeypatch):
    # CyclotomicSum.numeric and the guard read one routine, cyclotomic._float_sum: a rect that moves every
    # term by 1e-6 moves the value of 1 + (-1), and fails the guard on a spectrum whose exact recheck passes
    ctx = PrimeContext(2)
    ds, zero = DigitSet.make(ctx, 2, [0, 1]), CyclotomicSum.make(ctx, 1, {0: 1, 1: 1})
    assert abs(zero.numeric()) < 1e-15
    monkeypatch.setattr(cyclotomic, "cmath", SimpleNamespace(rect=lambda r, phi: cmath.rect(r, phi) + 1e-6))
    assert abs(zero.numeric()) > 1e-7
    with pytest.raises(ConstructionFailed, match="numeric guard failed"):
        spectrum_from_homogeneity(ds, [0])
    monkeypatch.undo()
    assert spectrum_from_homogeneity(ds, [0]).elements == (0, 2)


def test_the_lattice_memo_keeps_its_weight_within_its_budget_least_recently_used_first():
    memo, built = _LatticeMemo(10), []

    def lattice(n, weight):
        def build():
            built.append(n)
            return tuple(range(n)), weight
        return build

    assert memo.get("a", lattice(1, 4)) == (0,)
    memo.get("b", lattice(2, 4))
    memo.get("a", lattice(1, 4))  # a is read again, so b is the least recently used
    memo.get("c", lattice(3, 4))  # 12 > 10: b leaves
    assert list(memo.entries) == ["a", "c"] and memo.weight == 8 and built == [1, 2, 3]
    assert memo.get("d", lattice(4, 11)) == (0, 1, 2, 3)  # heavier than the budget: returned, not kept
    assert memo.get("d", lattice(4, 11)) == (0, 1, 2, 3) and built == [1, 2, 3, 4, 4]
    assert list(memo.entries) == ["a", "c"] and memo.weight == 8


def test_threads_sharing_the_lattice_memo_keep_its_weight_exact():
    # each lookup and each insertion with its evictions runs under the memo's lock: a lost update would leave
    # the kept weight unequal to the sum of the entries' weights, or pop from an emptied memo
    memo, switch = _LatticeMemo(40), sys.getswitchinterval()

    def work(seed):
        rng = random.Random(seed)
        for _ in range(3000):
            n = rng.randrange(12)
            assert memo.get(n, lambda: ((n,) * n, n)) == (n,) * n

    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(work, seed) for seed in range(8)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert memo.weight == sum(w for _, w in memo.entries.values()) <= memo.budget


def test_the_library_memo_never_passes_its_budget_and_keeps_no_oversized_lattice():
    rng = random.Random(23)
    _LATTICES.clear()
    try:
        total = 0
        for _ in range(300):  # spectra of drawn branching sets, and lifted witnesses of homogeneous sets
            p, m = rng.choice([(2, 13), (3, 8), (5, 5)])
            levels = tuple(sorted(rng.sample(range(m), rng.randrange(m))))
            lam, occurring = _homogeneity_spectrum(p, m, levels)
            assert occurring == {m - 1 - i for i in levels} and len(lam) == p ** len(levels)
            total += len(lam) * m
            assert _LATTICES.weight == sum(w for _, w in _LATTICES.entries.values()) <= _LATTICES.budget
        for c in _homogeneous_and_perturbed(rng, 2, 6):
            omega = CompactOpenSet.make(PrimeContext(2), 0, 6, c)
            if frame_branching_set(2, 6, c) is not None and omega.v == 0:
                spectrum_to_tiling_complement(omega, lifted_spectrum(omega, 3), 3)
                assert _LATTICES.weight == sum(w for _, w in _LATTICES.entries.values()) <= _LATTICES.budget
        assert total > 4 * _LATTICES.budget  # so lattices left, least recently used first
        # |Λ|·M = 2^13·13 passes the budget: the decider returns Λ and keeps nothing
        weight, key = _LATTICES.weight, ("spectrum", 2, 13, tuple(range(13)))
        assert len(is_spectral_zmod(DigitSet.make(PrimeContext(2), 13, range(2**13))).elements) == 2**13
        assert key not in _LATTICES.entries and _LATTICES.weight == weight
    finally:
        _LATTICES.clear()


def test_t1s_count_maps_leave_with_the_spectral_decision():
    # T1 keeps the count maps of its fold for the spectral decider, which empties T1's cache once it has read
    # them: after both deciders on all of Z/2^18, the cache held 35.8 MB of maps (4.4 MB here on Z/2^15)
    ds = DigitSet.make(PrimeContext(2), 15, range(2**15))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert is_tile_zmod(ds).elements == (0,)
        assert len(is_spectral_zmod(ds).elements) == 2**15
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20


@pytest.mark.parametrize("p,M", [(2, 3), (3, 2)])
def test_a_census_row_folds_each_p_power_size_set_once(monkeypatch, p, M):
    # the tile decider folds C for T1 and the spectral decider rechecks its spectrum on those maps
    folds = []

    def counted(p_, M_, C):
        folds.append(tuple(C))
        return _level_counts(p_, M_, C)

    monkeypatch.setattr(decide, "_level_counts", counted)
    classify_all(p, M)
    sets = [tuple(x for x in range(p**M) if mask >> x & 1) for mask in range(1, 1 << p**M)]
    assert sorted(folds) == sorted(c for c in sets if p**M % len(c) == 0)


def _reference_occurring_levels(p, M, C, lam):
    """The occurring levels by count-map folds of lam and C: (j, counts of C mod p^(M-j)) for each j with
    more classes of lam mod p^(j+1) than mod p^j, p^(M+1) meaning no reduction."""
    sizes = [len(counts) for counts in _level_counts(p, M, lam)][::-1] + [len(lam)]
    occurring = {j for j in range(M + 1) if sizes[j + 1] > sizes[j]}
    levels = zip(range(max(occurring, default=-1) + 1), _level_counts(p, M, C))
    return [(j, counts) for j, counts in levels if j in occurring]


def _reference_defect(p, M, levels):
    """The numeric guard with the angle step 2πi/n as a float: an OverflowError once n passes 2^1023."""
    worst = 0.0
    for j, counts in levels:
        n = p ** (M - j)
        step = 2j * cmath.pi / n
        for u in {v % n for v in (1, -1, 1 + p)}:
            terms = [k * cmath.exp(step * (u * r % n)) for r, k in counts.items()]
            s = complex(math.fsum([z.real for z in terms]), math.fsum([z.imag for z in terms]))
            worst = max(worst, abs(s))
    return worst


@st.composite
def _spectrum_pairs(draw, depth):
    """(p, M, C, lam) as int tuples, with M up to depth[p]: lam's entries are a·p^e + s·p^M, so some are
    equal mod p^M or repeated, some are >= p^M, and |lam| is drawn apart from |C|."""
    p = draw(st.sampled_from([2, 3, 5]))
    M = draw(st.integers(0, depth[p]))
    q = p**M
    C = tuple(draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=12)))
    entry = st.builds(lambda a, e, s: (a * p**e) % q + s * q, st.integers(0, q), st.integers(0, M), st.integers(0, 2))
    return p, M, C, tuple(draw(st.lists(entry, min_size=1, max_size=12)))


@settings(max_examples=400, deadline=None)
@given(case=_spectrum_pairs({2: 9, 3: 6, 5: 4}))
@example(case=(2, 0, (0,), (0, 1, 1)))
@example(case=(3, 2, (0, 1, 2), (0, 3, 6, 9)))
def test_the_set_fold_finds_the_occurring_levels_of_the_count_fold(case):
    # the classes of lam folded as sets give the levels and C's counts of the count-map fold they replaced
    p, M, C, lam = case
    assert _levels_at(p, M, C, _valuations(p, M, lam)) == _reference_occurring_levels(*case)


@settings(max_examples=300, deadline=None)
@given(case=_spectrum_pairs({2: 1023, 3: 645, 5: 440}))  # p^M <= 2^1023, where 2πi/p^M is a float
@example(case=(2, 3, (0, 3), (0, 1)))  # |sum| 2cos(π/8) at the unit 3 and 2cos(3π/8) at 1 and -1
@example(case=(2, 1023, (0, 2**1022), (0, 1)))
def test_the_guard_agrees_with_the_float_step_wherever_that_step_is_finite(case):
    p, M, C, lam = case
    levels = _levels_at(p, M, C, _valuations(p, M, lam))
    assert _defect(p, M, levels) == pytest.approx(_reference_defect(p, M, levels), rel=0, abs=1e-12)
    assert spectrum_orthogonality_defect(p, M, C, lam) == _defect(p, M, levels)


def _no_pool(max_workers):
    raise AssertionError("a worker pool was started")


def test_jobs_are_bounded_by_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # decide imports the pool class from concurrent.futures only when jobs > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    for jobs in (0, -1, 3, 10**9):
        with pytest.raises(ValueError, match=rf"--jobs must be between 1 and os.cpu_count\(\) = 2; got {jobs}"):
            classify_all(2, 2, "exhaustive", jobs=jobs)
        with pytest.raises(ValueError, match="--jobs"):
            classify_all(2, 2, "sample", sample_size=3, jobs=jobs)


def test_digit_set_make_forms_no_power_for_small_elements():
    # 3**(10**8) alone takes many seconds; the deciders then refuse through their q limit
    ctx = PrimeContext(3)
    start = time.perf_counter()
    assert DigitSet.make(ctx, 10**8, [5, 0, 5]).C == (0, 5)
    assert time.perf_counter() - start < 0.5
    assert DigitSet.make(ctx, 2, [8, 0]).C == (0, 8)
    for M, elements in ((2, [9]), (2, [0, 2**20]), (0, [1]), (2, [-1, 3])):
        with pytest.raises(ValueError, match=r"elements outside \[0, p\*\*M\)"):
            DigitSet.make(ctx, M, elements)
