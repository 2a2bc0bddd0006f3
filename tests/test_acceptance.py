"""Property-based acceptance gate.

Each test pins one advertised guarantee of the package at desk scale: the
tile/spectral/homogeneous equivalence sweep, the exact zero test for
prime-power root sums, the vanishing-sum structure lemmas, the closed-form
Fourier values, the spectrum-to-complement round trip, density/uniformity of
lifted spectra, zero-set geometry of random truncations, and independent
re-verification of every emitted witness.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from fractions import Fraction as F

import pytest

from conftest import v_p
from padictiles.copen import CompactOpenSet, indicator_fourier
from padictiles.cyclotomic import CyclotomicSum, _level_counts, _zero_orders
from padictiles.decide import (
    classify_all,
    spectrum_orthogonality_defect,
    verify_spectrum_witness,
    verify_tiling_witness,
)
from padictiles.padic import PrimeContext
from padictiles.pairs import (
    NotASpectrumEvidence,
    UniformDiscreteSet,
    lifted_spectrum,
    spectrum_to_tiling_complement,
    uniformity_check,
    verify_spectral_pair,
    zero_bound_check,
    zero_sphere_scan,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def census_sweep():
    t0 = time.perf_counter()
    c24 = classify_all(2, 4, "exhaustive")
    c32 = classify_all(3, 2, "exhaustive")
    return c24, c32, time.perf_counter() - t0


def test_criterion_1_equivalence_sweep(census_sweep):
    c24, c32, elapsed = census_sweep
    assert c24.total == 65535
    assert c32.total == 511
    for census in (c24, c32):
        for row in census.rows:
            assert row.is_tile == row.is_spectral == row.is_homogeneous
    assert elapsed < 60.0


def _random_sums(p: int, count: int, seed: int) -> list[CyclotomicSum]:
    """A mix of arbitrary-coefficient, indicator, and coset-union sums."""
    ctx = PrimeContext(p)
    rng = random.Random(seed)
    sums: list[CyclotomicSum] = []
    while len(sums) < count:
        kind = rng.random()
        n = rng.randint(0, 4)
        q = p**n
        if kind < 0.4:
            support = rng.sample(range(q), rng.randint(1, min(q, 10)))
            coeffs = {j: rng.choice((-3, -2, -1, 1, 2, 3)) for j in support}
            sums.append(CyclotomicSum.make(ctx, n, coeffs))
        elif kind < 0.7:
            support = rng.sample(range(q), rng.randint(1, min(q, 12)))
            sums.append(CyclotomicSum.make(ctx, n, {j: 1 for j in support}))
        else:
            if n == 0:
                continue
            step = p ** (n - 1)
            residues = rng.sample(range(step), rng.randint(1, min(step, 4)))
            support = [r + t * step for r in residues for t in range(p)]
            if rng.random() < 0.3:
                extras = sorted(set(range(q)) - set(support))
                if extras:
                    support.append(rng.choice(extras))
            sums.append(CyclotomicSum.make(ctx, n, {j: 1 for j in support}))
    return sums


@pytest.fixture(scope="module")
def cyclotomic_corpus():
    return {p: _random_sums(p, 10_000, seed=500 + p) for p in (2, 3, 5)}


def test_criterion_2_exact_zero_matches_numeric(cyclotomic_corpus):
    for p, sums in cyclotomic_corpus.items():
        assert len(sums) == 10_000
        disagreements = sum(
            1 for s in sums if s.is_zero() != (abs(s.numeric()) < TOL)
        )
        assert disagreements == 0, f"p={p}"


def test_criterion_3_vanishing_indicator_structure(cyclotomic_corpus):
    rng = random.Random(601)
    for p, sums in cyclotomic_corpus.items():
        vanishing = [
            s
            for s in sums
            if s.coeffs and all(a == 1 for a in s.coeffs.values()) and s.is_zero()
        ]
        assert len(vanishing) > 100  # the corpus must exercise this branch
        for s in vanishing:
            support = sorted(s.coeffs)
            assert len(support) % p == 0  # cardinality divisibility
            q = p**s.n
            step = p ** (s.n - 1)
            blocks = _cosets(s.coeffs, step)
            for block in blocks.values():
                assert len(block) == p
                assert set(block) == {(block[0] + t * step) % q for t in range(p)}
            u = rng.randrange(1, q)
            while u % p == 0:
                u = rng.randrange(1, q)
            scaled = s.scale_exponents(u)
            assert scaled.is_zero()
            assert len(_cosets(scaled.coeffs, step)) == len(blocks)


def _cosets(exponents, step):
    """The exponents grouped by their class mod step, in increasing order within each class."""
    blocks: dict[int, list[int]] = {}
    for j in sorted(exponents):
        blocks.setdefault(j % step, []).append(j)
    return blocks


def test_criterion_3_level_count_divides_cardinality():
    rng = random.Random(607)
    checked = 0
    while checked < 1000:
        p = rng.choice((2, 3, 5))
        m = rng.randint(1, 4 if p < 5 else 3)
        q = p**m
        positions = [k for k in range(m) if rng.random() < 0.5]
        base = [0]
        for k in positions:
            w = p**k
            base = [x + a * w for x in base for a in range(p)]
        elements = set(base)
        if rng.random() < 0.4:
            shift = rng.randrange(1, q)
            translated = {(x + shift) % q for x in base}
            if translated & elements:
                continue  # overlap would merge points; try a fresh instance
            elements |= translated
        levels = {-n for n in _zero_orders(p, m, _level_counts(p, m, elements)) if n >= 1}
        assert {-(k + 1) for k in positions} <= levels
        assert len(elements) % p ** len(levels) == 0
        checked += 1


def _riemann_fourier(om: CompactOpenSet, xi: F) -> complex:
    # plain Riemann sum over cells of radius p^-(v+M+3); the integrand is
    # constant per cell whenever v(xi) >= -(v+M+3)
    ctx = om.context
    v2, m2 = om.v, om.M + 3
    cell = float(ctx.pow(-(v2 + m2)))
    total = 0j
    for d in om.digits_in_frame(v2, m2):
        x = d * ctx.pow(v2)
        total += cmath.exp(-2j * math.pi * float(ctx.frac_part(xi * x))) * cell
    return total


def test_criterion_4_fourier_closed_form_vs_quadrature():
    rng = random.Random(701)
    beyond_support = 0
    for _ in range(100):
        p = rng.choice((2, 3))
        ctx = PrimeContext(p)
        m = rng.randint(0, 4)
        digits = rng.sample(range(p**m), rng.randint(1, p**m))
        om = CompactOpenSet.make(ctx, rng.randint(-1, 1), m, digits)
        vm = om.v + om.M
        for _ in range(10):
            e = rng.randint(-(vm + 3), vm + 2)
            xi = F(rng.randint(1, p**3)) * ctx.pow(e)
            val = indicator_fourier(om, xi)
            assert abs(val.numeric() - _riemann_fourier(om, xi)) < TOL
            if v_p(p, xi) < -vm:
                assert val.sum.is_zero()
                beyond_support += 1
    assert beyond_support > 100


@pytest.fixture(scope="module")
def homogeneous_pipelines(census_sweep):
    c24, c32, _ = census_sweep
    out = []
    for census in (c24, c32):
        ctx = PrimeContext(census.p)
        for row in census.rows:
            if not row.is_homogeneous:
                continue
            om = CompactOpenSet.make(ctx, 0, census.M, row.C)
            lam = lifted_spectrum(om, 3)
            u, report = spectrum_to_tiling_complement(om, lam, 3)
            out.append((om, lam, u, report))
    return out


def test_criterion_5_spectrum_to_complement_round_trip(homogeneous_pipelines):
    assert len(homogeneous_pipelines) == 795 + 40
    for om, _, u, report in homogeneous_pipelines:
        d = report.derived
        split = sorted(d["I"] + d["J"])
        assert split == list(range(d["n_f"]))  # every sphere classified once
        assert not set(d["I"]) & set(d["J"])
        assert len(u) * om.measure() == 1
        assert report.status == "Verified" and report.failure is None


def test_criterion_6_density_and_uniformity(homogeneous_pipelines):
    rng = random.Random(811)
    for om, lam, _, report in homogeneous_pipelines:
        ctx = om.context
        p = ctx.p
        mu = om.measure()
        w = lam.window_exp
        for n in range(report.derived["n_f"], w + 1):
            assert lam.count_in_ball(0, n) == ctx.pow(n) * mu
        n = rng.randint(report.derived["n_f"], w)
        probes = [F(rng.randrange(0, p ** (w + 2)), p**w) for _ in range(20)]
        assert uniformity_check(lam, n, probes)


def _scan_outcome(e: UniformDiscreteSet, levels):
    try:
        return {n: s.value for n, s in zero_sphere_scan(e, levels).items()}
    except NotASpectrumEvidence as exc:
        return ("raise", exc.level, exc.truncation)


def test_criterion_7_zero_sphere_structure():
    rng = random.Random(907)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        ctx = PrimeContext(p)
        w = rng.randint(0, 3)
        elems = {
            F(rng.randint(-(p**4), p**4), p ** rng.randint(0, w))
            for _ in range(rng.randint(2, 7))
        }
        while len(elems) < 2:
            elems.add(F(rng.randint(-(p**4), p**4)))
        e = UniformDiscreteSet.make(ctx, w, elems)
        levels = range(-w - 2, w + 1)
        base = _scan_outcome(e, levels)
        for _ in range(5):
            u = rng.randrange(1, p**3)
            while u % p == 0:
                u = rng.randrange(1, p**3)
            scaled = UniformDiscreteSet.make(ctx, w, [u * x for x in e.elements])
            # unit scaling is a ring automorphism on every truncated sum
            assert _scan_outcome(scaled, levels) == base
        assert zero_bound_check(e)  # no zero sphere at radius >= p^(n_E+2)


def test_criterion_8_witnesses_reverify_independently(
    census_sweep, homogeneous_pipelines
):
    c24, c32, _ = census_sweep
    for census in (c24, c32):
        ctx = PrimeContext(census.p)
        positives = 0
        for row in census.rows:
            if row.witness_T is None:
                assert row.witness_Lambda is None
                continue
            positives += 1
            assert verify_tiling_witness(census.p, census.M, row.C, row.witness_T)
            assert verify_spectrum_witness(ctx, census.M, row.C, row.witness_Lambda)
            defect = spectrum_orthogonality_defect(
                census.p, census.M, row.C, row.witness_Lambda
            )
            assert defect < TOL
        assert positives == census.positive
    # the lifted spectra behind the round-trip reports satisfy the quadratic
    # identity on an explicit window as well
    for om, lam, _, _ in homogeneous_pipelines:
        assert verify_spectral_pair(om, lam, 2).status == "Verified"
