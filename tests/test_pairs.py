from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import v_p
from padictiles.copen import (
    CompactOpenSet,
    ScaledCyclotomic,
    autocorrelation,
    frame_branching_set,
    indicator_fourier,
    local_constancy_parameter,
)
from padictiles import copen, decide, padic, pairs
from padictiles.cyclotomic import CyclotomicSum, residue_counts, vanishes
from padictiles.decide import (
    ConstructionFailed,
    DigitSet,
    complement_from_homogeneity,
    spectrum_from_homogeneity,
)
from padictiles.padic import _LATTICES, Ball, PrimeContext, ScopeTooLarge, character
from padictiles.pairs import (
    Failure,
    NotASpectrumEvidence,
    PairReport,
    SphereStatus,
    UniformDiscreteSet,
    WindowTooSmall,
    _lattice_truncation,
    _rat,
    density,
    lifted_spectrum,
    lifted_tiling_complement,
    n_f_of,
    spectrum_to_tiling_complement,
    uniformity_check,
    verify_spectral_pair,
    verify_tiling_pair,
    zero_bound_check,
    zero_sphere_scan,
)


def _representatives(p: int, k: int) -> list[F]:
    """The representatives j / p**k, 0 <= j < p**k, of the cosets of Z_p in B(0, p**k)."""
    return [F(j, p**k) for j in range(p**k)]


def test_uniform_discrete_set_make():
    ctx = PrimeContext(2)
    e = UniformDiscreteSet.make(ctx, 1, [3, F(1, 2), 0, 3])
    assert e.elements == (0, F(1, 2), 3)
    with pytest.raises(WindowTooSmall):
        UniformDiscreteSet.make(ctx, 0, [F(1, 2)])
    with pytest.raises(ValueError):
        UniformDiscreteSet.make(ctx, 0, [])


def test_n_e_values():
    ctx = PrimeContext(2)
    assert UniformDiscreteSet.make(ctx, 0, [0, 3]).n_E() == 0
    assert UniformDiscreteSet.make(ctx, 0, [0, 4, 9]).n_E() == 2
    assert UniformDiscreteSet.make(ctx, 0, [7]).n_E() is None


def test_the_lattice_truncation_represents_cosets():
    # the lifts build T = U + {j / p**k} and Λ from this lattice: one representative per coset of Z_p in B(0, p**k)
    ctx = PrimeContext(2)
    reps = _lattice_truncation(ctx, [0], 2, 2).elements
    assert reps == (0, F(1, 4), F(1, 2), F(3, 4)) == tuple(_representatives(2, 2))
    for i in range(4):
        for j in range(i + 1, 4):
            assert v_p(2, reps[i] - reps[j]) < 0
    assert _lattice_truncation(PrimeContext(3), [0], 0, 0).elements == (0,)
    assert _lattice_truncation(PrimeContext(3), [0, 1], 1, 1).elements == (0, F(1, 3), F(2, 3), 1, F(4, 3), F(5, 3))


def test_n_f_frozen_values():
    c2 = PrimeContext(2)
    assert n_f_of(CompactOpenSet.make(c2, 0, 0, (0,))) == 0  # Z_2
    assert n_f_of(CompactOpenSet.make(c2, 0, 2, (0, 3))) == 2
    assert n_f_of(CompactOpenSet.make(c2, 3, 0, (0,))) == 3  # B(0, 2^-3)
    assert n_f_of(CompactOpenSet.make(c2, -2, 0, (0,))) == -2  # B(0, 4)
    assert n_f_of(CompactOpenSet.make(c2, -1, 1, (1,))) == 0  # 1/2 + Z_2
    c3 = PrimeContext(3)
    assert n_f_of(CompactOpenSet.make(c3, 0, 2, (0, 3, 6))) == 1  # = 3 Z_3


def test_n_f_is_the_autocorrelation_threshold():
    rng = random.Random(401)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(40):
            m = rng.randint(0, 3)
            digits = rng.sample(range(p**m), rng.randint(1, p**m))
            om = CompactOpenSet.make(ctx, rng.randint(-1, 1), m, digits)
            nf = n_f_of(om)
            vm = om.v + om.M
            reps = p ** max(vm - nf, 0)
            assert all(autocorrelation(om, t * ctx.pow(nf)) > 0 for t in range(reps))
            # minimality: one ball lower always contains a vanishing shift
            reps = p ** max(vm - (nf - 1), 0)
            assert any(
                autocorrelation(om, t * ctx.pow(nf - 1)) == 0 for t in range(reps)
            )


def test_zero_sphere_scan_frozen():
    ctx = PrimeContext(2)
    e = UniformDiscreteSet.make(ctx, 0, [0, 3])
    scan = zero_sphere_scan(e, range(-3, 1))
    assert scan[-1] is SphereStatus.IN_ZERO_SET
    assert scan[-2] is SphereStatus.NOT_IN_ZERO_SET
    assert scan[-3] is SphereStatus.NOT_IN_ZERO_SET
    assert scan[0] is SphereStatus.NOT_IN_ZERO_SET
    single = UniformDiscreteSet.make(ctx, 6, [0])
    assert all(
        s is SphereStatus.NOT_IN_ZERO_SET
        for s in zero_sphere_scan(single, range(-4, 7)).values()
    )
    c3 = PrimeContext(3)
    full = UniformDiscreteSet.make(c3, 0, [0, 1, 2])
    assert zero_sphere_scan(full, [-1])[-1] is SphereStatus.IN_ZERO_SET
    with pytest.raises(WindowTooSmall):
        zero_sphere_scan(full, [1])


def test_zero_sphere_scan_unit_invariance():
    # status depends only on the sphere, not the chosen representative
    rng = random.Random(409)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(30):
            w = rng.randint(0, 2)
            pool = [
                F(rng.randint(-p**3, p**3), p ** rng.randint(0, w))
                for _ in range(rng.randint(2, 6))
            ]
            e = UniformDiscreteSet.make(ctx, w, set(pool))
            for n in range(-3, w + 1):
                want = None
                for u in (1, 1 + p, 2 * p + 1, p * p + 1, 2 * p * p + 1):
                    xi = u * ctx.pow(n)
                    zero = CyclotomicSum.from_roots(
                        ctx,
                        (character(ctx, xi, x) for x in e.elements),
                    ).is_zero()
                    if want is None:
                        want = zero
                    assert zero == want


def test_scan_rejects_resurrecting_sums():
    ctx = PrimeContext(2)
    # at level -1 the sum over {0,3} dies, then 1/2 revives it one window out
    e = UniformDiscreteSet.make(ctx, 1, [0, 3, F(1, 2)])
    with pytest.raises(NotASpectrumEvidence) as exc:
        zero_sphere_scan(e, [-1])
    assert exc.value.level == -1
    assert exc.value.truncation == 1


def test_zero_bound_frozen_and_random():
    ctx = PrimeContext(2)
    assert zero_bound_check(UniformDiscreteSet.make(ctx, 5, [0, 1]))
    assert zero_bound_check(UniformDiscreteSet.make(ctx, 5, [0, 2]))
    assert zero_bound_check(UniformDiscreteSet.make(ctx, 3, [7]))  # vacuous
    rng = random.Random(419)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(40):
            w = rng.randint(0, 3)
            pool = {
                F(rng.randint(-(p**4), p**4), p ** rng.randint(0, w))
                for _ in range(rng.randint(1, 6))
            }
            e = UniformDiscreteSet.make(ctx, w, pool)
            assert zero_bound_check(e)


def test_density_frozen_values():
    c3 = PrimeContext(3)
    e = UniformDiscreteSet.make(c3, 0, [0, 1, 2])
    assert density(e, 0, [0]) == [(0, F(3))]
    c2 = PrimeContext(2)
    lattice = UniformDiscreteSet.make(c2, 3, range(8))
    assert density(lattice, 0, [3]) == [(3, F(1))]
    with pytest.raises(WindowTooSmall):
        density(lattice, 0, [4])
    # off-center ball: radius 2 swallows every integer, count stays 8
    assert density(lattice, 2, [1]) == [(1, F(4))]
    om = CompactOpenSet.make(c2, 0, 2, (0, 3))
    lam = lifted_spectrum(om, 2)
    assert density(lam, 0, range(2, 5)) == [(2, F(1, 2)), (3, F(1, 2)), (4, F(1, 2))]


def test_uniformity_check_cases():
    c2 = PrimeContext(2)
    om = CompactOpenSet.make(c2, 0, 2, (0, 3))
    lam = lifted_spectrum(om, 2)
    probes = [0, F(1, 2), 3, F(7, 4)]
    assert uniformity_check(lam, 2, probes)
    assert uniformity_check(lam, 3, probes)
    skew = UniformDiscreteSet.make(c2, 2, [0, 1])
    assert not uniformity_check(skew, 1, [0])
    with pytest.raises(WindowTooSmall):
        uniformity_check(skew, 1, [F(1, 8)])


def test_verify_tiling_pair_cases():
    ctx = PrimeContext(2)
    zp = CompactOpenSet.make(ctx, 0, 0, (0,))
    t = UniformDiscreteSet.make(ctx, 3, _representatives(2, 3))
    rep = verify_tiling_pair(zp, t, 3)
    assert rep.status == "Verified"
    assert rep.checked_points == 8  # one cell per coset of Z_2 in B(0, 8)
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    tl = lifted_tiling_complement(om, 3)
    assert verify_tiling_pair(om, tl, 3).status == "Verified"
    # malformed: duplicate coverage of the zero cell
    bad = UniformDiscreteSet.make(
        ctx, 2, [0, 2] + [x for x in _representatives(2, 2) if x != 0]
    )
    rep = verify_tiling_pair(zp, bad, 0)
    assert rep.status == "FailedAt"
    assert rep.failure.xi == 0
    assert rep.failure.lhs == 2 and rep.failure.rhs == 1
    with pytest.raises(WindowTooSmall):
        verify_tiling_pair(om, UniformDiscreteSet.make(ctx, 0, [0, 2]), 3)


def test_verify_tiling_pair_detects_gaps():
    ctx = PrimeContext(3)
    zp = CompactOpenSet.make(ctx, 0, 0, (0,))
    gap = UniformDiscreteSet.make(
        ctx, 2, [x for x in _representatives(3, 2) if x != F(1, 3)]
    )
    rep = verify_tiling_pair(zp, gap, 2)
    assert rep.status == "FailedAt"
    assert rep.failure.lhs == 0
    assert rep.failure.xi == F(1, 3)  # ascending order finds the gap itself


def test_verify_spectral_pair_cases():
    ctx = PrimeContext(2)
    zp = CompactOpenSet.make(ctx, 0, 0, (0,))
    lam = UniformDiscreteSet.make(ctx, 2, _representatives(2, 2))
    assert verify_spectral_pair(zp, lam, 2).status == "Verified"
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    good = lifted_spectrum(om, 2)
    rep = verify_spectral_pair(om, good, 2)
    assert rep.status == "Verified"
    assert rep.derived["density"] == om.measure()
    # dropping an element leaves a deficit at some representative
    broken = UniformDiscreteSet.make(ctx, good.window_exp, good.elements[1:])
    rep = verify_spectral_pair(om, broken, 2)
    assert rep.status == "FailedAt"
    assert abs(rep.failure.lhs.numeric()) < float(rep.failure.rhs)
    with pytest.raises(WindowTooSmall):
        verify_spectral_pair(om, UniformDiscreteSet.make(ctx, 1, [0, F(1, 2)]), 2)


def test_a_failure_whose_left_side_is_past_the_float_range_renders_its_hint():
    # Ω = 2^-600 {0, 1, 2} fails at ξ = 2^597 with an irrational left side 2^1194 s, where float(2^1194) raised
    ctx = PrimeContext(2)
    rep = verify_spectral_pair(CompactOpenSet.make(ctx, -600, 3, (0, 1, 2)), UniformDiscreteSet.make(ctx, -597, [0]),
                               -597)
    assert rep.failure.lhs.power == 1194 and rep.failure.xi == 2**597
    assert rep.to_json_dict()["failure"]["lhs"]["numeric_hint"] == "(inf-infj)"


def test_spectral_pair_rejects_wrong_spectrum():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 1, (0,))  # 2 Z_2, measure 1/2
    # use the spectrum of Z_2 instead: too sparse for 2 Z_2
    lam = UniformDiscreteSet.make(ctx, 2, _representatives(2, 2))
    assert verify_spectral_pair(om, lam, 1).status == "FailedAt"


def test_spectrum_to_tiling_frozen_pipeline():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    lam = lifted_spectrum(om, 3)
    u, rep = spectrum_to_tiling_complement(om, lam, 3)
    assert u == (0, 2)
    assert rep.status == "Verified"
    assert rep.derived["n_f"] == 2
    assert rep.derived["I"] == [0]
    assert rep.derived["J"] == [1]
    assert rep.derived["card_U"] == 2
    assert rep.derived["measure"] == F(1, 2)
    assert rep.derived["spectrum_count_at_n_f"] == 2


def test_the_lift_depth_of_the_constructed_spectrum_changes_no_complement(roundtrip_sets):
    # Λ = p^(-M_f)·(Λ₀ + L): each truncated sphere sum is Λ₀'s times a geometric sum over L, which never
    # vanishes, so the spheres, U and the report are the same at every depth k of the lift
    for p, M, C in roundtrip_sets:
        om = CompactOpenSet.make(PrimeContext(p), 0, M, C)
        (u, rep), *deeper = [spectrum_to_tiling_complement(om, lifted_spectrum(om, k), 3) for k in (3, 0, 1)]
        assert rep.status == "Verified"
        assert all(u_k == u and rep_k.to_json_dict() == rep.to_json_dict() for u_k, rep_k in deeper)


def test_spectrum_to_tiling_scaled_ball():
    c3 = PrimeContext(3)
    om = CompactOpenSet.make(c3, 0, 2, (0, 3, 6))  # canonicalizes to 3 Z_3
    lam = lifted_spectrum(om, 3)
    u, rep = spectrum_to_tiling_complement(om, lam, 3)
    assert u == (0, 1, 2)
    assert rep.status == "Verified"
    assert rep.derived["n_f"] == 1
    assert rep.derived["I"] == []
    assert rep.derived["J"] == [0]


def test_spectrum_to_tiling_two_level_set():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 3, (0, 1, 4, 5))
    lam = lifted_spectrum(om, 3)
    u, rep = spectrum_to_tiling_complement(om, lam, 3)
    assert u == (0, 2)
    assert rep.status == "Verified"
    assert rep.derived["I"] == [0]
    assert rep.derived["J"] == [1]


def test_spectrum_to_tiling_rejections():
    ctx = PrimeContext(2)
    with pytest.raises(ValueError):
        spectrum_to_tiling_complement(
            CompactOpenSet.make(ctx, -1, 1, (1,)),
            UniformDiscreteSet.make(ctx, 2, [0]),
            2,
        )
    # the spectrum of Z_2 classifies every scanned sphere as zero: U collapses
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    wrong = UniformDiscreteSet.make(ctx, 3, _representatives(2, 3))
    with pytest.raises(ConstructionFailed):
        spectrum_to_tiling_complement(om, wrong, 3)


@pytest.mark.parametrize("omega, lam, message", [
    (CompactOpenSet.make(PrimeContext(3), 1, 2, (0, 2, 7)),
     UniformDiscreteSet.make(PrimeContext(3), 5, [F(1, 2), F(17, 27)]),
     "Card(U)·measure = 27·1/9 = 3 != 1; I=[], J=[0, 1, 2], n_f=3"),
    (CompactOpenSet.make(PrimeContext(2), 0, 3, (0, 2, 3, 4, 5, 6, 7)),
     UniformDiscreteSet.make(PrimeContext(2), 3, [4, 7, F(-1, 2), -7, -1, -4]),
     "Card(U)·measure = 1·7/8 = 7/8 != 1; I=[], J=[], n_f=0"),
    (CompactOpenSet.make(PrimeContext(2), 0, 3, (0,)),
     UniformDiscreteSet.make(PrimeContext(2), 2, [1, F(3, 4)]),
     "Card(U)·measure = 4·1/8 = 1/2 != 1; I=[1], J=[0, 2], n_f=3"),
])
def test_a_complement_whose_measure_is_not_one_over_card_u_is_refused(omega, lam, message):
    # |U|·𝔪(Ω) = 1 is read as |U|·|D| = p^(v+M).  Each pair was found by a seeded search, and each message
    # was taken before that identity was read in ints: U too large by p, a measure that is not a power of p,
    # and U too small by p, so an identity off by one power of p either way refuses a row or passes one
    with pytest.raises(ConstructionFailed) as err:
        spectrum_to_tiling_complement(omega, lam, 3)
    assert str(err.value) == message


def test_the_roundtrip_reports_are_frozen_on_every_homogeneous_set(memo):
    # the benchmark's roundtrip on the 835 homogeneous sets of Z/2^4 and Z/3^2, one JSON line per set,
    # against the sha256 of the bytes before the window checks counted in ints; with the memo warm the 835
    # sets read the facts of their 20 lifted spectra from it, and with the memo cold every set derives them
    digest = hashlib.sha256()
    for p, M in ((2, 4), (3, 2)):
        ctx = PrimeContext(p)
        for r in range(1, p**M + 1):
            for C in combinations(range(p**M), r):
                if frame_branching_set(p, M, C) is None:
                    continue
                om = CompactOpenSet.make(ctx, 0, M, C)
                lam = lifted_spectrum(om, 3)
                u, tiling = spectrum_to_tiling_complement(om, lam, 3)
                row = {"p": p, "M": M, "C": list(C), "spectrum": lam.to_json_dict(), "U": list(u),
                       "tiling": tiling.to_json_dict(), "spectral": verify_spectral_pair(om, lam, 2).to_json_dict()}
                digest.update((json.dumps(row, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == "f43e7d8df27080be7b949c13674901e8d50bdd67af256f688e28933a946a9e10"


@pytest.mark.parametrize("memo", ["warm"], indirect=True)
def test_one_pass_derives_the_facts_of_each_lifted_spectrum_once(monkeypatch, roundtrip_sets, memo):
    # the 835 sets share 20 lifted spectra, each with one n_f: from an empty memo, one pass scans each
    # spectrum and counts its ball about 0 once, and a second pass derives neither again
    scans, counts = [], []
    scan, count_in_ball = pairs._scan, UniformDiscreteSet.count_in_ball
    monkeypatch.setattr(pairs, "_scan", lambda e, levels: scans.append(e) or scan(e, levels))
    monkeypatch.setattr(UniformDiscreteSet, "count_in_ball", lambda e, *a: counts.append(e) or count_in_ball(e, *a))
    for run in range(2):
        for p, M, C in roundtrip_sets:
            om = CompactOpenSet.make(PrimeContext(p), 0, M, C)
            lam = lifted_spectrum(om, 3)
            _, tiling = spectrum_to_tiling_complement(om, lam, 3)
            assert tiling.status == verify_spectral_pair(om, lam, 2).status == "Verified"
        if run == 0:
            assert len(scans) == len(counts) == len({e.memo_key for e in scans}) == 20
    assert len(scans) == len(counts) == 20


def _pipeline(omega, lam, window_exp):
    """The complement built from lam and the spectral check's report, each as JSON or as the refusal."""
    out = []
    for call in (spectrum_to_tiling_complement, verify_spectral_pair):
        try:
            got = call(omega, lam, window_exp)
            out.append([list(got[0]), got[1].to_json_dict()] if call is spectrum_to_tiling_complement
                       else got.to_json_dict())
        except (WindowTooSmall, NotASpectrumEvidence, ConstructionFailed) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


@pytest.mark.parametrize("memo", ["warm"], indirect=True)
def test_a_refused_fact_is_kept_by_no_memo(memo):
    # a kept truncation whose scan raises, and windows too small for the spectral check or for the scan up
    # to n_f, raise on every call; no fact is kept for them
    ctx = PrimeContext(2)
    resurrecting = pairs._kept_truncation(ctx, ("test",), (0, 12, 14), 4, 0, 3)  # {0, 3/2, 7/4}
    narrow = lifted_spectrum(CompactOpenSet.make(ctx, 0, 1, (0,)), 0)  # window 1
    deep = CompactOpenSet.make(ctx, 2, 3, (0, 1, 4, 5))  # n_f = 4, and its spectral check needs p**4
    cases = [(CompactOpenSet.make(ctx, 0, 1, (0,)), resurrecting, (
                 "NotASpectrumEvidence", "sphere level 0: truncated sum vanished then came back nonzero at p**2")),
             (deep, narrow, ("WindowTooSmall", "sphere level 2 needs the truncation at p**2, window is p**1"))]
    for omega, lam, refusal in cases:
        assert lam.memo_key is not None
        kept = set(_LATTICES.entries)
        for _ in range(2):
            with pytest.raises(getattr(pairs, refusal[0])) as err:
                spectrum_to_tiling_complement(omega, lam, 3)
            assert str(err.value) == refusal[1]
            with pytest.raises(WindowTooSmall) as err:
                verify_spectral_pair(deep, lam, 2)
            assert str(err.value) == f"spectrum declared to p**{lam.window_exp}, need p**4"
        assert set(_LATTICES.entries) == kept


def _kept_spectra_and_sets():
    """Lifted spectra of a few homogeneous sets, each with every set of Z/2^3, or of Z/3^2 with at most three digits,
    at v = 0, 1 and 2: checked against one spectrum, two sets may differ in n_f, v, v + M or ℓ alone."""
    spectra = [(PrimeContext(p), M, C, k) for p, M, C, k in ((2, 2, (0, 3), 4), (2, 3, (0, 1, 4, 5), 3),
                                                              (2, 1, (0,), 5), (3, 2, (0, 4, 8), 3))]
    sets = {2: [C for r in range(1, 9) for C in combinations(range(8), r)],
            3: [C for r in (1, 2, 3) for C in combinations(range(9), r)]}
    return [(CompactOpenSet.make(ctx, 0, M, C), k, [CompactOpenSet.make(ctx, v, 2 if ctx.p == 3 else 3, D)
                                                    for v in (0, 1, 2) for D in sets[ctx.p]])
            for ctx, M, C, k in spectra]


@pytest.mark.parametrize("memo", ["warm"], indirect=True)
def test_the_facts_kept_beside_a_lifted_witness_equal_those_of_an_unkept_copy(memo):
    # one kept spectrum against many sets fills the memo with its facts under keys holding n_f, e = W - v, the
    # grouping's cut and step, and each order; an equal truncation built by a caller carries no key and derives
    # every fact, so a scan, count or grouping key that left out n_f, e, the cut or the step, or a coset test key
    # that left out the order, would read another set's fact here
    checked = Counter()
    for base, k, sets in _kept_spectra_and_sets():
        lam = lifted_spectrum(base, k)
        copy = UniformDiscreteSet.make(lam.context, lam.window_exp, lam.elements)
        assert copy == lam and hash(copy) == hash(lam) and repr(copy) == repr(lam)
        assert lam.memo_key is not None and copy.memo_key is None and replace(lam).memo_key is None
        with pytest.raises(TypeError):
            UniformDiscreteSet(lam.context, lam.window_exp, lam.numerators, memo_key=lam.memo_key)
        for omega in sets:
            for window in (0, 2):
                got = built, spectral = _pipeline(omega, lam, window)
                assert got == _pipeline(omega, copy, window), (base, omega, window)
                checked[built[0] if isinstance(built, tuple) else "built"] += 1
                checked[spectral[0] if isinstance(spectral, tuple) else spectral["status"]] += 1
    assert len(_LATTICES.entries) > 100
    assert set(checked) == {"built", "ConstructionFailed", "Verified", "FailedAt"} and min(checked.values()) > 50


def test_lifted_witnesses_across_homogeneous_family():
    cases = [
        (2, 2, (0, 3)),
        (2, 3, (0, 1, 4, 5)),
        (2, 3, (1, 3, 5, 7)),
        (2, 4, (0, 6)),
        (3, 2, (0, 3, 6)),
        (3, 2, (0, 1, 2)),
        (3, 1, (1,)),
    ]
    for p, m, digits in cases:
        ctx = PrimeContext(p)
        om = CompactOpenSet.make(ctx, 0, m, digits)
        lam = lifted_spectrum(om, 2)
        assert verify_spectral_pair(om, lam, 2).status == "Verified"
        t = lifted_tiling_complement(om, 2)
        assert verify_tiling_pair(om, t, 2).status == "Verified"
        # spectra have exact density measure(om) inside the window
        nf = n_f_of(om)
        for n in range(nf, lam.window_exp + 1):
            assert lam.count_in_ball(0, n) == ctx.pow(n) * om.measure()


def test_the_lifted_witnesses_read_the_frame_digits_of_a_made_set_no_more(monkeypatch):
    # the digits of the full frame come sorted and distinct from digits_in_frame, and DigitSet.make read
    # them again (padic._frame_digits) on every lift
    ctx = PrimeContext(2)
    om, at_zero = CompactOpenSet.make(ctx, 1, 3, (0, 1, 4, 5)), CompactOpenSet.make(ctx, 0, 3, (0, 1, 4, 5))
    reads = []
    for module in (padic, copen, decide):
        read = module._frame_digits
        monkeypatch.setattr(module, "_frame_digits", lambda *args, read=read: reads.append(args) or read(*args))
    assert (om.v, om.M, om.digits) == (1, 2, (0, 1))  # {0, 2} + 8 Z_2 on the full frame
    assert lifted_spectrum(om, 2).numerators == (0, 1, 2, 3, 8, 9, 10, 11)
    assert lifted_tiling_complement(om, 2).numerators == (0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23)
    # a canonical frame at v = 0 is its own full frame: its digits are read as they are, not rebuilt and sorted
    frames, digits_in_frame = [], CompactOpenSet.digits_in_frame
    monkeypatch.setattr(CompactOpenSet, "digits_in_frame", lambda s, *a: frames.append(a) or digits_in_frame(s, *a))
    assert (at_zero.v, at_zero.M, at_zero.digits) == (0, 2, (0, 1))
    assert lifted_spectrum(at_zero, 2).numerators == (0, 1, 2, 3, 8, 9, 10, 11)
    assert lifted_tiling_complement(at_zero, 2).numerators == (0, 1, 2, 3, 8, 9, 10, 11) and not frames
    assert lifted_spectrum(om, 2).numerators == (0, 1, 2, 3, 8, 9, 10, 11) and frames == [(0, 3)]
    assert not reads


def test_lift_rejects_inhomogeneous_sets():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 2, (0, 1, 2))
    with pytest.raises(ConstructionFailed):
        lifted_spectrum(om)
    with pytest.raises(ConstructionFailed):
        lifted_tiling_complement(om)


@pytest.mark.parametrize("call, message", [
    (lambda: UniformDiscreteSet.make(PrimeContext(2), 2, [0, F(1, 4)]).residues(1, 3),
     r"^residues need w >= window_exp: w=1, window_exp=2$"),
    (lambda: lifted_spectrum(CompactOpenSet.make(PrimeContext(2), -1, 2, (0, 1))),
     r"^lift requires a subset of Z_p \(v >= 0\)$"),
    (lambda: lifted_tiling_complement(CompactOpenSet.make(PrimeContext(3), -2, 1, (1,))),
     r"^lift requires a subset of Z_p \(v >= 0\)$"),
])
def test_a_scale_below_the_set_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pair_report_json_shapes():
    ctx = PrimeContext(2)
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    rep = verify_tiling_pair(om, lifted_tiling_complement(om, 2), 2)
    d = rep.to_json_dict()
    assert d["status"] == "Verified" and d["failure"] is None
    assert d["kind"] == "tiling"
    good = lifted_spectrum(om, 2)
    broken = UniformDiscreteSet.make(ctx, good.window_exp, good.elements[1:])
    d = verify_spectral_pair(om, broken, 2).to_json_dict()
    assert d["status"] == "FailedAt"
    assert "lhs" in d["failure"] and "xi" in d["failure"]


# Window checks written directly in Fraction arithmetic: the reference that
# every decision and every report of the integer-residue checks must equal.


def _reference_n_f_of(omega):
    ctx = omega.context
    p = ctx.p
    vm = omega.v + omega.M
    n = min(-vm - 1, local_constancy_parameter(omega))
    while True:
        reps = p ** max(vm - n, 0)
        if all(autocorrelation(omega, t * ctx.pow(n)) > 0 for t in range(reps)):
            return n
        n += 1


def _reference_zero_sphere_scan(e, levels):
    ctx, p, w = e.context, e.context.p, e.window_exp
    levels = sorted(set(levels))
    depth = max(0, w - min([0] + levels))
    by_shell = {}
    for x in e.elements:
        shell = -w if x == 0 else -v_p(ctx.p, x)
        by_shell.setdefault(shell, []).append(ctx.residue(x * ctx.pow(w), depth))
    first_nonempty = -w if 0 in e.elements else min(by_shell)
    shells = sorted(by_shell.items())
    out = {}
    for n in levels:
        if n > w:
            raise WindowTooSmall(f"sphere level {n} needs the truncation at p**{n}, window is p**{w}")
        q = p ** (w - n)
        counts = Counter()
        added = 0
        seen_zero = last_zero = False
        for k in range(max(n, first_nonempty), w + 1):
            while added < len(shells) and shells[added][0] <= k:
                counts.update(r % q for r in shells[added][1])
                added += 1
            last_zero = vanishes(p, w - n, counts)
            if last_zero:
                seen_zero = True
            elif seen_zero:
                raise NotASpectrumEvidence(
                    n, k, f"sphere level {n}: truncated sum vanished then came back nonzero at p**{k}"
                )
        out[n] = SphereStatus.IN_ZERO_SET if last_zero else SphereStatus.NOT_IN_ZERO_SET
    return out


def _reference_verify_tiling_pair(omega, t_set, window_exp):
    ctx = omega.context
    p = ctx.p
    ell = local_constancy_parameter(omega)
    need = max(window_exp, -ell)
    if t_set.window_exp < need:
        raise WindowTooSmall(
            f"tiling translates declared to p**{t_set.window_exp}, need p**{need}"
        )
    rel = [t for t in t_set.elements if t == 0 or v_p(ctx.p, t) >= -need]
    s_res = max(omega.v + omega.M, -window_exp)
    v2 = min([omega.v, -window_exp] + [v_p(ctx.p, t) for t in rel if t != 0])
    m2 = s_res - v2
    q = p**m2
    base = omega.digits_in_frame(v2, m2)
    step = p ** max(0, -window_exp - v2)
    targets = range(0, q, step)
    counts = dict.fromkeys(targets, 0)
    for t in rel:
        shift = ctx.residue(t * ctx.pow(-v2), m2)
        for d in base:
            cell = (d + shift) % q
            if cell in counts:
                counts[cell] += 1
    failure = None
    for cell in targets:
        if counts[cell] != 1:
            failure = Failure(xi=cell * ctx.pow(v2), lhs=F(counts[cell]), rhs=F(1))
            break
    return PairReport(
        kind="tiling",
        verified_window=Ball.make(ctx, -window_exp, 0, 0),
        checked_points=len(targets),
        failure=failure,
    )


def _reference_verify_spectral_pair(omega, lam, window_exp):
    ctx = omega.context
    p = ctx.p
    vm = omega.v + omega.M
    ell = local_constancy_parameter(omega)
    need = max(window_exp, vm)
    if lam.window_exp < need:
        raise WindowTooSmall(f"spectrum declared to p**{lam.window_exp}, need p**{need}")
    reps = [t * ctx.pow(-window_exp) for t in range(p ** max(window_exp - ell, 0))]
    target = len(omega.digits) ** 2
    mu2 = omega.measure() ** 2
    failure, xs = None, lam.elements
    for xi in reps:
        total = CyclotomicSum.make(ctx, 0, {})
        for x in xs:
            if v_p(ctx.p, xi - x) >= -vm:
                f = indicator_fourier(omega, xi - x)
                total = total + f.sum * f.sum.conjugate()
        if not (total - CyclotomicSum.constant(ctx, target)).is_zero():
            failure = Failure(xi=xi, lhs=ScaledCyclotomic(-2 * vm, total), rhs=mu2)
            break
    return PairReport(
        kind="spectral",
        verified_window=Ball.make(ctx, -window_exp, 0, 0),
        checked_points=len(reps),
        failure=failure,
        derived={"density": len(lam.elements) * ctx.pow(-lam.window_exp)},
    )


def _reference_lifted_spectrum(omega, extra_exp=3):
    ctx = omega.context
    mf = omega.v + omega.M
    digits_f = omega.digits_in_frame(0, mf)
    ds = DigitSet.make(ctx, mf, digits_f)
    w0 = spectrum_from_homogeneity(ds, frame_branching_set(ctx.p, mf, digits_f))
    scale = ctx.pow(-ds.M)
    elems = [(x + l) * scale for x in w0.elements for l in _representatives(ctx.p, extra_exp)]
    return UniformDiscreteSet.make(ctx, ds.M + extra_exp, elems)


def _outcome(fn, *args):
    """A call's result, or the exception's type, message and evidence."""
    try:
        return fn(*args)
    except (WindowTooSmall, NotASpectrumEvidence) as e:
        return (type(e).__name__, str(e), getattr(e, "level", None), getattr(e, "truncation", None))


def _report(fn, *args):
    out = _outcome(fn, *args)
    return out.to_json_dict() if isinstance(out, PairReport) else out


def _homogeneous_frames():
    """Canonical frames of the homogeneous sets of Z/2^3 and Z/3^2 at v = -2, 0, 1."""
    seen = {}
    for p, m in ((2, 3), (3, 2)):
        ctx = PrimeContext(p)
        for r in range(1, p**m + 1):
            for digits in combinations(range(p**m), r):
                if frame_branching_set(p, m, digits) is None:
                    continue
                for v in (-2, 0, 1):
                    om = CompactOpenSet.make(ctx, v, m, digits)
                    seen[(p, om.v, om.M, om.digits)] = om
    return list(seen.values())


def _variants(e, *shifts):
    """E, E + shift for each shift (a unit, times p**-w when the window w is negative), and
    E with one element dropped."""
    ctx, w, xs = e.context, e.window_exp, e.elements
    out = [e] + [UniformDiscreteSet.make(ctx, w, [x + shift * ctx.pow(max(-w, 0)) for x in xs]) for shift in shifts]
    if len(xs) > 1:
        out.append(UniformDiscreteSet.make(ctx, w, xs[: len(xs) // 2] + xs[len(xs) // 2 + 1 :]))
    return out


def _read_once(e):
    """The context, window and elements of e, its elements derived once for the references that read them often."""
    return SimpleNamespace(context=e.context, window_exp=e.window_exp, elements=e.elements)


def _scaled(ctx, e, v):
    """p**v * E, with the window moved to match."""
    return UniformDiscreteSet.make(ctx, e.window_exp - v, [x * ctx.pow(v) for x in e.elements])


def test_window_checks_equal_the_fraction_reference():
    # the lifted truncations at every depth k are block sets, read through their heads; their variants shift
    # the heads by 1, hold a unit > 1 (not a block) or drop an element, and the windows -1 and 3 give the tiling
    # check a step > 1 and cells coarser than the block
    for om in _homogeneous_frames():
        ctx, p = om.context, om.context.p
        assert n_f_of(om) == _reference_n_f_of(om)
        base = CompactOpenSet(ctx, 0, om.M, om.digits)
        u0 = complement_from_homogeneity(
            DigitSet.make(ctx, om.M, om.digits), frame_branching_set(p, om.M, om.digits)
        ).elements
        shift = F(1, 3) if p == 2 else F(1, 2)
        for k in (0, 1, 2, 3):
            lam0, t0 = lifted_spectrum(base, k), lifted_tiling_complement(base, k)
            assert lam0 == _reference_lifted_spectrum(base, k)
            assert t0 == UniformDiscreteSet.make(ctx, k, [x + l for x in u0 for l in _representatives(p, k)])
            assert min(lam0.block_depth, t0.block_depth) >= k
            if om.v >= 0:
                assert lifted_spectrum(om, k) == _reference_lifted_spectrum(om, k)
            lams = [(lam, _read_once(lam)) for lam in _variants(_scaled(ctx, lam0, -om.v), shift, 1)]
            for lam, ref in lams:
                levels = range(-lam.window_exp - 3, lam.window_exp + 1)
                assert _outcome(zero_sphere_scan, lam, levels) == _outcome(
                    _reference_zero_sphere_scan, ref, levels
                )
                for radius in range(lam.window_exp - k - 2, lam.window_exp + 1):  # p**(W - radius) past p**k too
                    assert lam.count_in_ball(0, radius) == _reference_count_in_ball(ref, 0, radius)
            for lam, ref in lams[:2] + lams[3:] if k == 2 else ():  # the spectral check reads no block
                for window in (0, 2):
                    assert _report(verify_spectral_pair, om, lam, window) == _report(
                        _reference_verify_spectral_pair, om, ref, window
                    )
            for t_set in _variants(_scaled(ctx, t0, om.v), shift, 1):
                ref = _read_once(t_set)
                for window in (-1, 0, 2, 3):
                    assert _report(verify_tiling_pair, om, t_set, window) == _report(
                        _reference_verify_tiling_pair, om, ref, window
                    )


def test_a_failing_block_complement_fails_where_the_reference_does():
    # U' = {1, 2} does not complement D = {0, 3}: at window 3 the cell of ξ = 1 is covered twice, the first
    # failure found in the heads' count as in the reference's count of all 16 translates
    ctx = PrimeContext(2)
    omega = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    for heads in ((1, 2), (0, 2)):
        t_set = UniformDiscreteSet.make(ctx, 3, [u + F(j, 8) for u in heads for j in range(8)])
        assert t_set.block_depth == 3
        for window in (-1, 0, 2, 3):
            assert _report(verify_tiling_pair, omega, t_set, window) == _report(
                _reference_verify_tiling_pair, omega, t_set, window
            )
        report = verify_tiling_pair(omega, t_set, 3)
        assert report.checked_points == 32
        assert report.failure is None if heads == (0, 2) else report.failure.to_json_dict() == {
            "xi": "1/1", "lhs": "2/1", "rhs": "1/1"}


def test_scan_starts_at_the_shell_of_zero():
    # 0 sits in shell -W: below it only 16 (shell -4) joins, and {0, 16}
    # vanishes at level -5 before 8 (shell -3) revives the sum
    e = UniformDiscreteSet.make(PrimeContext(2), 2, [0, 8, 16])
    assert zero_sphere_scan(e, [-5]) == _reference_zero_sphere_scan(e, [-5])
    assert zero_sphere_scan(e, [-5])[-5] is SphereStatus.NOT_IN_ZERO_SET


def test_the_scan_reads_every_sum_from_its_one_fold(monkeypatch):
    # one fold per scan, with no recount of a truncation and no valuation per residue; at level -3
    # the sum over {12, 16} (shell -2 and below) vanishes at p**-2 and p**-1, and 7 revives it at p**0
    ctx = PrimeContext(2)
    walked, passing = UniformDiscreteSet.make(ctx, 0, [7, 12, 16]), UniformDiscreteSet.make(ctx, 2, [0, 8, 16])
    folds, valuations = [], []
    level_counts, capped_valuation = pairs._level_counts, pairs._capped_valuation
    monkeypatch.setattr(pairs, "_level_counts", lambda *args: folds.append(args) or level_counts(*args))
    monkeypatch.setattr(pairs, "_capped_valuation", lambda *args: valuations.append(args) or capped_valuation(*args))
    with pytest.raises(NotASpectrumEvidence) as exc:
        zero_sphere_scan(walked, [-3])
    assert (exc.value.level, exc.value.truncation) == (-3, 0)
    assert zero_sphere_scan(passing, [-5, -1, 0]) == _reference_zero_sphere_scan(passing, [-5, -1, 0])
    assert len(folds) == 2 and not valuations
    assert not hasattr(pairs, "residue_counts")
    # a lifted spectrum, |Λ₀| = 2 heads times a block of 2^3: its one fold reads the 2 heads, not the 16 elements
    lam = lifted_spectrum(CompactOpenSet.make(ctx, 0, 2, (0, 3)), 3)
    assert (len(lam.numerators), lam.block_depth) == (16, 3)
    levels = range(-lam.window_exp, lam.window_exp + 1)
    assert zero_sphere_scan(lam, levels) == _reference_zero_sphere_scan(lam, levels)
    assert len(folds) == 3 and len(folds[-1][2]) == 2 and not valuations


def test_the_block_depth_is_derived_not_passed():
    ctx = PrimeContext(2)
    with pytest.raises(TypeError):
        UniformDiscreteSet(ctx, 3, (0, 1), 1, 1)
    # by hand: B·2^k ⊕ [0, 2^k) up to k <= max(window_exp, 0), with unit 1 and strictly increasing numerators
    for nums, w, unit, depth in (((0, 1, 2, 3, 8, 9, 10, 11), 3, 1, 2), ((0, 1, 2, 3, 8, 9, 10, 11), 1, 1, 1),
                                 ((0, 1, 2, 3), 0, 1, 0), ((0, 1, 2, 3), -2, 1, 0), ((0, 1, 2, 3), 5, 3, 0),
                                 ((0, 1, 3, 4), 3, 1, 0), ((1, 2), 3, 1, 0), ((0, 1, 1, 3), 3, 1, 0),
                                 ((2, 3, 0, 1), 3, 1, 0), ((0, 3, 1, 2), 3, 1, 0), ((), 3, 1, 0), ((-4, -3), 2, 1, 1)):
        e = UniformDiscreteSet(ctx, w, nums, unit)
        assert e.block_depth == depth, nums
        twin = UniformDiscreteSet(ctx, w, nums, unit)
        object.__setattr__(twin, "block_depth", depth + 1)  # equality and hash do not read it
        assert e == twin and hash(e) == hash(twin) and "block_depth" not in repr(e)
    for p, heads, k in ((3, (0, 4), 1), (3, (1, 2, 7), 2), (5, (0,), 1)):
        nums = tuple(b * p**k + j for b in heads for j in range(p**k))
        assert UniformDiscreteSet(PrimeContext(p), k, nums).block_depth == k
    # the lifted witnesses derive it as every other truncation does, and compare equal to the references
    omega = CompactOpenSet.make(ctx, 0, 3, (0, 1, 4, 5))
    for k in (0, 1, 3):
        lam = lifted_spectrum(omega, k)
        assert lam == _reference_lifted_spectrum(omega, k) and lam.block_depth == k
        assert lifted_tiling_complement(omega, k).block_depth == k


def test_a_deep_scan_holds_the_counts_of_one_level_at_a_time():
    # a scan holds O(|E|) counts at any depth: the fold passes 196 levels of up to 999 residues each
    # before the walk names level 95, and holding every level's counts would take about 90 count maps
    w = 100
    e = UniformDiscreteSet.make(PrimeContext(2), w, [F(a, 2**w) for a in range(1, 1000)])
    tracemalloc.start()
    try:
        residue_counts(2, 2 * w, e.residues(w, 2 * w))
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(NotASpectrumEvidence) as exc:
            zero_sphere_scan(e, range(-w, w + 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.level, exc.value.truncation) == (95, 98)
    assert peak < 8 * one


def test_a_dense_set_within_the_difference_work_is_decided():
    # 2,048 digits of Z/2^12 have at most 2^12 distinct differences, so the work of their |D|^2
    # differences is within the bound: about 0.4 s and 0.7 s
    ctx = PrimeContext(2)
    omega = CompactOpenSet.make(ctx, 0, 12, random.Random(12).sample(range(2**12), 2048))
    assert len(omega.digits) == 2048 and n_f_of(omega) == 0
    assert verify_spectral_pair(omega, UniformDiscreteSet.make(ctx, 12, [0]), 0).failure is None


def test_ball_counts_and_n_e_equal_the_fraction_reference():
    rng = random.Random(433)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(60):
            w = rng.randint(-1, 3)
            pool = {
                F(rng.randint(-(p**4), p**4) * p ** max(-w, 0), p ** rng.randint(0, max(w, 0)))
                * rng.choice((1, F(1, 5), F(7, 11)))
                for _ in range(rng.randint(1, 7))
            }
            e = UniformDiscreteSet.make(ctx, w, pool)
            vals = [v_p(ctx.p, x - y) for x, y in combinations(e.elements, 2)]
            assert e.n_E() == (max(vals) if vals else None)
            for c in (0, F(1, 3), F(1, p), F(-5, p**2), *e.elements[:2]):
                for radius in range(-3, 5):
                    want = sum(1 for x in e.elements if v_p(ctx.p, x - c) >= -radius)
                    assert e.count_in_ball(c, radius) == want


# References for the numerator checks: every element's residue recomputed
# from its Fraction, and the quadratic identity summed one CyclotomicSum per λ.


def _reference_residues(ctx, xs, w, m):
    p, q = ctx.p, ctx.p**m
    up, down = p ** max(w, 0), p ** max(-w, 0)
    out = []
    for x in xs:
        a, b = x.numerator * up, x.denominator * down
        g = gcd(a, b)
        out.append(a // g * pow(b // g, -1, q) % q)
    return out


def _reference_n_e(e):
    k = len(e.elements)
    if k == 1:
        return None
    m = 1
    while len(set(_reference_residues(e.context, e.elements, e.window_exp, m))) < k:
        m += 1
    return m - 1 - e.window_exp


def _reference_n_E(e):
    # the walk over m = 1, 2, ... with every residue recomputed at each step
    k = len(set(e.numerators))
    if k == 1:
        return None
    m = 1
    while len(set(e.residues(e.window_exp, m))) < k:
        m += 1
    return m - 1 - e.window_exp


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((2, 3, 5)),
    st.integers(-3, 3),
    st.lists(st.tuples(st.integers(-(10**4), 10**4), st.integers(0, 60)), min_size=1, max_size=8),
    st.sampled_from((1, 7, 143)),
)
def test_n_E_equals_the_walk_over_m(p, w, parts, unit):
    # built directly, so numerators may repeat (a drawn pair twice, or a = 0 at any b);
    # one part gives a singleton, and the units 7 and 143 are prime to each p
    numerators = tuple(sorted(a * p**b for a, b in parts))
    e = UniformDiscreteSet(PrimeContext(p), w, numerators, unit)
    assert e.n_E() == _reference_n_E(e)


def _reference_count_in_ball(e, c, radius_exp):
    ctx = e.context
    w = e.window_exp if c == 0 else max(e.window_exp, -v_p(ctx.p, c))
    m = max(w - radius_exp, 0)
    return _reference_residues(ctx, e.elements, w, m).count(_reference_residues(ctx, [c], w, m)[0])


def _reference_progressive_spectral_pair(omega, lam, window_exp):
    ctx, p = omega.context, omega.context.p
    vm = omega.v + omega.M
    ell = local_constancy_parameter(omega)
    need = max(window_exp, vm)
    w = lam.window_exp
    if w < need:
        raise WindowTooSmall(f"spectrum declared to p**{w}, need p**{need}")
    q, cut = p ** (w - omega.v), p ** (w - vm)
    by_class = {}
    for r in _reference_residues(ctx, lam.elements, w, w - omega.v):
        by_class.setdefault(r % cut, []).append(r)
    scale, step = ctx.pow(-w), p ** (w - window_exp)
    reps = range(p ** max(window_exp - ell, 0))
    target = len(omega.digits) ** 2
    squares = {}
    failure = None
    for t in reps:
        s = t * step
        total = CyclotomicSum.make(ctx, 0, {})
        for r in by_class.get(s % cut, ()):
            d = (s - r) % q
            if d not in squares:
                f = indicator_fourier(omega, d * scale)
                squares[d] = f.sum * f.sum.conjugate()
            total = total + squares[d]
        if not (total - CyclotomicSum.constant(ctx, target)).is_zero():
            failure = Failure(xi=t * ctx.pow(-window_exp), lhs=ScaledCyclotomic(-2 * vm, total),
                              rhs=omega.measure() ** 2)
            break
    return PairReport(
        kind="spectral",
        verified_window=Ball.make(ctx, -window_exp, 0, 0),
        checked_points=len(reps),
        failure=failure,
        derived={"density": len(lam.elements) * ctx.pow(-lam.window_exp)},
    )


_FRAMES = _homogeneous_frames()
# unit denominators other than 1: 1/3 and -5/7 in Q_2, 1/2 in Q_3
_UNITS = {2: (1, F(1, 3), F(-5, 7)), 3: (1, F(1, 2))}


@st.composite
def _pairs_case(draw):
    """A homogeneous Ω and a set E near its lifted spectrum or complement:
    scaled by a unit, shifted, with elements dropped or added."""
    om = draw(st.sampled_from(_FRAMES))
    ctx, p = om.context, om.context.p
    base = CompactOpenSet(ctx, 0, om.M, om.digits)
    lifted = draw(st.sampled_from((lifted_spectrum, lifted_tiling_complement)))(base, 2)
    e = _scaled(ctx, lifted, draw(st.sampled_from((-om.v, om.v))))
    w = e.window_exp
    unit = draw(st.sampled_from(_UNITS[p]))
    shift = draw(st.integers(-(p**2), p**2)) * draw(st.sampled_from(_UNITS[p])) * ctx.pow(-w)
    elems = [x * unit + shift for x in e.elements]
    keep = draw(st.lists(st.booleans(), min_size=len(elems), max_size=len(elems)))
    elems = [x for x, k in zip(elems, keep) if k] or elems[:1]
    extra = draw(st.lists(st.integers(-(p**3), p**3), max_size=3))
    elems += [a * unit * ctx.pow(-w) for a in extra]
    return om, UniformDiscreteSet.make(ctx, w, elems), elems


def _example_case(p, v, M, digits, window_exp, elems):
    ctx = PrimeContext(p)
    return CompactOpenSet.make(ctx, v, M, digits), UniformDiscreteSet.make(ctx, window_exp, elems), elems


# Λ misses 1/32: the representatives ξ = 0 and 1/4 see one difference multiset, which
# passes once and is then skipped, and ξ = 1/2 fails
_SHARED_MULTISET = _example_case(2, -1, 2, (0, 1), 5, [F(x) for x in ("0", "1/16", "3/32", "1/4", "9/32",
                                                                      "5/16", "11/32")])
# 9/4 = 1/4 + 2 repeats 1/4 modulo p**v Z_p: ξ = 0 passes and ξ = 1/4 fails on the same
# set of differences, seen once and twice, so a key must hold the multiplicities
_REPEATED_DIFFERENCE = _example_case(2, -1, 2, (1,), 3, [F(0), F(1, 8), F(1, 4), F(3, 8), F(9, 4)])
# cells of the tiling check are 2 apart (step 2); moving the translate 3/2 to 5/2 leaves
# cell 0 bare and covers cell 2 twice
_STEP_TWO_GAP = _example_case(2, -1, 2, (1,), 3, [F(j, 8) for j in range(16) if j != 12] + [F(5, 2)])


@settings(max_examples=150, deadline=None)
@given(_pairs_case(), st.integers(-2, 2), st.sampled_from((0, 1, 2)))
@example(case=_SHARED_MULTISET, radius=0, window=2)
@example(case=_REPEATED_DIFFERENCE, radius=0, window=2)
@example(case=_STEP_TWO_GAP, radius=1, window=0)
def test_numerator_checks_equal_the_fraction_references(case, radius, window):
    om, e, elems = case
    p = e.context.p
    want = tuple(sorted(set(elems)))
    assert e.elements == want
    assert e.to_json_dict() == {"p": p, "window_exp": e.window_exp, "elements": [_rat(x) for x in want]}
    d = e.to_json_dict()
    assert UniformDiscreteSet.make(PrimeContext(d["p"]), d["window_exp"], [F(x) for x in d["elements"]]) == e
    assert e.n_E() == _reference_n_e(e)
    for c in (0, 1, -p, F(1, 3), F(-5, p**2), F(1, 2), *e.elements[:2]):
        assert e.count_in_ball(c, radius) == _reference_count_in_ball(e, F(c), radius)
    levels = range(-e.window_exp - 2, e.window_exp + 1)
    assert _outcome(zero_sphere_scan, e, levels) == _outcome(_reference_zero_sphere_scan, e, levels)
    assert _report(verify_tiling_pair, om, e, window) == _report(_reference_verify_tiling_pair, om, e, window)
    spectral = _report(verify_spectral_pair, om, e, window)
    assert spectral == _report(_reference_progressive_spectral_pair, om, e, window)
    assert spectral == _report(_reference_verify_spectral_pair, om, e, window)


def test_scan_and_density_bound_the_depth_of_their_levels():
    # the work per level grows with W - level; p**(W - lowest level) may have 2048 bits
    ctx = PrimeContext(2)
    e = UniformDiscreteSet.make(ctx, 0, [0, 3])
    assert set(zero_sphere_scan(e, [-2047, 0]).values()) == {SphereStatus.NOT_IN_ZERO_SET}
    assert density(e, 0, [-2047]) == [(-2047, 2**2047)]  # only 0 lies that close to 0
    with pytest.raises(ScopeTooLarge, match="window 0 down to level -2048 .* depth=2048"):
        zero_sphere_scan(e, [-2048, 0, 1])
    with pytest.raises(ScopeTooLarge, match="window 0 down to k = -2048 .* depth=2048"):
        density(e, 0, [-2048, 0])
    deep = UniformDiscreteSet(ctx, 2048, (0,))  # built directly, past the window limit of make
    with pytest.raises(ScopeTooLarge, match="window 2048 down to level 0"):
        zero_sphere_scan(deep, [0])
    with pytest.raises(ScopeTooLarge, match="window=2048"):
        UniformDiscreteSet.make(ctx, 2048, [0])


# The spectral check as it was before whole classes were decided by one coset test per valuation of D - D:
# each representative expands its differences against all |D|^2 digit overlaps.  Every report must equal it.


def _expanded_spectral_pair(omega, lam, window_exp):
    ctx, p = omega.context, omega.context.p
    vm, ell, w = omega.v + omega.M, local_constancy_parameter(omega), lam.window_exp
    if w < max(window_exp, vm):
        raise WindowTooSmall(f"spectrum declared to p**{w}, need p**{max(window_exp, vm)}")
    e = w - omega.v
    q, cut, step = p**e, p ** (w - vm), p ** (w - max(window_exp, ell))
    reps = range(p ** max(window_exp - ell, 0))
    by_class = {}
    for r in lam.residues(w, e):
        by_class.setdefault(r % cut, []).append(r)
    target, qm = len(omega.digits) ** 2, p**omega.M
    overlaps = Counter((a - b) % qm for a in omega.digits for b in omega.digits)
    failure = None
    for t in reps:
        s = t * step
        diffs = Counter((s - r) % q for r in by_class.get(s % cut, ()))
        n = e - pairs._capped_valuation(p, gcd(*diffs), e)  # the largest order among the differences
        qn, lift = p**n, p ** (e - n)
        acc = Counter({0: -target})
        for d, k in diffs.items():
            for delta, c in overlaps.items():
                acc[-(d // lift) * delta % qn] += k * c
        if not vanishes(p, n, acc):
            acc[0] += target
            total = CyclotomicSum(ctx, n, {j: a for j, a in acc.items() if a})
            failure = Failure(s * ctx.pow(-w), ScaledCyclotomic(-2 * vm, total), omega.measure() ** 2)
            break
    return PairReport("spectral", Ball(ctx, -window_exp, 0, 0), len(reps), failure,
                      {"density": len(lam.numerators) * ctx.pow(-w)})


def _spectral_cases(roundtrip_sets, rng):
    """(Ω, Λ, window_exp): each roundtrip set with its lifted spectrum and that spectrum with one element
    dropped, moved within its class mod p**(W-v-M) or moved anywhere, at window_exp 0, 2 and 3; then random
    D at v in {-1, 0, 1} against random Λ."""
    for p, M, C in roundtrip_sets:
        ctx = PrimeContext(p)
        om = CompactOpenSet.make(ctx, 0, M, C)
        lam = lifted_spectrum(om, 3)
        w, nums = lam.window_exp, list(lam.numerators)
        cut = p ** (w - om.v - om.M)
        i = rng.randrange(len(nums))
        rest = nums[:i] + nums[i + 1:]
        within = [nums[i] + cut * a for a in range(1, p**om.M)]
        anywhere = range(nums[i] + 1, nums[i] + p**w)
        variants = [lam, rest] + [rest + [rng.choice([x for x in pool if x not in nums] or [-1])]
                                  for pool in (within, anywhere)]
        for v in variants:
            v = v if isinstance(v, UniformDiscreteSet) else UniformDiscreteSet.make(ctx, w, [F(x, p**w) for x in v])
            for window in (0, 2, 3):
                yield om, v, window
    for _ in range(400):
        p = rng.choice((2, 3))
        ctx = PrimeContext(p)
        m = rng.randint(0, 4 if p == 2 else 2)
        om = CompactOpenSet.make(ctx, rng.choice((-1, 0, 1)), m, rng.sample(range(p**m), rng.randint(1, p**m)))
        vm = om.v + om.M
        w = vm + rng.randint(0, 3)
        elems = [rng.randrange(p ** (w - om.v + 1)) for _ in range(rng.randint(1, 2 * len(om.digits) * p))]
        yield om, UniformDiscreteSet.make(ctx, w, [a * ctx.pow(-w) for a in elems]), rng.randint(vm - 2, w)


def test_the_spectral_check_equals_the_per_representative_expansion(roundtrip_sets):
    # a class of |D| elements passes when K(p**j) vanishes in every class at each valuation j of D - D;
    # the classes of other sizes and every set failing a coset test still expand, at each representative
    reports = [(_report(verify_spectral_pair, *case), _report(_expanded_spectral_pair, *case))
               for case in _spectral_cases(roundtrip_sets, random.Random(32))]
    assert all(got == want for got, want in reports)
    assert len(reports) == 835 * 4 * 3 + 400
    assert sum(got["status"] == "FailedAt" for got, _ in reports) > 1000  # 1,226 on Python 3.11


def test_the_spectral_check_folds_d_minus_d_only_for_a_class_of_d_elements(monkeypatch):
    # with Λ = {0} no class holds |D| = 3 elements, so the fold of D - D through its 600 levels decides nothing;
    # the check took 317 µs with it and 22 µs without (2-core Xeon, Python 3.11.7)
    ctx = PrimeContext(2)
    omega, lam = CompactOpenSet.make(ctx, 0, 600, (0, 1, 2**599)), UniformDiscreteSet.make(ctx, 600, [0])

    def refuse(*args):
        raise AssertionError("D - D was folded, and no class holds |D| elements")
    monkeypatch.setattr(pairs, "_valuations", refuse)
    assert verify_spectral_pair(omega, lam, 0).status == "Verified"
    # each class of a lifted spectrum holds |D| elements, and the one fold decides them all; the coset tests on
    # Λ's residues are kept beside Λ, so a second check folds D - D again and tests no coset
    folds, tests, valuations, coset_test = [], [], decide._valuations, pairs._vanishes
    monkeypatch.setattr(pairs, "_valuations", lambda *args: folds.append(args) or valuations(*args))
    monkeypatch.setattr(pairs, "_vanishes", lambda *args: tests.append(args) or coset_test(*args))
    om = CompactOpenSet.make(ctx, 0, 2, (0, 3))
    _LATTICES.clear()
    try:
        lam = lifted_spectrum(om, 2)
        assert verify_spectral_pair(om, lam, 2).status == "Verified" and len(folds) == 1
        assert [order for _, order, _ in tests] == [4]  # D - D = {0, ±3}: j = 0, at order e - j = W - v = 4
        assert verify_spectral_pair(om, lam, 2).status == "Verified" and len(folds) == 2 and len(tests) == 1
    finally:
        _LATTICES.clear()


def test_the_scan_folds_to_its_deepest_level_as_a_full_fold_does(monkeypatch):
    # level n reads orders W - n and W - n - 1 alone, so the scan stops its fold at order W - max(levels) - 1;
    # with islice passing every map, the same scan folds to order 0
    rng = random.Random(32)
    ctx = PrimeContext(2)
    cases = [(lifted_spectrum(CompactOpenSet.make(ctx, 0, 4, (0, 1, 2, 3)), k), range(0, 3)) for k in (6, 9, 12)]
    cases += [(lifted_spectrum(CompactOpenSet.make(PrimeContext(3), 0, 2, (0, 4, 8)), 6), [0, 1, 7])]
    cases += [(UniformDiscreteSet.make(ctx, 0, [7, 12, 16]), [-3]),
              (UniformDiscreteSet.make(ctx, 40, [F(a, 2**40) for a in range(1, 200)]), range(-2, 41))]
    for _ in range(300):  # numerators over p**W of full cosets r + p**k Z/p**(k+1): they vanish at level W - k - 1
        c, k = PrimeContext(rng.choice((2, 3, 5))), rng.randint(0, 12)
        w, nums = rng.randint(-3, 30), []
        for r in [rng.randrange(c.p**12) for _ in range(rng.randint(1, 4))]:
            nums += [r + t * c.p**k for t in range(c.p)] if rng.random() < 0.8 else [r]
        top = w - k - 1 + rng.randint(-2, 2)
        cases.append((UniformDiscreteSet.make(c, w, [n * c.pow(-w) for n in nums]),
                      sorted({top, *rng.sample(range(top - 6, top), rng.randint(0, 3))})))
    truncated = [_outcome(zero_sphere_scan, e, levels) for e, levels in cases]
    monkeypatch.setattr(pairs, "islice", lambda maps, count: maps)
    assert truncated == [_outcome(zero_sphere_scan, e, levels) for e, levels in cases]
    seen = Counter(SphereStatus.IN_ZERO_SET in out.values() if isinstance(out, dict) else out[0] for out in truncated)
    assert seen[True] > 40 and seen["NotASpectrumEvidence"] > 5 and seen["WindowTooSmall"] > 2
