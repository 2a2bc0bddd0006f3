"""Integer-exponent characters against references built from their definitions.

The zero-sphere scan and the indicator transform run on precomputed integer
residues.  These tests rebuild both the slow way, one character and one
`CyclotomicSum.from_roots` per truncated sum, and check that the answers
(statuses, raised evidence, exponent orders and coefficients) are the same.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import v_p
import padictiles.copen
import padictiles.cyclotomic
import padictiles.padic
import padictiles.pairs
from padictiles.copen import CompactOpenSet, frame_branching_set, indicator_fourier
from padictiles.cyclotomic import CyclotomicSum
from padictiles.padic import PrimeContext, RootOfUnity, character
from padictiles.pairs import (
    NotASpectrumEvidence,
    SphereStatus,
    UniformDiscreteSet,
    WindowTooSmall,
    lifted_spectrum,
    n_f_of,
    spectrum_to_tiling_complement,
    verify_spectral_pair,
    zero_sphere_scan,
)


def _val(p: int, x: F) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _frac_digits(p: int, y: F) -> F:
    """{y} by p-adic digit expansion: peel off one negative-power digit at a time."""
    out = F(0)
    while y != 0 and _val(p, y) < 0:
        v = _val(p, y)
        u = y * F(p) ** -v
        a = u.numerator * pow(u.denominator, -1, p) % p
        out += a * F(p) ** v
        y -= a * F(p) ** v
    return out


def _reference_scan(e: UniformDiscreteSet, levels) -> dict[int, SphereStatus]:
    """The scan rebuilt per truncation from characters and from_roots."""
    ctx = e.context
    out = {}
    for n in sorted(set(levels)):
        if n > e.window_exp:
            raise WindowTooSmall(f"level {n}")
        if 0 in e.elements:
            first = -e.window_exp
        else:
            first = -max(v_p(ctx.p, x) for x in e.elements if x != 0)
        xi = ctx.pow(n)
        seen = last = False
        for k in range(max(n, first), e.window_exp + 1):
            roots = [character(ctx, xi, x) for x in e.elements if v_p(ctx.p, x) >= -k]
            last = CyclotomicSum.from_roots(ctx, roots).is_zero()
            if last:
                seen = True
            elif seen:
                raise NotASpectrumEvidence(n, k, f"level {n} at {k}")
        out[n] = SphereStatus.IN_ZERO_SET if last else SphereStatus.NOT_IN_ZERO_SET
    return out


def _outcome(scan, e, levels):
    try:
        return ("statuses", scan(e, levels))
    except NotASpectrumEvidence as exc:
        return ("evidence", exc.level, exc.truncation)
    except WindowTooSmall:
        return ("window",)


def _homogeneous_sets(p: int, M: int):
    ctx = PrimeContext(p)
    q = p**M
    for mask in range(1, 1 << q):
        C = [x for x in range(q) if mask >> x & 1]
        if frame_branching_set(p, M, C) is not None:
            yield CompactOpenSet.make(ctx, 0, M, C)


@pytest.mark.parametrize("p, M", [(2, 3), (3, 2)])
def test_scan_matches_reference_on_lifted_spectra(p, M):
    ctx = PrimeContext(p)
    sets = list(_homogeneous_sets(p, M))
    assert sets
    evidence = 0
    for omega in sets:
        lam = lifted_spectrum(omega, 3)
        w = lam.window_exp
        levels = range(-w, n_f_of(omega) + 1)
        got = _outcome(zero_sphere_scan, lam, levels)
        assert got[0] == "statuses"
        assert got == _outcome(_reference_scan, lam, levels)
        # perturbed truncations: drop an outermost element, add a stray one
        outer = max(lam.elements, key=lambda x: -v_p(ctx.p, x) if x else -w)
        for elems in (
            [x for x in lam.elements if x != outer],
            list(lam.elements) + [F(1, p**w) + outer],
            list(lam.elements)[1:],
        ):
            if len(set(elems)) != len(elems) or not elems:
                continue
            e = UniformDiscreteSet.make(ctx, w, elems)
            got = _outcome(zero_sphere_scan, e, levels)
            assert got == _outcome(_reference_scan, e, levels)
            evidence += got[0] == "evidence"
    assert evidence > 0  # the perturbations do reach NotASpectrumEvidence


def test_scan_errors_match_reference():
    e = UniformDiscreteSet.make(PrimeContext(2), 1, [0, F(1, 2), 3])
    for levels in (range(-2, 3), range(0, 3), [1, 2], [2]):
        assert _outcome(zero_sphere_scan, e, levels) == _outcome(_reference_scan, e, levels)
    assert _outcome(zero_sphere_scan, e, range(-2, 3))[0] == "evidence"
    assert _outcome(zero_sphere_scan, e, [2]) == ("window",)
    # levels -3 and 1 would each raise, at truncations 2 and 3: the lowest raises, at its own
    two = UniformDiscreteSet.make(PrimeContext(2), 3, [F(1, 4), 1, F(15, 8), F(13, 4), 5])
    # the first nonempty truncation, p**0, lies above level -2 + 1; the sum at p**0 vanishes
    high = UniformDiscreteSet.make(PrimeContext(2), 2, [F(3, 2), F(11, 4), 3, 5])
    # a window below 0 holding 0: the scan starts at p**-W, past the window, so no sphere
    # is in the zero set, though the whole sum at level -2 vanishes
    below = UniformDiscreteSet.make(PrimeContext(2), -1, [0, 2])
    for e, levels, want in ((two, [1], ("evidence", 1, 3)), (two, [-3, 1], ("evidence", -3, 2)),
                            (two, range(-5, 4), ("evidence", -3, 2)), (high, [-2], ("evidence", -2, 1)),
                            (high, range(-4, 3), ("evidence", -2, 1)), (high, [-1, 0, 2], None),
                            (below, range(-4, 0), None)):
        got = _outcome(zero_sphere_scan, e, levels)
        assert got == _outcome(_reference_scan, e, levels)
        assert want is None or got == want


_primes = st.sampled_from([2, 3, 5, 7])


@st.composite
def _rationals(draw, p):
    num = draw(st.integers(-10**6, 10**6))
    den = p ** draw(st.integers(0, 5)) * draw(st.integers(1, 40))
    return F(num, den)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_frac_part_and_character_match_definition(data):
    p = data.draw(_primes)
    ctx = PrimeContext(p)
    y = data.draw(_rationals(p))
    f = ctx.frac_part(y)
    n = max(0, -_val(p, y)) if y else 0
    # the definition: the rational in [0, 1) over a power of p with y - {y} in Z_p
    assert 0 <= f < 1 and p**n % f.denominator == 0
    assert y == f or _val(p, y - f) >= 0
    assert f == _frac_digits(p, y)
    assert ctx.frac_exponent(y) == (n, f.numerator * p**n // f.denominator)
    xi = data.draw(_rationals(p))
    r = character(ctx, xi, y)
    assert 0 <= r.k < p**r.n and (r.k % p != 0 if r.n else r.k == 0)  # canonical
    assert F(r.k, p**r.n) == _frac_digits(p, xi * y)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_indicator_fourier_matches_definition(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    ctx = PrimeContext(p)
    M = data.draw(st.integers(0, 3))
    digits = data.draw(st.sets(st.integers(0, p**M - 1), min_size=1, max_size=12))
    v = data.draw(st.integers(-2, 2))
    if data.draw(st.booleans()):
        omega = CompactOpenSet.make(ctx, v, M, digits)
    else:  # a raw frame, where every digit may share a factor of p
        t = p ** data.draw(st.integers(0, M))
        omega = CompactOpenSet(ctx, v, M, tuple(sorted({d * t % p**M for d in digits})))
    xi = data.draw(_rationals(p))
    got = indicator_fourier(omega, xi)
    e = -(omega.v + omega.M)
    if xi != 0 and _val(p, xi) < e:
        want = CyclotomicSum.make(ctx, 0, {})
    else:
        roots = []
        for c in omega.digits:
            f = _frac_digits(p, -xi * F(p) ** omega.v * c)
            m = _val(p, F(f.denominator))
            roots.append(RootOfUnity(ctx, m, f.numerator))  # canonical: f is in lowest terms
        want = CyclotomicSum.from_roots(ctx, roots)
    assert got.power == e
    assert (got.sum.n, list(got.sum.coeffs.items())) == (want.n, list(want.coeffs.items()))


def test_scan_and_transform_do_not_use_character(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("character() called on an integer-exponent path")

    for module in (padictiles.padic, padictiles.pairs, padictiles.copen, padictiles.cyclotomic):
        monkeypatch.setattr(module, "character", forbidden, raising=False)
    omega = CompactOpenSet.make(PrimeContext(2), 0, 3, (0, 1, 4, 5))
    lam = lifted_spectrum(omega, 3)
    statuses = zero_sphere_scan(lam, range(-lam.window_exp, 3))
    zero = [n for n, s in statuses.items() if s is SphereStatus.IN_ZERO_SET]
    assert zero == [0, 2]
    assert indicator_fourier(omega, F(3, 4)).to_json_dict() == {
        "power": -2, "sum": {"p": 2, "n": 2, "coeffs": {"0": 1, "1": 1}},
    }
    _, report = spectrum_to_tiling_complement(omega, lam, 3)
    assert report.status == "Verified"
    assert verify_spectral_pair(omega, lam, 2).status == "Verified"
