"""Window-exact analysis of discrete sets in Q_p against compact open sets.

The infinite objects (spectra, tiling complements) enter as declared
truncations: a finite element list plus the exponent of the ball the list is
claimed to exhaust.  Every check here is then exact on an explicit window —
zero-sphere scans of the counting measure's Fourier data, density and
uniformity counts, tiling coverage, the spectral quadratic identity, and the
construction of a tiling complement from a spectrum.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import lt, sub
from typing import Iterable

from .copen import (
    CompactOpenSet,
    ScaledCyclotomic,
    _frame_branching_set,
    local_constancy_parameter,
)
from .cyclotomic import CyclotomicSum, _level_counts, _residue_counts, _vanishes, _zero_orders
from .decide import (
    ConstructionFailed,
    DigitSet,
    _spectrum_from_homogeneity,
    _valuations,
    complement_from_homogeneity,
)
from .padic import (_LATTICES, _MAX_EXP_BITS, _MAX_FOLD, _MAX_RESIDUE_BITS, Ball, PrimeContext, ScopeTooLarge,
                    WindowTooSmall, _capped_valuation, _check_exp, _check_fold, _check_q, _clamped_valuation,
                    _digit_lattice, _read_elements, _read_int, _require_ints, _valuation_at_least)

__all__ = [
    "WindowTooSmall",
    "NotASpectrumEvidence",
    "SphereStatus",
    "UniformDiscreteSet",
    "Failure",
    "PairReport",
    "n_f_of",
    "zero_sphere_scan",
    "zero_bound_check",
    "density",
    "uniformity_check",
    "verify_tiling_pair",
    "verify_spectral_pair",
    "spectrum_to_tiling_complement",
    "lifted_spectrum",
    "lifted_tiling_complement",
]

# n_f_of and verify_spectral_pair build all |D|^2 digit differences, up to p^M of them distinct ints of b bits:
# the work |D|^2 + min(|D|^2, p^M)·(8 + b // 128) is bounded at that of 1,024 digits of 2,048 bits.  At or
# just past the bound, 5,120 digits of 12 bits took 1.0 s and 1.5 s, 1,706 of 64 bits 1.6 s and 2.3 s and
# 383 MB, and 1,045 of 2,047 bits 1.3 s and 1.7 s and 378 MB (2-core Xeon, Python 3.11.7), within the slowest
# decision (padic._MAX_Q).
_MAX_DIFF_WORK = 2**20 * (1 + 8 + 2048 // 128)


def _check_differences(omega: CompactOpenSet, what: str) -> None:
    """ScopeTooLarge naming |D| past _MAX_DIFF_WORK, before any difference is built."""
    pairs, q = len(omega.digits) ** 2, omega.context.p**omega.M
    if pairs + min(pairs, q) * (8 + q.bit_length() // 128) > _MAX_DIFF_WORK:
        raise ScopeTooLarge(f"{what} is limited to {_MAX_DIFF_WORK} units of digit-difference work "
                            f"(|D|^2 + min(|D|^2, p^M)·(8 + bits // 128)): |D| = {len(omega.digits)}, "
                            f"p={omega.context.p}, M={omega.M}")


class NotASpectrumEvidence(RuntimeError):
    """A sphere's truncated sums vanished and then stopped vanishing.

    For a genuine spectrum each sphere's sums are eventually zero or never
    zero; a zero followed by a nonzero at a deeper truncation is evidence the
    input is not a spectrum (or the window is lying).  Carries the sphere
    level and the offending truncation exponent.
    """

    def __init__(self, level: int, truncation: int, message: str):
        super().__init__(message)
        self.level = level
        self.truncation = truncation


class SphereStatus(Enum):
    IN_ZERO_SET = "InZeroSet"
    NOT_IN_ZERO_SET = "NotInZeroSet"


def _rat(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, slots=True)
class UniformDiscreteSet:
    """A declared truncation: elements are exactly E ∩ B(0, p**window_exp).

    Stored as integer numerators over one common denominator: element x is
    n / (p**window_exp * unit), with the numerators sorted and distinct and
    unit the lcm of the unit parts of the denominators (1 for every
    truncation the library builds), as make reads ints and Fractions by
    padic._read_elements.  `elements` derives the Fractions.

    block_depth is derived, never passed, and equality ignores it: the largest
    k <= max(window_exp, 0) such that, with unit 1, the numerators are
    B·p**k ⊕ [0, p**k) for a set B of heads, and 0 otherwise.  A lifted
    truncation p**-M·(Λ₀ + L) at window M + k has block depth k or more, and
    the zero-sphere scan, the tiling check and the ball count about 0 read
    its heads alone.
    """

    context: PrimeContext
    window_exp: int
    numerators: tuple[int, ...]
    unit: int = 1
    block_depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # strictly increasing numerators are a block at depth k iff each run of P = p**k starts at a multiple of P
        # and spans P - 1; a block at depth k + 1 is one at depth k, so k grows while the next depth holds
        nums, p, k = self.numerators, self.context.p, 0
        if nums and self.unit == 1 and all(map(lt, nums, nums[1:])):
            while (k < self.window_exp and not len(nums) % (P := p ** (k + 1)) and not any(map(P.__rmod__, nums[::P]))
                   and set(map(sub, nums[P - 1::P], nums[::P])) == {P - 1}):
                k += 1
        object.__setattr__(self, "block_depth", k)

    @classmethod
    def make(cls, context: PrimeContext, window_exp: int, elements: Iterable) -> "UniformDiscreteSet":
        window_exp = _check_exp(context.p, window_exp, "a truncation", "window")
        p = context.p
        e, unit, nums = _read_elements(p, elements, window_exp)
        if not nums:
            raise ValueError("truncation must contain at least one element")
        f = p ** abs(window_exp - e)  # e <= window_exp, or e = 0 and p**-window_exp divides every numerator
        nums = {n * f for n in nums} if window_exp >= e else {n // f for n in nums}
        return cls(context, window_exp, tuple(sorted(nums)), unit)

    @property
    def elements(self) -> tuple[Fraction, ...]:
        w, p = self.window_exp, self.context.p
        up, den = p ** max(-w, 0), p ** max(w, 0) * self.unit
        return tuple(Fraction(n * up, den) for n in self.numerators)

    def residues(self, w: int, m: int) -> list[int]:
        """x * p**w mod p**m for each element x, for ints w >= window_exp and m >= 0: n * p**(w - W) / unit,
        with one modular inverse when unit > 1.  p**(w - W) is bounded as an exponent and p**m
        by _MAX_RESIDUE_BITS (ScopeTooLarge)."""
        p, w = self.context.p, _read_int(w, "a residue scale", "w")
        if w < self.window_exp:
            raise ValueError(f"residues need w >= window_exp: w={w}, window_exp={self.window_exp}")
        f = p ** _check_exp(p, w - self.window_exp, "a residue scale", "w - window_exp")
        q = p ** _check_exp(p, m, "a residue list", "m", _MAX_RESIDUE_BITS, nonneg=True)
        if self.unit > 1:
            f *= pow(self.unit, -1, q)
        return [n * f % q for n in self.numerators]

    def n_E(self) -> int | None:
        """Largest valuation of a pairwise difference; None for a singleton.
        It is m - 1 - W for the least m where the numerators differ mod p**m (unit is prime to p).
        Distinct mod p**m means distinct mod every higher power, and mod p**D for the bit length D
        of the widest difference, so m is bisected for in range(D) (D if none there): O(k log D)."""
        nums = set(self.numerators)  # a directly built set may repeat one
        if len(nums) == 1:
            return None

        def distinct(m: int) -> bool:
            q = self.context.p ** m
            return len({n % q for n in nums}) == len(nums)

        m = bisect_left(range((max(nums) - min(nums)).bit_length()), True, key=distinct)
        return m - 1 - self.window_exp

    def count_in_ball(self, center, radius_exp: int) -> int:
        """Card(E ∩ B(center, p**radius_exp)): x * p**w and center * p**w agree
        mod p**(w - radius_exp), for a scale w making both p-adic integers.  About 0 that
        is w = W and the numerators divisible by p**a, a = W - radius_exp (unit is prime to p).
        A block set of depth k is one of depth h = min(a, k) too, its numerators b·p**h + j with j < p**h:
        p**a divides one iff j = 0 and p**a divides its head b·p**h, so only the heads are read (all of them
        when a <= k, |B|·p**(k - a) in all)."""
        ctx, radius_exp = self.context, _read_int(radius_exp, "a ball count", "radius_exp")
        c = center if type(center) is int else Fraction(center)
        if c == 0:
            a = _check_exp(ctx.p, max(self.window_exp - radius_exp, 0), "a ball count", "m", _MAX_RESIDUE_BITS)
            q = ctx.p**a
            return sum([n % q == 0 for n in self.numerators[:: ctx.p ** min(a, self.block_depth)]])
        # -v_p(c) is read up to |W| + _MAX_EXP_BITS, where residues() refuses the scale w - W
        w = max(self.window_exp, -_clamped_valuation(ctx.p, c, abs(self.window_exp) + _MAX_EXP_BITS))
        m = max(w - radius_exp, 0)
        return self.residues(w, m).count(ctx.residue(c * ctx.pow(w), m))

    def to_json_dict(self) -> dict:
        return {
            "p": self.context.p,
            "window_exp": self.window_exp,
            "elements": [_rat(x) for x in self.elements],
        }


def _lattice_truncation(ctx: PrimeContext, ints: Iterable[int], k: int, window: int) -> UniformDiscreteSet:
    """p**(k - window) * (ints + {j / p**k : 0 <= j < p**k}) for distinct integers and ints k >= 0 and window, from
    its numerators x * p**k + j over p**window (padic._digit_lattice): distinct and in the window, so make's checks
    are skipped."""
    ints = tuple(ints)
    return UniformDiscreteSet(ctx, window, tuple(_digit_lattice(
        ctx.p, range(k), ints, k, f"a truncation of {len(ints)} integers at depth k", "k")))


def _kept_truncation(ctx: PrimeContext, key: tuple, ints, levels: int, k: int, window: int) -> UniformDiscreteSet:
    """_lattice_truncation(ctx, ints, k, window) for the ints in [0, p**levels) of a lattice that key determines,
    the truncation itself kept in padic._LATTICES under key + (k, window), so that its block depth is derived
    once, weighing |ints|·p**k·(levels + k)."""
    def build():
        t = _lattice_truncation(ctx, ints, k, window)
        return t, len(t.numerators) * max(levels + k, 1)
    return _LATTICES.get((*key, k, window), build)


@dataclass(frozen=True, slots=True)
class Failure:
    xi: Fraction
    lhs: object  # Fraction, or ScaledCyclotomic when the exact value is irrational
    rhs: Fraction

    def to_json_dict(self) -> dict:
        if isinstance(self.lhs, ScaledCyclotomic):
            r = self.lhs.value_if_rational()
            if r is not None:
                lhs = _rat(r)
            else:
                lhs = self.lhs.to_json_dict()
                lhs["numeric_hint"] = repr(self.lhs.numeric())
        else:
            lhs = _rat(self.lhs)
        return {"xi": _rat(self.xi), "lhs": lhs, "rhs": _rat(self.rhs)}


@dataclass(frozen=True, slots=True)
class PairReport:
    kind: str
    verified_window: Ball
    checked_points: int
    failure: Failure | None
    derived: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "Verified" if self.failure is None else "FailedAt"

    def to_json_dict(self) -> dict:
        win = self.verified_window
        derived = {key: _rat(val) if isinstance(val, Fraction) else val
                   for key, val in sorted(self.derived.items())}
        return {
            "kind": self.kind,
            "verified_window": {"v": win.v, "M": win.M, "c": win.c},
            "checked_points": self.checked_points,
            "status": self.status,
            "failure": None if self.failure is None else self.failure.to_json_dict(),
            "derived": derived,
        }


def n_f_of(omega: CompactOpenSet) -> int:
    """Least n such that the autocorrelation is positive on all of B(0, p**-n).

    It is positive at ξ iff ξ is in Ω - Ω = p**v * ((D - D) + p**M Z_p), so
    levels n < v fail, n >= v+M pass, and in between n passes iff every
    multiple of p**(n-v) mod p**M is a digit difference.  The scan starts
    at v and walks up.  ScopeTooLarge past _MAX_DIFF_WORK.
    """
    _check_differences(omega, "n_f_of")
    p, v, vm = omega.context.p, omega.v, omega.v + omega.M
    q = p**omega.M
    diffs = {(a - b) % q for a in omega.digits for b in omega.digits}
    n = v
    while n < vm and not diffs.issuperset(range(0, q, p ** (n - v))):
        n += 1
    return n


def zero_sphere_scan(e: UniformDiscreteSet, levels: Iterable[int]) -> dict[int, SphereStatus]:
    """Classify each sphere S(0, p**-n) against the zero set of the measure's transform.

    One representative ξ = p**n per sphere suffices (unit scaling permutes exponents of each truncated
    sum without changing vanishing).  Element x enters as r = x * p**W mod p**depth, in the truncations
    p**k from its shell k = W - v_p(r) on, so one fold of the residues holds every sum: at level n and
    truncation k, its classes mod p**(W-n) divisible by p**(W-k).  Past n + 1 the truncations where a
    sum vanishes form a prefix: shell k >= n + 2 adds exponents of valuation W - k < W - n - 1, which
    no coset of the zero test mixes with another.  So a status is the whole sum's, and NotASpectrumEvidence
    arises iff the whole sum is nonzero but the sum at k1 = max(n + 1, first nonempty) vanishes.  Level n
    reads orders W - n and W - n - 1 alone, so the fold stops at order W - max(levels) - 1 (or 0).
    """
    return _scan(e, sorted(map(int, set(*_require_ints(levels=levels)))))  # a bool level is read as its int


def _scan(e: UniformDiscreteSet, levels) -> dict[int, SphereStatus]:
    """zero_sphere_scan on sorted distinct int levels, a list or a range.

    A block set (block depth k > 0, so k <= W) is scanned through its heads B.  Element (b·p**k + j) / p**W lies
    in the truncation at p**t iff p**(W-t) divides b·p**k + j.  For t < W - k that is j = 0 and p**(W-k-t) | b:
    B's own truncation at p**t, read at window W - k.  For t >= W - k it is every b with the j that p**(W-t)
    divides, so at ξ = p**n the sum is (the whole sum over B at window W - k) times G_t, the sum of ζ**j over
    those j, ζ of order p**(W-n): p**(k-W+t) terms in a row of a root of order p**max(t-n, 0), zero iff
    W - k <= n < t.  So at levels W - k <= n < W every truncation past n vanishes (InZeroSet), at n = W none
    does (NotInZeroSet), and below W - k no G_t vanishes: each truncated sum vanishes iff B's at min(t, W - k)
    does, and B's scan gives the status and any NotASpectrumEvidence at the same level and truncation.  That scan
    starts at the caller's first truncation (p**-W when B holds 0), and every bound it checks is the caller's.
    """
    p, w, k = e.context.p, e.window_exp, e.block_depth
    lowest = min(0, levels[0]) if levels else 0
    depth = _check_exp(p, max(0, w - lowest), f"a zero-sphere scan of window {w} down to level {lowest}", "depth")
    hw, hd, out = w - k, depth - k, dict.fromkeys(levels)  # B's window and depth
    if k:  # the caller's residues mod p**depth are B's mod p**hd times the p**k of each block: its fold bound
        P, Q = p**k, p**hd
        res = [n // P % Q for n in e.numerators[::P]]
        _check_fold(p, len(set(res)) * P, depth, "a level fold")
    else:
        res = e.residues(w, depth)
    first = -w if 0 in e.numerators else hw - bisect_left(  # first: B's window minus its deepest order holding 0
        range(1, hd + 1), True, key=lambda t: all(r % q for q in [p**t] for r in res))

    def walk(j: int, counts: dict[int, int]) -> None:  # the whole sum at level hw - j is nonzero
        n, k1 = hw - j, max(hw - j + 1, first)
        if n in out and k1 < hw:  # the first truncation from k1 on where the sum is nonzero
            t = next(t for t in range(k1, hw + 1) for q in [p ** (hw - t)] if not _vanishes(
                p, j, {r: a for r, a in counts.items() if not r % q}))
            if t > k1:
                raise NotASpectrumEvidence(n, t, f"sphere level {n}: truncated sum vanished then came "
                                                 f"back nonzero at p**{t}")

    low = levels[:bisect_left(levels, hw)] if k else levels  # the levels B's scan decides
    stop = max(0, hw - 1 - low[-1]) if low else hd
    zero = _zero_orders(p, hd, islice(_level_counts(p, hd, res), hd + 1 - stop), walk)
    for n in levels:
        if n > w:
            raise WindowTooSmall(f"sphere level {n} needs the truncation at p**{n}, window is p**{w}")
        if k and n >= hw:
            out[n] = SphereStatus.IN_ZERO_SET if n < w else SphereStatus.NOT_IN_ZERO_SET
        else:
            out[n] = SphereStatus.IN_ZERO_SET if first <= hw and hw - n in zero else SphereStatus.NOT_IN_ZERO_SET
    return out


def zero_bound_check(e: UniformDiscreteSet) -> bool:
    """No zero sphere at radius p**(n_E + 2) or beyond, within the window.

    Vacuously true for a singleton (no pairwise valuations; flagged as such
    in reports rather than here).
    """
    ne = e.n_E()
    if ne is None:
        return True
    levels = range(-e.window_exp, -(ne + 2) + 1)
    statuses = zero_sphere_scan(e, levels)
    return all(s is SphereStatus.NOT_IN_ZERO_SET for s in statuses.values())


def density(e: UniformDiscreteSet, x0, k_range: Iterable[int]) -> list[tuple[int, Fraction]]:
    """Exact count-over-measure ratios Card(E ∩ B(x0, p**k)) / p**k per k.  B(x0, p**k) lies in the window
    B(0, p**W) iff k <= W and v_p(x0) >= -W, with v_p read clamped (padic._valuation_at_least); else
    WindowTooSmall names k and W."""
    ctx, w, c = e.context, e.window_exp, Fraction(x0)
    ks = sorted(map(int, set(*_require_ints(k_range=k_range))))  # a bool k is read as its int
    if ks:
        _check_exp(ctx.p, max(0, w - ks[0]), f"a density scan of window {w} down to k = {ks[0]}", "depth")
    out, inside = [], _valuation_at_least(ctx.p, c, -w)
    for k in ks:
        if k > w or not inside:
            raise WindowTooSmall(f"the ball of radius p**{k} about x0 is not contained in the window B(0, p**{w})")
        out.append((k, e.count_in_ball(c, k) * ctx.pow(-k)))
    return out


def uniformity_check(e: UniformDiscreteSet, n: int, probes: Iterable) -> bool:
    """Card(E ∩ B(probe, p**n)) equals p**n times the stabilized density, per probe; n is an int."""
    n, dens = _read_int(n, "a uniformity check", "n"), len(e.numerators) * e.context.pow(-e.window_exp)
    return all(density(e, probe, [n]) == [(n, dens)] for probe in probes)


def verify_tiling_pair(
    omega: CompactOpenSet, t_set: UniformDiscreteSet, window_exp: int
) -> PairReport:
    """Exact coverage check of sum over translates of 1_Ω on B(0, p**window_exp).

    Every point of the window lies in cells of radius p**-s (s = the finer of
    the frame resolution and the window), and each translate Ω + t is a union
    of such cells, so coverage is a finite digit count.  Translates that
    cannot touch the window (|t| above both the window and the diameter of Ω)
    are irrelevant; the declared window of T must reach everything relevant.

    Each t enters as r = t * p**W mod p**(W + s) (W the window of T): it is
    relevant iff p**a divides r, a = W - need, and then v_p(t) >= -need >= v2
    (as ℓ >= v), so its shift t * p**-v2 mod p**(s - v2) is r * p**(s - v2) // p**(W + s).

    A block set T, numerators B·p**k ⊕ [0, p**k), is a block set at every depth h <= k.  With c = W + v2
    (c <= a) and a <= h, the relevant numerators are b·p**h + p**a·i, i < p**(h - a), shifted to
    b·H + p**(a - c)·i mod p**(s - v2), H = p**(h - c).  Take the largest such h with H dividing q and every
    frame digit d.  Then d + b·H is 0 mod H, so a cell x holds the count of the cell x - (x mod H) from the
    heads alone, when x mod H is a p**(a - c)·i; every target x is, as the window's step is p**(a - c) or
    coarser.  So counting the heads into the targets divisible by H decides the verdict, and the first
    failing target, x - (x mod H) <= x, is among them with its count.  h = 0 (no block) counts every translate.
    """
    ctx, p, window_exp = omega.context, omega.context.p, _read_int(window_exp, "a tiling check", "window_exp")
    need = max(window_exp, -local_constancy_parameter(omega))
    w = t_set.window_exp
    if w < need:
        raise WindowTooSmall(f"tiling translates declared to p**{w}, need p**{need}")
    s_res = max(omega.v + omega.M, -window_exp)
    v2 = min(omega.v, -window_exp)
    m2 = s_res - v2
    _check_q(p, m2, f"a tiling check at window_exp={window_exp}", name="cell depth")
    q = p**m2
    base = omega.digits_in_frame(v2, m2)
    step = p ** max(0, -window_exp - v2)
    a, c = w - need, w + v2
    if (h := t_set.block_depth and min(t_set.block_depth, c + _capped_valuation(p, gcd(q, *base), m2))) < a:
        h = 0
    cell = max(step, p ** (h - c)) if h else step
    counts = [0] * (q // cell)  # counts[i] is the coverage of the window's cell i * cell
    by_offset: dict[int, list[int]] = {}  # d + shift is a target iff d = -shift mod cell
    for d in base:
        by_offset.setdefault(d % cell, []).append(d)
    cut, top = p**a, p ** (w + s_res)
    for r in [n % top for n in t_set.numerators[:: p**h]] if h else t_set.residues(w, w + s_res):
        if r % cut:
            continue
        shift = r * q // top
        for d in by_offset.get(-shift % cell, ()):
            counts[(d + shift) % q // cell] += 1
    failure = None
    if counts.count(1) != len(counts):
        i = next(i for i, k in enumerate(counts) if k != 1)  # the first failing cell
        failure = Failure(i * cell * ctx.pow(v2), Fraction(counts[i]), Fraction(1))
    return PairReport(
        kind="tiling",
        verified_window=Ball(ctx, -window_exp, 0, 0),  # canonical; make would bound v, not every window
        checked_points=q // step,
        failure=failure,
    )


def verify_spectral_pair(
    omega: CompactOpenSet, lam: UniformDiscreteSet, window_exp: int
) -> PairReport:
    """Exact check of the quadratic identity sum over λ of |1̂_Ω|²(ξ-λ) = 𝔪(Ω)².

    The left side is constant on balls of radius p**ℓ (ℓ the diameter
    exponent of Ω), so one representative per such cell of the window
    decides.  With N the digit overlaps of Ω, p**2(v+M) |1̂_Ω|²(η) is the sum
    of N(δ) roots at exponent -η p**v δ, so the identity is one vanishing
    integer exponent map per representative.

    With s = ξ * p**W (W the window of Λ) and r = λ * p**W mod p**e, e = W - v,
    d = s - r mod p**e fixes (ξ - λ) p**v ≡ d / p**e mod Z_p, and
    |ξ - λ| <= p**(v+M) iff s ≡ r mod p**(e-M): each ξ counts the λ of its
    class per distinct d, takes the largest order p**n among the d, adds
    count · N(δ) at exponent -(d / p**(e-n)) δ mod p**n, and one zero test
    against Card(digits)² decides.  ScopeTooLarge past _MAX_DIFF_WORK.

    Most classes skip that expansion.  For ζ of order p**e and ints δ in [0, p**M), the left side at s is
    the sum of N(δ) ζ**(-sδ) K(δ), K(δ) the sum of ζ**(rδ) over s's class.  For δ = u p**j, u prime to p,
    K(δ) = σ_u(K(p**j)) (σ_u: ζ -> ζ**u fixes 0), and K(p**j) sums the r mod p**(e-j) as roots of that
    order.  For j < M the coset test at order e - j pairs r with r + p**(e-j-1), of r's class mod p**(e-M),
    so one _vanishes call on all grouped r holds iff K(p**j) vanishes in every class.  If it holds at each
    valuation j of D - D (all below m, the bits of the widest difference; folded only within _MAX_FOLD and when a
    class holds |D| elements, so it refuses nothing), each δ != 0 adds 0 and a class of |D| elements leaves
    N(0)·|D| = |D|²: it passes.
    """
    ctx, p, window_exp = omega.context, omega.context.p, _read_int(window_exp, "a spectral check", "window_exp")
    vm = omega.v + omega.M
    ell = local_constancy_parameter(omega)
    need = max(window_exp, vm)
    w = lam.window_exp
    if w < need:
        raise WindowTooSmall(f"spectrum declared to p**{w}, need p**{need}")
    what = f"a spectral check at window_exp={window_exp}"
    _check_q(p, max(window_exp - ell, 0), what, name="window_exp - ℓ")
    _check_differences(omega, what)
    e = w - omega.v
    q, cut = p**e, p ** (w - vm)
    step = p ** (w - max(window_exp, ell))  # below ℓ the one representative is 0
    reps = range(p ** max(window_exp - ell, 0))
    # the representatives read the classes mod cut that are multiples of step, and step and cut are powers
    # of p: only the residues divisible by the smaller are grouped
    g, by_class = min(step, cut), {}
    kept = [r for r in lam.residues(w, e) if not r % g]
    for r in kept:
        by_class.setdefault(r % cut, []).append(r)
    digits = omega.digits
    m = min(omega.M, (max(digits) - min(digits)).bit_length())
    whole = len(digits) * m <= _MAX_FOLD and len(digits) in map(len, by_class.values()) and all(
        _vanishes(p, e - j, _residue_counts(p, e - j, kept)) for j in _valuations(p, m, digits))
    target, qm, overlaps = len(digits) ** 2, p**omega.M, None
    failure = None
    passed: set[frozenset] = set()  # the identity reads only diffs: a multiset seen to pass passes again
    for t in reps:
        s = t * step
        if len(members := by_class.get(s % cut, ())) == len(digits) and whole:
            continue
        diffs: dict[int, int] = {}
        for r in members:
            d = (s - r) % q
            diffs[d] = diffs.get(d, 0) + 1
        key = frozenset(diffs.items())
        if key in passed:
            continue
        overlaps = overlaps or Counter([(a - b) % qm for a in digits for b in digits])  # at the first expansion
        n = e - _capped_valuation(p, gcd(*diffs), e)  # 0 <= d < p**e; only zeros give gcd 0 and n = 0
        qn, lift = p**n, p ** (e - n)
        acc = {0: -target}
        for d, k in diffs.items():
            f = -(d // lift)
            for delta, c in overlaps.items():
                j = f * delta % qn
                acc[j] = acc.get(j, 0) + k * c
        if not _vanishes(p, n, acc):
            acc[0] += target
            total = CyclotomicSum(ctx, n, {j: a for j, a in acc.items() if a})
            failure = Failure(xi=s * ctx.pow(-w), lhs=ScaledCyclotomic(-2 * vm, total),
                              rhs=omega.measure() ** 2)
            break
        passed.add(key)
    unit = ctx.pow(-w)  # bounds p^|W|
    return PairReport(
        kind="spectral",
        verified_window=Ball(ctx, -window_exp, 0, 0),  # canonical; make would bound v, not every window
        checked_points=len(reps),
        failure=failure,
        derived={"density": Fraction(len(lam.numerators) * unit.numerator, unit.denominator)},
    )


def spectrum_to_tiling_complement(
    omega: CompactOpenSet, lam: UniformDiscreteSet, verify_window_exp: int = 3
) -> tuple[tuple[int, ...], PairReport]:
    """Build a tiling complement from a spectrum by sphere classification.

    Scans the spheres S(0, p**-n) for 0 <= n < n_f against the zero set of
    the spectrum's transform data; levels split into I (inside) and J
    (disjoint) or the scan raises.  U collects all digit sums over J; the
    candidate complement U + L must tile, and Card(U)·𝔪(Ω) = 1 exactly.
    """
    ctx, verify_window_exp = omega.context, _read_int(verify_window_exp, "a tiling complement", "verify_window_exp")
    if omega.v < 0:
        raise ValueError("the compact open set must sit inside Z_p (v >= 0); rescale first")
    nf = n_f_of(omega)
    statuses = _scan(lam, range(0, nf))
    inside = sorted([n for n, s in statuses.items() if s is SphereStatus.IN_ZERO_SET])
    disjoint = sorted([n for n, s in statuses.items() if s is SphereStatus.NOT_IN_ZERO_SET])
    key, top = ("complement", ctx.p, tuple(disjoint)), disjoint[-1] + 1 if disjoint else 0

    def build():  # U lies in [0, p**top)
        u = tuple(_digit_lattice(ctx.p, disjoint))
        return u, len(u) * max(top, 1)
    u = _LATTICES.get(key, build)
    mu = omega.measure()  # bounds p^(v+M), and v >= 0: |U|·𝔪(Ω) = 1 iff |U|·|D| = p^(v+M)
    if len(u) * len(omega.digits) != ctx.p ** (omega.v + omega.M):
        raise ConstructionFailed(
            f"Card(U)·measure = {len(u)}·{mu} = {len(u) * mu} != 1; "
            f"I={inside}, J={disjoint}, n_f={nf}"
        )
    k = max(verify_window_exp, 0)
    t_set = _kept_truncation(ctx, key, u, top, k, k)
    report = verify_tiling_pair(omega, t_set, verify_window_exp)
    derived = {**report.derived, "n_f": nf, "I": inside, "J": disjoint, "card_U": len(u), "measure": mu,
               "spectrum_count_at_n_f": lam.count_in_ball(0, nf)}
    return u, PairReport(report.kind, report.verified_window, report.checked_points, report.failure, derived)


def _full_frame_digit_set(omega: CompactOpenSet, extra_exp) -> tuple[DigitSet, frozenset[int], int]:
    extra_exp = _read_int(extra_exp, "a lift", "extra_exp", nonneg=True)
    if omega.v < 0:
        raise ValueError("lift requires a subset of Z_p (v >= 0)")
    ctx = omega.context
    mf = omega.v + omega.M
    digits_f = omega.digits if omega.v == 0 else omega.digits_in_frame(0, mf)  # a v = 0 frame is the full one
    levels = _frame_branching_set(ctx.p, mf, digits_f)
    if levels is None:
        raise ConstructionFailed("set is not p-homogeneous; no closed-form witness to lift")
    return DigitSet(ctx, mf, digits_f), levels, extra_exp  # digits_in_frame: sorted distinct ints in [0, p**mf)


def lifted_spectrum(omega: CompactOpenSet, extra_exp: int = 3) -> UniformDiscreteSet:
    """Q_p spectrum truncation for a homogeneous Ω ⊆ Z_p.

    The finite witness Λ₀ on the full frame M_f = v+M scales into the dual
    window: Λ = p**-M_f · (Λ₀ + L), truncated at window M_f + extra_exp.  The
    element list is exactly the infinite spectrum's intersection with that
    window.  extra_exp is an int >= 0 (ValueError).
    """
    ds, levels, extra_exp = _full_frame_digit_set(omega, extra_exp)
    w0 = _spectrum_from_homogeneity(ds, levels)
    key = ("lifted spectrum", ds.context.p, ds.M, tuple(sorted(levels)))
    return _kept_truncation(omega.context, key, w0.elements, ds.M, extra_exp, ds.M + extra_exp)


def lifted_tiling_complement(omega: CompactOpenSet, extra_exp: int = 3) -> UniformDiscreteSet:
    """Q_p tiling-complement truncation for a homogeneous Ω ⊆ Z_p: U₀ + L, extra_exp an int >= 0 (ValueError)."""
    ds, levels, extra_exp = _full_frame_digit_set(omega, extra_exp)
    w0 = complement_from_homogeneity(ds, levels)
    return _lattice_truncation(omega.context, w0.elements, extra_exp, extra_exp)
