"""Compact open subsets of Q_p as canonical frames, with exact Fourier data.

A compact open set is a finite union of balls; here it is always reduced to
the canonical form p**v * (digits + p**M Z_p): a scale exponent v, a depth M,
and a set of digits in [0, p**M).  Canonical means M is minimal and the digit
set is not uniformly divisible by p, so equal sets have equal frames.

Fourier values of indicators are p-power multiples of cyclotomic integer
sums (ScaledCyclotomic); autocorrelations are exact rationals obtained by
counting digit overlaps.  No floating point anywhere on the decision paths.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cyclotomic import CyclotomicSum, residue_counts
from .padic import (Ball, EmptySet, PrimeContext, ScopeTooLarge, _MAX_Q, _MAX_TREE_BITS, _capped_valuation, _check_exp,
                    _check_fold, _digit_lattice, _frame_digits, _read_int, _reduce_frame, _require_ints,
                    _valuation_at_least)

__all__ = [
    "EmptySet",
    "CompactOpenSet",
    "ScaledCyclotomic",
    "normalize_set",
    "indicator_fourier",
    "autocorrelation",
    "local_constancy_parameter",
    "frame_branching_set",
    "is_p_homogeneous",
]


@dataclass(frozen=True, slots=True)
class CompactOpenSet:
    """p**v * (c + p**M Z_p) over the digit set, in canonical frame form."""

    context: PrimeContext
    v: int
    M: int
    digits: tuple[int, ...]

    @classmethod
    def make(cls, context: PrimeContext, v: int, M: int, digits: Iterable[int]) -> "CompactOpenSet":
        """Read and bound v and v + M (ScopeTooLarge), read M and the digits (padic._frame_digits), and reduce."""
        p = context.p
        v = _check_exp(p, v, "a compact open set", "v")
        M, ds = _frame_digits(p, M, digits)
        _check_exp(p, v + M, "a compact open set", "v + M")
        return cls(context, *_reduce_frame(p, v, M, ds))

    def measure(self) -> Fraction:
        """|D|·p^-(v+M), with p^|v+M| bounded by PrimeContext.pow (ScopeTooLarge)."""
        unit = self.context.pow(-(self.v + self.M))
        return Fraction(len(self.digits) * unit.numerator, unit.denominator)

    def digits_in_frame(self, v2: int, M2: int) -> tuple[int, ...]:
        """The same set in the finer frame (v2, M2); ScopeTooLarge, before any digit is built, past p^|v2|
        or past _MAX_Q digits in all when it adds levels (|D|·p^levels, padic._digit_lattice)."""
        p = self.context.p
        v2, M2 = _check_exp(p, v2, "a refined frame", "v2"), _read_int(M2, "a refined frame", "M2")
        if v2 > self.v or v2 + M2 < self.v + self.M:
            raise ValueError("target frame does not refine the canonical frame")
        shift = self.v - v2
        return tuple(_digit_lattice(p, range(shift + self.M, M2), self.digits, shift, "a refined frame"))

    def to_json_dict(self) -> dict:
        return {
            "p": self.context.p,
            "v": self.v,
            "M": self.M,
            "digits": list(self.digits),
        }

    @classmethod
    def from_json_dict(cls, d: dict, warn=None) -> "CompactOpenSet":
        """Parse and canonicalize; warn(message) is called if the input was not canonical.

        A document of the wrong shape raises ValueError naming the bad field.
        """
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object {{p, v, M, digits}}, got {type(d).__name__}")
        p, v, M = (_int_field(d.get(key), key) for key in ("p", "v", "M"))
        if not isinstance(d.get("digits"), list):
            raise ValueError(f"field digits: expected a list of integers, got {d.get('digits')!r}")
        digits = [_int_field(x, f"digits[{i}]") for i, x in enumerate(d["digits"])]
        out = cls.make(PrimeContext(p), v, M, digits)
        if warn is not None and (v, M, tuple(sorted(digits))) != (out.v, out.M, out.digits):
            warn(f"input frame (v={v}, M={M}) was not canonical; "
                 f"reduced to (v={out.v}, M={out.M})")
        return out


def _int_field(value, field: str) -> int:
    """A JSON integer field; ValueError naming the field for anything else (floats too)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {field}: expected an integer, got {value!r}")
    return value


def normalize_set(context: PrimeContext, balls: Iterable[Ball]) -> CompactOpenSet:
    """Union of balls -> canonical compact open set; ScopeTooLarge when one ball, or all, would expand to more
    than _MAX_Q digits of the common frame, before the digits that pass it are built.  Balls expand from
    the largest down, so padic._digit_lattice bounds the first alone and the count in all bounds the rest;
    two are nested or disjoint, so a ball whose smallest digit is built is skipped."""
    balls = list(balls)
    if not balls:
        raise EmptySet("empty union of balls")
    for b in balls:
        if b.context != context:
            raise ValueError("ball context differs")
    p, v = context.p, min(b.v for b in balls)
    M = max(b.v + b.M for b in balls) - v
    ds: set[int] = set()
    for b in sorted(balls, key=lambda b: b.v + b.M):  # a ball is the one-digit frame (b.v, b.M, {b.c})
        if b.c * p ** (b.v - v) in ds:
            continue
        if ds and len(ds) + (n := p ** (v + M - b.v - b.M)) > _MAX_Q:
            raise ScopeTooLarge(f"normalizing a union of balls is limited to {_MAX_Q} digits in all: "
                                f"p={p}, {len(ds)} digits and then a ball of {n}")
        ds.update(_digit_lattice(p, range(b.v - v + b.M, M), (b.c,), b.v - v, "normalizing a union of balls",
                                 "levels below a ball"))
    return CompactOpenSet.make(context, v, M, ds)


@dataclass(frozen=True, slots=True)
class ScaledCyclotomic:
    """p**power times a cyclotomic integer sum: the exact value of 1̂ at a point."""

    power: int
    sum: CyclotomicSum

    @property
    def context(self) -> PrimeContext:
        return self.sum.context

    def value_if_rational(self) -> Fraction | None:
        r = self.sum.value_if_integer()
        if r is None:
            return None
        return r * self.context.pow(self.power)

    def numeric(self) -> complex:
        """Float value; report/cross-check aid only.  A scale p**power past the largest float reads inf:
        a nonzero part is then ±inf and a zero part stays zero (inf * 0.0 would be nan)."""
        z, scale = self.sum.numeric(), self.context.pow(self.power)
        scale = float(scale) if scale <= sys.float_info.max else math.inf
        return complex(*(x * scale if x else x for x in (z.real, z.imag)))

    def to_json_dict(self) -> dict:
        return {"power": self.power, "sum": self.sum.to_json_dict()}


def indicator_fourier(
    omega: CompactOpenSet, xi: Fraction | int
) -> ScaledCyclotomic:
    """1̂_Ω(ξ) = p**-(v+M) * sum over digits c of χ(-ξ p**v c); zero beyond p**(v+M).

    The support cutoff |ξ|_p <= p**(v+M) is exact: past it the value is the
    empty sum, and v_p(ξ) is read clamped (padic._valuation_at_least).  With
    {ξ p**v} = r / p**s, each digit's root sits at exponent -r*c mod p**s; the
    sum is declared at the least common order of its roots.
    """
    ctx = omega.context
    p = ctx.p
    x = Fraction(xi)
    e = -(omega.v + omega.M)
    if not _valuation_at_least(p, x, e):
        return ScaledCyclotomic(e, CyclotomicSum(ctx, 0, {}))
    n, r = ctx.frac_exponent(x * ctx.pow(omega.v))
    exps = [-r * c for c in omega.digits]
    s = _capped_valuation(p, math.gcd(*exps), n)  # the order p**n drops by p**s where p**s divides every exponent
    return ScaledCyclotomic(e, CyclotomicSum(ctx, n - s, residue_counts(p, n - s, [j // p**s for j in exps])))


def autocorrelation(omega: CompactOpenSet, xi: Fraction | int) -> Fraction:
    """Measure of Ω ∩ (Ω + ξ), exactly: for s = ξ * p**-v in Z_p it is the number of
    digits a with a - s mod p**M a digit, times p**-(v+M); otherwise 0 (Ω lies in
    p**v Z_p, and Ω + ξ then does not)."""
    ctx = omega.context
    s = Fraction(xi) * ctx.pow(-omega.v)
    if s.denominator % ctx.p == 0:
        return Fraction(0)
    q, r, ds = ctx.p**omega.M, ctx.residue(s, omega.M), set(omega.digits)
    hit = sum((a - r) % q in ds for a in omega.digits)
    return hit * ctx.pow(-(omega.v + omega.M))


def local_constancy_parameter(omega: CompactOpenSet) -> int:
    """The exponent ℓ with sup over Ω of |x|_p = p**-ℓ.

    1̂_Ω is then constant on every ball of radius p**ℓ, which is what window
    verifications use to pick representatives.
    """
    p, v, M = omega.context.p, omega.v, omega.M
    # the least min(v_p(c), M) over the digits is min(v_p(gcd), M); v_p(c) < M, or c = 0
    return v + _capped_valuation(p, math.gcd(*omega.digits), M) if omega.digits else None


def frame_branching_set(p: int, M: int, digits: Iterable[int]) -> frozenset[int] | None:
    """Levels where the digit tree branches fully, or None if any level is mixed; M is an int >= 0 and the digits
    ints (ValueError), and p**M is bounded at _MAX_TREE_BITS (ScopeTooLarge).  The library's callers already hold
    int digits and an M within that bound, as a canonical frame's is, and call _frame_branching_set."""
    M = _check_exp(p, M, "a digit-tree test", "M", _MAX_TREE_BITS, nonneg=True)
    [digits] = _require_ints(digits=digits)
    return _frame_branching_set(p, M, digits)


def _frame_branching_set(p: int, M: int, digits) -> frozenset[int] | None:
    """frame_branching_set of int digits and an int M >= 0 with p**M within _MAX_TREE_BITS.

    Level i is branching when every residue mod p**i present extends to
    exactly p residues mod p**(i+1); unary when every one extends to exactly
    one.  Anything else disqualifies the set.  Each residue has 1 to p
    children, so comparing the counts of residues mod p**i and p**(i+1) decides.
    They are folded from the leaves (residues mod p**M) up; a homogeneous tree has
    p**|I| leaves, so a leaf count not dividing p**M is mixed, and None at once.  ScopeTooLarge
    for a fold past padic._MAX_FOLD.
    """
    q = p**M
    nodes = {d % q for d in digits}
    if not nodes or q % len(nodes):
        return None
    _check_fold(p, len(nodes), M, "a digit-tree test")
    levels = set()
    for i in range(M - 1, -1, -1):
        w = p**i
        below = {r % w for r in nodes} if i else {0}
        if len(nodes) == p * len(below):
            levels.add(i)
        elif len(nodes) != len(below):
            return None
        nodes = below
    return frozenset(levels)


def is_p_homogeneous(omega: CompactOpenSet) -> tuple[bool, frozenset[int] | None]:
    """Whether the canonical digit tree branches fully-or-not-at-all per level.

    Returns (flag, branching levels); the levels refer to the canonical frame
    (a set equal to all of Z_p reduces to depth 0 with no levels at all).
    """
    levels = _frame_branching_set(omega.context.p, omega.M, omega.digits)
    return (levels is not None, levels)
