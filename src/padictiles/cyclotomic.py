"""Exact integer combinations of p-power roots of unity, with a decidable zero test.

A sum is stored against a declared order p**n; the zero test never consults
floating point.  For prime-power order the integer relations among the roots
are spanned by the "full coset" sums (each coset of the index-p subgroup adds
to zero), so vanishing is equivalent to the coefficient function being
constant on every such coset.  vanishes() checks its input and calls _vanishes,
which the library's callers reach directly.  That kernel tests the successor
form, each count equal to the count at (j + p**(n-1)) mod p**n: around each cycle
of p members, equal successors force one value, and an absent member counts 0.

A level fold reads it from sums of squares instead.  For the p lifts a_0..a_{p-1}
of one class mod p**(n-1), Lagrange's identity p * sum a_t**2 - (sum a_t)**2 =
sum_{s<t} (a_s - a_t)**2 holds (expand the right side: each a_t**2 occurs p - 1
times, each 2 a_s a_t once with a minus).  Summed over the classes, p * (sum of
the squared counts mod p**n) - (sum of the squared counts mod p**(n-1)) is a sum
of squares, zero iff every class has equal lifts: one integer comparison per order.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import attrgetter, mul
from typing import Iterable, Iterator, Mapping

from .padic import _MAX_TREE_BITS, PrimeContext, RootOfUnity, _check_exp, _check_fold, _read_int, _require_ints

__all__ = [
    "CyclotomicSum",
    "residue_counts",
    "vanishes",
]


def vanishes(p: int, n: int, counts: Mapping[int, int]) -> bool:
    """Exact zero test of sum_j counts[j] * w**j, w = exp(2*pi*i / p**n), valid at a declared order that need not
    be minimal.  n is an int >= 0 with p**n within _MAX_TREE_BITS; the exponents and counts are ints (ValueError
    naming the first that is not).  Each exponent is read mod p**n, as in residue_counts and CyclotomicSum.make:
    when one lies outside [0, p**n), the counts of each class are merged before _vanishes reads them."""
    q = p ** (n := _check_exp(p, n, "a zero test", "n", _MAX_TREE_BITS, nonneg=True))
    js, _ = _require_ints(exponents=counts, counts=counts.values())
    if js and not (0 <= min(js) and max(js) < q):
        merged: dict[int, int] = {}
        for j, a in counts.items():
            merged[j % q] = merged.get(j % q, 0) + a
        counts = merged
    return _vanishes(p, n, counts)


def _vanishes(p: int, n: int, counts: Mapping[int, int]) -> bool:
    """vanishes on int counts at exponents in [0, p**n), p**n bounded by the caller: the coset criterion in
    successor form (module docstring), every count equal to the count at (j + p**(n-1)) mod p**n."""
    if n == 0:
        return not any(counts.values())
    q, pq = p ** (n - 1), p**n
    for j, a in counts.items():
        if a != counts.get((j + q) % pq, 0):
            return False
    return True


def residue_counts(p: int, m: int, residues: Iterable[int]) -> dict[int, int]:
    """Exponent -> count map of the residues reduced mod p**m, in first-seen order; m is an int >= 0
    (ValueError) with p**m bounded at _MAX_TREE_BITS (ScopeTooLarge)."""
    return _residue_counts(p, _check_exp(p, m, "a residue count", "m", _MAX_TREE_BITS, nonneg=True), residues)


def _residue_counts(p: int, m: int, residues: Iterable[int]) -> dict[int, int]:
    """residue_counts for an int m >= 0 whose p**m the caller has bounded."""
    q = p**m
    counts: dict[int, int] = {}
    for r in residues:
        r %= q
        counts[r] = counts.get(r, 0) + 1
    return counts


def _level_counts(p: int, M: int, C) -> Iterator[dict[int, int]]:
    """For j = 0..M, the exponent -> count map of C mod p^(M-j), each folded from the last; ScopeTooLarge
    past padic._MAX_FOLD, checked on the first.  Every caller has bounded p**M."""
    counts = _residue_counts(p, M, C)
    _check_fold(p, len(counts), M, "a level fold")
    yield counts
    for w in [p**n for n in range(M - 1, -1, -1)]:
        folded: dict[int, int] = {}
        for r, k in counts.items():
            r %= w
            folded[r] = folded.get(r, 0) + k
        counts = folded
        yield counts


def _zero_orders(p: int, m: int, maps: Iterable[dict[int, int]], visit=None) -> frozenset[int]:
    """The orders n in [0, m] at which the sum of exp(2*pi*i * r / p**n) over some residues vanishes, read
    from the maps of their counts mod p**m down to p**0 (_level_counts, a generator so that no earlier
    counts are kept, or a list that its caller keeps): n >= 1 iff p * S_n = S_(n-1), S_n the sum of the
    squared counts mod p**n (Lagrange's identity, module docstring), and 0 iff there are no residues.  A prefix
    of the maps, down to p**s, decides the orders n > s alone, and 0 only when all m + 1 are read.  visit(n,
    counts), if given, sees the counts mod p**n of each order n > s whose sum does not vanish, once the
    fold has made the counts mod p**(n-1)."""
    squares = []  # squares[j] is S_(m - j)
    for j, counts in enumerate(maps):
        squares.append(sum(map(mul, counts.values(), counts.values())))
        if visit and j and p * squares[j - 1] != squares[j]:
            visit(m - j + 1, last)
        last = counts
    zero = {m - j for j in range(len(squares) - 1) if p * squares[j] == squares[j + 1]}
    if len(squares) > m and not squares[m]:
        zero.add(0)
    return frozenset(zero)


_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def _float_sum(q: int, counts: Mapping[int, int], u: int = 1) -> complex:
    """sum_j counts[j] * exp(2*pi*i * u*j / q) in floats, for numeric() and decide's numeric guard: each angle
    is 2*pi times the int quotient (u*j mod q)/q, rounded right at any q, and fsum rounds each part once.  Past
    an OverflowError or ValueError a count beyond the float range reads ±inf, and +inf meeting -inf nan."""
    try:
        terms = [cmath.rect(a, math.tau * (u * j % q / q)) for j, a in counts.items()]
        return complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
    except (OverflowError, ValueError):
        terms = [cmath.rect(a if abs(a) <= sys.float_info.max else math.inf if a > 0 else -math.inf,
                            math.tau * (u * j % q / q)) for j, a in counts.items()]
        return complex(sum(map(_REAL, terms)), sum(map(_IMAG, terms)))


class CyclotomicSum:
    """sum_j a_j * w**j with w = exp(2*pi*i / p**n) and integer a_j.

    Exponents live in Z/p**n; construction merges duplicates and drops zero
    coefficients but keeps the declared order.
    Because the zero value has many reduced representations, __eq__ is
    semantic: a - b is tested for zero.
    """

    __slots__ = ("context", "n", "coeffs")

    def __init__(self, context: PrimeContext, n: int, coeffs: dict[int, int]):
        # trusted constructor; use make() for unreduced input
        self.context = context
        self.n = n
        self.coeffs = coeffs

    @classmethod
    def make(
        cls,
        context: PrimeContext,
        n: int,
        coeffs: Mapping[int, int] | Iterable[tuple[int, int]],
    ) -> "CyclotomicSum":
        # a spectral failure's n <= W - v fits
        n = _check_exp(context.p, n, "a cyclotomic sum", "n", _MAX_TREE_BITS, nonneg=True)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        q = context.p**n
        acc: dict[int, int] = {}
        for j, a in items:
            if not isinstance(a, int):  # the int rule of padic._require_ints
                raise ValueError(f"coefficient {a!r} of exponent {j!r} is not an int")
            j = _read_int(j, "a cyclotomic sum", "exponent") % q
            acc[j] = acc.get(j, 0) + a
        return cls(context, n, {j: a for j, a in acc.items() if a != 0})

    @classmethod
    def constant(cls, context: PrimeContext, a: int) -> "CyclotomicSum":
        return cls(context, 0, {0: a} if a else {})

    @classmethod
    def from_roots(cls, context: PrimeContext, roots: Iterable[RootOfUnity]) -> "CyclotomicSum":
        """Sum of unit roots (each with coefficient 1), at the least common order."""
        roots = list(roots)
        n = max((r.n for r in roots), default=0)
        p = context.p
        acc: dict[int, int] = {}
        for r in roots:
            if r.context != context:
                raise ValueError("root context differs")
            j = r.k * p ** (n - r.n)
            acc[j] = acc.get(j, 0) + 1
        return cls(context, n, {j: a for j, a in acc.items() if a != 0})

    def is_zero(self) -> bool:
        """Exact zero test: the coset criterion of vanishes() at the declared order."""
        return vanishes(self.context.p, self.n, self.coeffs)

    def _lift(self, n: int) -> dict[int, int]:
        f = self.context.p ** (n - self.n)
        return {j * f: a for j, a in self.coeffs.items()}

    def __add__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        self._check(other)
        n = max(self.n, other.n)
        acc = self._lift(n)
        for j, a in other._lift(n).items():
            acc[j] = acc.get(j, 0) + a
        return CyclotomicSum(self.context, n, {j: a for j, a in acc.items() if a})

    def __neg__(self) -> "CyclotomicSum":
        return CyclotomicSum(self.context, self.n, {j: -a for j, a in self.coeffs.items()})

    def __sub__(self, other: "CyclotomicSum") -> "CyclotomicSum":
        return self + (-other)

    def __mul__(self, other: "CyclotomicSum | int") -> "CyclotomicSum":
        if isinstance(other, int):
            if other == 0:
                return CyclotomicSum(self.context, self.n, {})
            return CyclotomicSum(self.context, self.n, {j: a * other for j, a in self.coeffs.items()})
        self._check(other)
        n = max(self.n, other.n)
        q = self.context.p**n
        left, right = self._lift(n), other._lift(n)
        acc: dict[int, int] = {}
        for j1, a1 in left.items():
            for j2, a2 in right.items():
                j = (j1 + j2) % q
                acc[j] = acc.get(j, 0) + a1 * a2
        return CyclotomicSum(self.context, n, {j: a for j, a in acc.items() if a})

    __rmul__ = __mul__

    def scale_exponents(self, u: int) -> "CyclotomicSum":
        """Apply the Galois action w -> w**u; u must be a unit mod p (u = -1 conjugates)."""
        if math.gcd(u, self.context.p) != 1:
            raise ValueError("exponent scale must be a unit mod p")
        if self.n == 0:
            return self
        q = self.context.p**self.n
        return CyclotomicSum(self.context, self.n, {(u * j) % q: a for j, a in self.coeffs.items()})

    def conjugate(self) -> "CyclotomicSum":
        return self.scale_exponents(-1)

    def value_if_integer(self) -> int | None:
        """The sum's value when it is rational (hence a rational integer), else None."""
        p, n, a = self.context.p, self.n, self.coeffs
        if n == 0:
            return a.get(0, 0)
        # if the value is an integer r, the sum minus r vanishes, which pins r down on the coset
        # of 0 at the declared order, minimal or not: r = a_0 - a_q with q = p**(n-1)
        q = p ** (n - 1)
        r = a.get(0, 0) - a.get(q, 0)
        return r if vanishes(p, n, {**a, 0: a.get(q, 0)}) else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicSum):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # semantic equality; not hashable

    def __repr__(self) -> str:
        return f"CyclotomicSum(p={self.context.p}, n={self.n}, coeffs={dict(sorted(self.coeffs.items()))})"

    def numeric(self) -> complex:
        """Float approximation (_float_sum); cross-check and report aid, never a decision input."""
        return _float_sum(self.context.p**self.n, self.coeffs)

    def to_json_dict(self) -> dict:
        return {
            "p": self.context.p,
            "n": self.n,
            "coeffs": {str(j): a for j, a in sorted(self.coeffs.items())},
        }

    def _check(self, other: "CyclotomicSum") -> None:
        if self.context != other.context:
            raise ValueError("CyclotomicSum contexts differ")

