"""Exact p-adic quantities of rationals: valuations, fractional parts, characters, balls.

Every point is a plain Fraction, read through one PrimeContext.  Floating
point never enters: a valuation is an integer, a unit root an exact exponent
pair, a ball an integer triple.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "PrimeContext",
    "RootOfUnity",
    "Ball",
    "character",
    "ScopeTooLarge",
]

class ScopeTooLarge(ValueError):
    """A set, window or sample requested beyond the supported scope."""


class EmptySet(ValueError):
    """Raised when an operation needs a nonempty union of balls."""


class WindowTooSmall(ValueError):
    """The declared truncation window cannot support the requested computation."""


# Largest q = p^M of any group, frame, lattice or window the library builds: spectral on all
# of Z/2^18, the slowest decision there, takes 2.7-3.5 s (2-core Xeon, Python 3.11.7; 2^19: 5.6 s).
_MAX_Q = 2**18


def _read_int(e, what: str, name: str, nonneg: bool = False) -> int:
    """The one reader of an exponent (a depth, level, window or order) or other int argument: e by the int rule of
    _require_ints, a bool read as its int and returned as a plain int; ValueError naming the argument otherwise."""
    if not isinstance(e, int) or nonneg and e < 0:
        raise ValueError(f"{what} takes an int {name}{' >= 0' if nonneg else ''}: {name}={e!r}")
    return +e  # the plain int of a bool, and e itself otherwise: faster than a call of int


def _check_q(p: int, M, what: str, count: int = 1, name: str = "M") -> int:
    """M read as an int >= 0 (_read_int); ScopeTooLarge when q = count·p^M passes the limit, naming the
    input that sets M, without forming p^M when 2^M alone passes it."""
    if (M := _read_int(M, what, name, True)) >= _MAX_Q.bit_length() or count * p**M > _MAX_Q:
        q = f"{p}^{M}" if count == 1 else f"{count}·{p}^{M}"
        raise ScopeTooLarge(f"{what} is limited to q <= {_MAX_Q}: p={p}, {name}={M}, q = {q} > {_MAX_Q}")
    return M


# Largest work of a level fold, in classes kept: count distinct residues mod p^levels fall into at most
# min(count, p^n) classes mod p^n, so with p^e <= count < p^(e+1) the maps mod p^n for n > e keep at most
# count·(levels - e) and the rest fewer than 2·count.  Every fold at q <= _MAX_Q keeps at most _MAX_Q, as
# does the scan of a lifted spectrum of 2^18 elements at window 19.  At the limit the slowest fold found, the
# scan of 1,278 residues at depth 800 for p = 5, took 1.25 s (2-core Xeon, Python 3.11.7; _MAX_Q: 3.5 s).
_MAX_FOLD = 2**20


def _check_fold(p: int, count: int, levels: int, what: str) -> None:
    """ScopeTooLarge naming count and levels when count·(levels - e) passes _MAX_FOLD, before any fold step."""
    if count * levels > _MAX_FOLD:  # else e need not be sought
        e = next(e for e in range(count.bit_length()) if p ** (e + 1) > count)
        if count * (levels - e) > _MAX_FOLD:
            raise ScopeTooLarge(f"{what} is limited to {_MAX_FOLD} classes (count·(levels - e), p^e <= count "
                                f"< p^(e+1)): p={p}, count={count}, levels={levels}")


# Largest size in bits of a power p^|e| asked for by an exponent (v and v + M of a frame, M of a
# ball or a declared frame, a window, a scan depth): at the limit the slowest command found takes
# 0.4 s (README, Limits), and every rational printed stays under Python's 4,300-digit limit.
_MAX_EXP_BITS = 2048
_MAX_TREE_BITS = 2 * _MAX_EXP_BITS  # of p^M in a frame: |v| and |v + M| each within _MAX_EXP_BITS
# Largest p^m, in bits, that a residue or a residue list reduces by: the pair checks ask for depths up to a
# window plus a frame's scale (each within _MAX_EXP_BITS) plus the at most 2^18 cells below the frame.
_MAX_RESIDUE_BITS = 2 * _MAX_EXP_BITS + _MAX_Q.bit_length()
# Largest denominator, in bits, whose p-adic fractional part is read: at 2^18 bits the valuation took 0.2-0.3 s
# for p = 2, 3, 5, 7, 101 and 1000003, against 0.65 s at 500,000 bits and 10.7 s at 2,000,000 for p = 2 (2-core
# Xeon, Python 3.11.7).  Every denominator a command parses is far below it (Python's 4,300-digit limit).
_MAX_FRAC_BITS = 2**18


def _check_exp(p: int, e, what: str, name: str, bits: int = _MAX_EXP_BITS, nonneg: bool = False) -> int:
    """e read as an int (_read_int); ScopeTooLarge when p^|e| has more than `bits` bits, naming the input
    that sets e, without forming p^|e| when 2^|e| alone passes the limit."""
    if abs(e := _read_int(e, what, name, nonneg)) >= bits or (p ** abs(e)).bit_length() > bits:
        raise ScopeTooLarge(f"{what} is limited to p^|{name}| of at most {bits} bits: p={p}, {name}={e}")
    return e


def _require_ints(stop: int | None = None, **lists) -> list[tuple]:
    """Each list read once into a tuple, in order; ValueError naming the first element of a list
    that is not an int (in range(stop), if given)."""
    out = []
    for name, xs in lists.items():
        xs = tuple(xs)
        for x in xs:
            if not (isinstance(x, int) and (stop is None or 0 <= x < stop)):
                within = "" if stop is None else f" in range(M) = range({stop})"
                raise ValueError(f"element {x!r} of {name} is not an int{within}")
        out.append(xs)
    return out


def _frame_digits(p: int, M, digits) -> tuple[int, tuple[int, ...]]:
    """(M, the sorted distinct digits) of a frame: M an int >= 0 (_read_int), the digits ints in [0, p**M), with
    p**M formed only when the largest has more than M bits (ValueError naming p and M), and at least one (EmptySet)."""
    M, [ds] = _read_int(M, "a frame", "M", nonneg=True), _require_ints(digits=digits)
    if not (ds := sorted(set(ds))):
        raise EmptySet("a frame needs at least one digit")
    ds[:2] = map(int, ds[:2])  # a bool (printed as true) is 0 or 1, so among the first two; stored as an int
    if ds[0] < 0 or ds[-1].bit_length() > M and ds[-1] >= p**M:
        raise ValueError(f"elements outside [0, p**M): p={p}, M={M}")
    return M, tuple(ds)


def _reduce_frame(p: int, v: int, M: int, ds) -> tuple[int, int, tuple[int, ...]]:
    """The canonical (v, M, sorted digits) of p**v * (ds + p**M Z_p), ds in [0, p**M): merge the
    bottom level while every class mod p**(M-1) holds all p children, then shift the scale by the valuation
    of the digits' gcd, capped at M.  A shift keeps the classes of the bottom level, so no merge can follow it."""
    while M > 0:
        q = p ** (M - 1)
        if len(ds) != p * len(classes := {d % q for d in ds}):
            break
        ds, M = classes, M - 1
    if s := _capped_valuation(p, math.gcd(*ds), M):
        ds, v, M = {d // p**s for d in ds}, v + s, M - s
    return v, M, tuple(sorted(ds))


def _digit_lattice(p: int, exponents, base=(0,), shift=0, what="a digit lattice", name="levels",
                  rules: dict | None = None) -> list[int]:
    """Sorted b * p^shift + t over b in base and t each sum of a_j * p^j over the exponents j, in the order given:
    at a level j of rules, a_j is rules[j][t mod p^j] for the t built so far (a class with no digit there is left
    out), and elsewhere every digit in [0, p); with exponents (distinct, in a range or list), ScopeTooLarge past
    |base|·p^(exponents outside rules) = _MAX_Q before any is built."""
    rules = rules or {}
    if exponents:  # the free levels counted from the rules, so a refusal takes no step per exponent
        _check_q(p, len(exponents) - sum(j in exponents for j in rules), what, len(base), name)
    tail = [0]
    for j in exponents:
        w = p**j
        if (rule := rules.get(j)) is None:
            tail = [t + a for a in range(0, p * w, w) for t in tail]
        else:
            tail = [t + rule[r] * w for t in tail if (r := t % w) in rule]
    f = p**shift
    return sorted([b * f + t for b in base for t in tail])


class _LatticeMemo:
    """The lattices the library builds from a branching set alone, least recently used first: a key of
    small ints (p, M, levels; no caller's digits) -> (value, weight), the weight being the kept elements
    times their levels (the measure of _check_fold).  The kept weight stays within the budget, the least
    recently used entries leaving first; a value heavier than the budget is returned but not kept.  Only
    the lattices are kept: every check that reads a caller's set runs on every call.  A lock guards each
    lookup and each insertion, not the build, so two threads may build one lattice and keep it once."""

    def __init__(self, budget: int):
        self.budget, self.weight, self.entries, self.lock = budget, 0, OrderedDict(), threading.Lock()

    def get(self, key: tuple, build):
        """The value kept for key, else the value of build() -> (value, weight), kept if it fits."""
        with self.lock:
            if (hit := self.entries.get(key)) is not None:
                self.entries.move_to_end(key)
                return hit[0]
        value, weight = build()
        with self.lock:
            if weight <= self.budget and key not in self.entries:
                self.entries[key] = value, weight
                self.weight += weight
                while self.weight > self.budget:
                    self.weight -= self.entries.popitem(last=False)[1][1]
        return value

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.weight = 0


# Kept weight of the lattice memo: the lattices that the benchmark's census, roundtrip and frontier (seed 1)
# workloads build, each from an empty memo, weigh 14,065 in all (176 of them), and 2^16 holds at most 2^16
# ints, about 2.5 MB.  A lifted truncation is kept as its pairs.UniformDiscreteSet, so that its block depth is
# derived once: the same numerators, weighed the same, in an object of under 100 bytes more.
_LATTICES = _LatticeMemo(2**16)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Trial division by the first 13 primes (instant for a census's p), then
    Miller–Rabin on the same bases: exact below 3.3e24 (Sorenson and Webster
    2016), a ValueError at or above it."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {n} is not decided exactly at or above {_MR_EXACT_BELOW}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _capped_valuation(p: int, n: int, k: int) -> int:
    """min(v_p(n), k) for an int n (k for n = 0), the library's one valuation; k = n.bit_length() gives v_p(n).
    It is twice that of p**2 capped at k // 2, plus 1 if p divides the rest, so its work is the bits of n times
    min(v_p(n), k), and it forms no power past p**k or, for n != 0, past n**2."""
    if k == 0 or n % p:
        return 0
    v = 2 * _capped_valuation(p * p, n, k // 2) if k > 1 else 0
    return v + (v < k and n // p**v % p == 0)


def _clamped_valuation(p: int, x: Fraction, k: int) -> int:
    """v_p(x) clamped to [-k, k] (k for x = 0), p**k bounded by the caller."""
    if x.denominator % p:
        return _capped_valuation(p, x.numerator, k)
    return -_capped_valuation(p, x.denominator, k)


def _valuation_at_least(p: int, x: Fraction, K: int) -> bool:
    """v_p(x) >= K, from _clamped_valuation at |K| + 1, exact in [-|K|, |K|]: its work is the bits of x times
    min(|v_p(x)|, |K| + 1), and x = 0 (True) takes no valuation, so no power of p past the square of x's
    numerator or denominator is formed, however large K is."""
    return not x or _clamped_valuation(p, x, abs(K) + 1) >= K


def _read_elements(p: int, elements, top: int) -> tuple[int, int, list[int]]:
    """(e, unit, numerators) of an element list, read once: element i is numerators[i] / (p**e * unit), repeats kept,
    with unit prime to p and p**e the largest p-part of a denominator, read up to p**(max(top, 0) + 1) (bounded by
    the caller).  An int passes as it is.  ValueError names the position and type of an element that is not an int or
    a Fraction, WindowTooSmall the position of one outside B(0, p**top)."""
    xs, e, unit, cap = list(elements), 0, 1, max(top, 0) + 1
    for i, x in enumerate(xs):
        if isinstance(x, int):
            continue
        if not isinstance(x, Fraction):
            raise ValueError(f"element {i} is a {type(x).__name__}, not an int or a Fraction")
        if (k := _capped_valuation(p, x.denominator, cap)) == cap:
            raise WindowTooSmall(f"element {i} lies outside the window B(0, p**{top})")
        e = max(e, k)
        if (u := x.denominator // p**k) > 1:
            unit = math.lcm(unit, u)
    scale = p**e * unit
    nums = [x.numerator * (scale // x.denominator) for x in xs]
    for i, n in enumerate(nums if top < 0 else ()):  # then e = 0, and v_p(n) is that of element i
        if n % p**-top:
            raise WindowTooSmall(f"element {i} lies outside the window B(0, p**{top})")
    return e, unit, nums


@dataclass(frozen=True, slots=True)
class PrimeContext:
    """The prime p that every object in a computation is pinned to.

    Mixing objects from different contexts is a bug, not a coercion; all
    binary operations check for it.
    """

    p: int

    def __post_init__(self) -> None:
        if not (isinstance(self.p, int) and _is_prime(self.p)):  # a float or Fraction equal to a prime is refused
            raise ValueError(f"p must be prime, got {self.p!r}")

    def pow(self, e: int) -> Fraction:
        """p**e as an exact rational for an int e, negative or not, with p**|e| bounded at _MAX_TREE_BITS."""
        e = _check_exp(self.p, e, "a power of p", "e", _MAX_TREE_BITS)
        return Fraction(self.p**e) if e >= 0 else Fraction(1, self.p**-e)

    def residue(self, x: Fraction | int, m: int) -> int:
        """x mod p**m as an integer in [0, p**m), for x with v_p(x) >= 0 and an int m >= 0 with p**m within
        _MAX_RESIDUE_BITS.  The denominator of x is a unit mod p**m, so its inverse is exact.
        """
        x = Fraction(x)
        q = self.p ** _check_exp(self.p, m, "a residue", "m", _MAX_RESIDUE_BITS, nonneg=True)
        if x.denominator % self.p == 0:
            raise ValueError(f"residue undefined: v_{self.p}({x}) < 0")
        return (x.numerator * pow(x.denominator, -1, q)) % q if q > 1 else 0

    def frac_exponent(self, y: Fraction | int) -> tuple[int, int]:
        """The exponent pair (n, k) with {y} = k / p**n, canonical as in RootOfUnity.

        n = max(0, -v_p(y)).  When n > 0 the numerator of y is a unit and
        y * p**n = numerator / unit-part-of-denominator, so k is one modular
        inverse: k = y * p**n mod p**n, and p does not divide it.  A denominator of more than
        _MAX_FRAC_BITS bits is refused (ScopeTooLarge) before any valuation.
        """
        y = Fraction(y)
        den = y.denominator
        if den.bit_length() > _MAX_FRAC_BITS:
            raise ScopeTooLarge(f"a fractional part is limited to denominators of at most {_MAX_FRAC_BITS} bits: "
                                f"p={self.p}, the denominator of y has {den.bit_length()} bits")
        if den % self.p:
            return 0, 0
        n = _capped_valuation(self.p, den, den.bit_length())
        q = self.p**n
        return n, y.numerator * pow(den // q, -1, q) % q

    def frac_part(self, x: Fraction | int) -> Fraction:
        """The p-adic fractional part of x: a rational in [0, 1) with denominator p**n."""
        n, k = self.frac_exponent(x)
        return Fraction(k, self.p**n)


@dataclass(frozen=True, slots=True)
class RootOfUnity:
    """exp(2*pi*i * k / p**n), stored as the exact exponent pair (n, k).

    Canonical form: 0 <= k < p**n and (n == 0 or p does not divide k), so the
    order is exactly p**n and equality is plain field equality.
    """

    context: PrimeContext
    n: int
    k: int


def character(context: PrimeContext, xi: Fraction | int, x: Fraction | int) -> RootOfUnity:
    """The standard unitary character of Q_p at xi*x: exp(2*pi*i*{xi*x})."""
    n, k = context.frac_exponent(xi * x)
    return RootOfUnity(context, n, k)


@dataclass(frozen=True, slots=True)
class Ball:
    """The closed-open ball p**v * (c + p**M Z_p), radius p**-(v+M).

    Canonical form: 0 <= c < p**M, and p does not divide c unless c == 0;
    when c == 0 the depth M is 0 (a ball around 0 is determined by its
    radius alone).  make() reduces any triple to this form, so equality of
    canonical balls is equality of the sets; it bounds M and v as exponents
    (ScopeTooLarge), so no method forms a power past the limit.
    """

    context: PrimeContext
    v: int
    M: int
    c: int

    @classmethod
    def make(cls, context: PrimeContext, v: int, M: int, c: int) -> "Ball":
        c = _read_int(c, "a ball", "c")
        M, v = _check_exp(context.p, M, "a ball", "M", nonneg=True), _check_exp(context.p, v, "a ball", "v")
        v, M, (c,) = _reduce_frame(context.p, v, M, {c % context.p**M})
        return cls(context, v, M, c)

    def measure(self) -> Fraction:
        """Haar measure, normalized so Z_p has measure 1.  p**|v + M| is bounded at _MAX_TREE_BITS
        (ScopeTooLarge): a made ball is within it, a ball built directly (a pair report's window) need not be."""
        _check_exp(self.context.p, self.v + self.M, "a ball's measure", "v + M", _MAX_TREE_BITS)
        return self.context.pow(-(self.v + self.M))

