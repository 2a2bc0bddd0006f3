"""Exact deciders and constructors on Z/p^M: tiling, spectra, homogeneity, census.

The tile and spectrum deciders share one test on the level sums, which rests
on a lemma (Coven–Meyerowitz condition T1, with the tile ⟺ spectral ⟺
homogeneous theorem in Z/p^M): C of size p^a tiles, and is spectral, iff its
mask vanishes at exactly a levels.  Tile half: A ⊕ B = Z/p^M iff
|A|·|B| = p^M and each Φ_{p^s} divides A(X) or B(X), and a mask vanishing
at j levels has at least p^j elements.  Spectral half: the differences of a
spectrum Λ have valuations in the zero-level set Z, so the digits at the
levels in Z are injective on Λ and |Λ| <= p^|Z|; and p^|Z| divides |C|,
because Φ_{p^(M-j)} divides C(X) for each j in Z and Φ_{p^s}(1) = p.
Negative answers rest on the lemma; positive ones are re-verified exactly,
a spectrum by the successor form of the coset test where T1 read the sums of
squares (cyclotomic docstring).  No decision reads a float.
The digit-tree homogeneity test is independent of both deciders, and the
census treats any disagreement among the three as a fatal finding.
"""

from __future__ import annotations

import os
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache, partial
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from .copen import _frame_branching_set, frame_branching_set  # noqa: F401 (reached as decide.frame_branching_set)
from .cyclotomic import _float_sum, _level_counts, _vanishes, _zero_orders
from .padic import (_LATTICES, PrimeContext, ScopeTooLarge, _check_exp, _check_fold, _check_q, _digit_lattice,
                    _frame_digits, _read_int, _require_ints)

__all__ = [
    "DigitSet",
    "Witness",
    "WitnessKind",
    "ConstructionFailed",
    "ScopeTooLarge",
    "EquivalenceViolation",
    "is_tile_zmod",
    "is_spectral_zmod",
    "spectrum_from_homogeneity",
    "complement_from_homogeneity",
    "verify_tiling_witness",
    "verify_spectrum_witness",
    "spectrum_orthogonality_defect",
    "homogeneous_census_size",
    "CensusRow",
    "Census",
    "classify_all",
]


class ConstructionFailed(RuntimeError):
    """A constructed candidate failed its own exact verification."""


class EquivalenceViolation(RuntimeError):
    """The tile/spectral/homogeneous flags disagreed on some set (fatal finding)."""


class WitnessKind(Enum):
    TILING_COMPLEMENT = "tiling-complement"
    SPECTRUM = "spectrum"


@dataclass(frozen=True, slots=True)
class DigitSet:
    """A nonempty subset of Z/p^M, standing for the union of its digit cells in Z_p."""

    context: PrimeContext
    M: int
    C: tuple[int, ...]

    @classmethod
    def make(cls, context: PrimeContext, M: int, elements) -> "DigitSet":
        """M and the sorted distinct elements, read by padic._frame_digits (ints in [0, p**M), at least one)."""
        return cls(context, *_frame_digits(context.p, M, elements))


@dataclass(frozen=True, slots=True)
class Witness:
    kind: WitnessKind
    p: int
    M: int
    elements: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "p": self.p,
            "M": self.M,
            "elements": list(self.elements),
        }


def verify_tiling_witness(p: int, M: int, C, T) -> bool:
    """Direct coverage count: |C|·|T| = p^M, checked before any sum, and the sums c + t cover Z/p^M
    (C and T ints, else ValueError); M is an int >= 0, p**M bounded as an exponent (ScopeTooLarge)."""
    M = _check_exp(p, M, "a tiling check", "M", nonneg=True)
    C, T = _require_ints(C=C, T=T)
    return _covers(p**M, C, T)


def _covers(q: int, C: tuple, T: tuple) -> bool:
    """verify_tiling_witness on int tuples whose q is bounded."""
    if len(C) * len(T) != q:
        return False
    return len({(c + t) % q for c in C for t in T}) == q


def _valuations(p: int, M: int, lam: tuple) -> frozenset[int]:
    """The valuations j of the differences of lam (v_p(0) = M), lam an int tuple: j occurs iff lam has more
    classes mod p^(j+1) than mod p^j, p^(M+1) meaning no reduction.  The classes of lam are folded as sets
    until one is left, bounded by padic._check_fold before the first step (ScopeTooLarge)."""
    w = p**M
    classes = {x % w for x in lam}
    _check_fold(p, len(classes), M, "a level fold")
    sizes = [len(lam), len(classes)]  # sizes[i]: classes of lam mod p^(M+1-i)
    while len(classes) > 1:
        w //= p
        classes = {x % w for x in classes}
        sizes.append(len(classes))
    sizes += [len(classes)] * (M + 2 - len(sizes))
    return frozenset(j for j in range(M + 1) if sizes[M - j] > sizes[M + 1 - j])


def _levels_at(p: int, M: int, C: tuple, occurring, maps=None) -> list[tuple[int, dict[int, int]]]:
    """(j, counts of C mod p^(M-j)) for each j in occurring, ascending, C an int tuple.  C's counts are read from
    maps, its counts mod p^M down to p^0 as T1 kept them (_t1_levels), or else folded only down to the deepest
    j in occurring, a fold bounded by padic._check_fold before its first step (ScopeTooLarge)."""
    maps = list(islice(_level_counts(p, M, C), max(occurring, default=-1) + 1)) if maps is None else maps
    return [(j, maps[j]) for j in sorted(occurring)]


def _orthogonal(p: int, M: int, levels) -> bool:
    """The exact recheck of verify_spectrum_witness on the occurring levels of its lam."""
    return all(_vanishes(p, M - j, counts) for j, counts in levels)


def verify_spectrum_witness(context: PrimeContext, M: int, C, lam) -> bool:
    """Exact orthogonality: sum over C of the root at d*c vanishes per difference d of lam.

    For d = u*p^j with u a unit, the sum over C of exp(2 pi i d c / p^M) is the
    image of level j of C (roots of order p^(M-j) at exponents c) under the Galois
    automorphism zeta -> zeta^u, which fixes 0.  So the level sum of each valuation
    among the differences decides them all, in O(M*(|C| + |lam|)).  M is an int >= 0, p**M
    bounded as an exponent (ScopeTooLarge), and C and lam must hold ints (ValueError).
    """
    M = _check_exp(context.p, M, "a spectrum check", "M", nonneg=True)
    C, lam = _require_ints(C=C, lam=lam)
    if len(lam) != len(C):  # a repeated element of lam is a difference of valuation M, where the sum is |C|
        return False
    return _orthogonal(context.p, M, _levels_at(context.p, M, C, _valuations(context.p, M, lam)))


def spectrum_orthogonality_defect(p: int, M: int, C, lam) -> float:
    """Largest |character sum over C| at the differences of lam, in floats: a diagnostic; no decision reads it.

    Per verify_spectrum_witness only the valuation j of d matters; the sum is taken
    at u*p^j for the units u in {1, 1 + p} over the counts of C mod p^(M-j) (at -1 it is
    the complex conjugate of the sum at 1, of the same modulus), each by cyclotomic._float_sum,
    which forms every angle from an int quotient, right at any order.
    M and the elements of C and lam must be ints, M >= 0 (ValueError), as in the exact recheck.
    """
    M = _check_exp(p, M, "a spectrum check", "M", nonneg=True)
    C, lam = _require_ints(C=C, lam=lam)
    return max((abs(_float_sum(n, counts, u)) for j, counts in _levels_at(p, M, C, _valuations(p, M, lam))
                for n in [p ** (M - j)] for u in {1 % n, (1 + p) % n}), default=0.0)


@lru_cache(maxsize=1)
def _t1_levels(C: DigitSet) -> tuple[frozenset[int], list[dict[int, int]]] | None:
    """(Z, maps) when |C| = p^|Z| for the zero levels Z of C (condition T1), else None; maps[j] is
    the count map of C mod p^(M-j), for j = 0..M, from the one fold that decided Z.

    Level j is in Z when the sum over C of the roots of order p^(M-j) at
    exponents c vanishes, and then so does the sum at d*c for d = p^j u:
    scaling exponents by a unit u is a ring automorphism fixing 0.  A q past
    the limit raises ScopeTooLarge and a size not dividing p^M gives None, both
    before any level sum.  Both deciders ask this of one set in turn; the spectral
    one rechecks its spectrum on these maps and empties the cache, but is_tile_zmod
    alone leaves its set's maps here until the next call of either decider.
    """
    p, M, k = C.context.p, C.M, len(C.C)
    if p ** _check_q(p, M, "deciding tiles and spectra") % k:
        return None
    maps = list(_level_counts(p, M, C.C))
    zero = _zero_orders(p, M, maps)  # the orders M - j of the zero levels j (never 0: C is nonempty)
    return (frozenset(M - n for n in zero), maps) if p ** len(zero) == k else None


def is_tile_zmod(C: DigitSet) -> Witness | None:
    """Find T with C ⊕ T = Z/p^M; None when no complement exists.

    Covers the smallest uncovered x with the first allowed candidate in
    ascending (x - c) mod q, as a backtracking exact-cover search would, but
    never backtracks; the candidates are read in rotation order of the sorted
    C (the c <= x descending, then the c > x descending).  C is rejected
    unless it meets T1 (module docstring).  Every complement is then
    homogeneous and does not branch on C's branching set I_C, so at each i
    in I_C the translates in one class mod p^i share digit i; a choice
    meeting that rule lies in some complement, so no allowed step is a dead
    end.  No allowed translate overlaps a chosen one: C is homogeneous (T1
    and the lemma), so every nonzero difference in C - C has its valuation
    in I_C, while two translates that meet the rule first differ at a level
    outside I_C (and t covers the uncovered x, so it is new).  Coverage is a
    bytearray, scanned forward from x.

    The walk stops once every rule entry is set: p^(i - k) classes at the
    k-th level i of I_C (0-based, ascending).  A rule never changes once
    set, so the T a walk to the last cell would choose lies in the set R of
    all t whose digits at I_C obey the rules, and T1 gives |T| = p^M/|C| =
    p^(M - |I_C|) = |R|: T = R.  If the walk has placed |R| translates by
    then, they are T; else padic._digit_lattice lists R from the rules, the
    digits above the top level of I_C, all free, being its base.  The walk
    also ends when every cell is covered, and then an unset entry is a
    ConstructionFailed, so a wrong count cannot spin.  The witness is
    re-verified by a coverage count.
    """
    p, M = C.context.p, C.M
    t1 = _t1_levels(C)
    if t1 is None:
        return None
    q, cs, n = p**M, C.C, len(C.C)
    rules, unset = {}, 0  # branching level i of C -> (class mod p^i -> the digit i its translates share)
    for k, j in enumerate(sorted(t1[0], reverse=True)):  # i = M - 1 - j ascending, the k-th of them
        rules[M - 1 - j] = {}
        unset += p ** (M - 1 - j - k)
    digit_of = [(p**i, d) for i, d in rules.items()]
    covered = bytearray(q)
    chosen: list[int] = []
    x = 0
    while unset and x != -1:
        k = bisect_right(cs, x)
        for m in range(k - 1, k - 1 - n, -1):  # a negative m wraps round to the c > x
            t = (x - cs[m]) % q
            for w, d in digit_of:
                a = t // w % p
                if d.get(t % w, a) != a:
                    break
            else:
                break
        else:
            raise ConstructionFailed(f"tile search found no allowed translate: C={cs}, T so far={chosen}")
        for w, d in digit_of:
            if (r := t % w) not in d:
                d[r] = t // w % p
                unset -= 1
        chosen.append(t)
        if unset:  # else no further x is sought
            for c in cs:
                covered[(c + t) % q] = 1
            x = covered.find(0, x)
    if unset:
        raise ConstructionFailed(f"tile search covered Z/p^M with {unset} rule entries unset: C={cs}")
    if len(chosen) * n == q:
        T = tuple(sorted(chosen))
    else:  # every digit above the top branching level is free: those digits are the lattice's base
        top = max(rules, default=-1) + 1
        T = tuple(_digit_lattice(p, range(top), range(p ** (M - top)), top, rules=rules))
    if not _covers(q, cs, T):
        raise ConstructionFailed(f"tile search witness failed coverage recount: C={cs}, T={T}")
    return Witness(WitnessKind.TILING_COMPLEMENT, p, M, T)


def is_spectral_zmod(C: DigitSet) -> Witness | None:
    """A spectrum Λ ⊆ Z/p^M of C; None when none exists.

    C is rejected unless |C| = p^|Z| for its zero-level set Z (T1): a
    spectrum's digits at the levels in Z are injective on it, so |Λ| <=
    p^|Z|, and p^|Z| divides |C| because Φ_{p^s}(1) = p (module docstring).
    Otherwise Λ is every number whose base-p digits outside Z are 0; two
    first differ at some j in Z, so their difference has valuation j.  That
    is the homogeneity spectrum at branching levels {M-1-j : j in Z}, which
    is rechecked exactly, by the successor form, on the count maps of T1.
    They leave T1's cache here, which is_tile_zmod alone does not empty.
    """
    t1 = _t1_levels(C)
    _t1_levels.cache_clear()  # the maps are read here for the last time: they go when this call returns
    if t1 is None:
        return None
    levels, maps = t1
    return _spectrum_from_homogeneity(C, {C.M - 1 - j for j in levels}, maps)


def spectrum_from_homogeneity(C: DigitSet, levels) -> Witness:
    """Spectrum for a homogeneous digit set from its branching levels.

    Candidate: all sums of a_i * p^(M-1-i) over branching levels i with
    digits a_i in [0, p).  Verified exactly, on one pass over the occurring
    levels of Λ, before return; a failure raises rather than patching; a
    level not an int in range(M) is a ValueError.  A repeated level repeats
    elements, so the valuation M occurs and fails.
    """
    return _spectrum_from_homogeneity(C, *_require_ints(stop=C.M, levels=levels))


def _spectrum_from_homogeneity(C: DigitSet, levels, maps=None) -> Witness:
    """spectrum_from_homogeneity of int levels in range(M), which the library's callers hold; the recheck
    reads C's counts from maps when the caller holds them (_levels_at).  p**M is bounded before any
    lattice is sought (ScopeTooLarge); Λ and its valuations come from _homogeneity_spectrum, and the
    size test and the exact recheck read C on every call."""
    M, p = C.M, C.context.p
    _check_exp(p, M, "a spectrum check", "M")
    lam, occurring = _homogeneity_spectrum(p, M, tuple(sorted(levels)))
    if len(lam) != len(C.C) or not _orthogonal(p, M, _levels_at(p, M, C.C, occurring, maps)):
        raise ConstructionFailed(
            f"homogeneity spectrum formula failed for C={C.C}, levels={sorted(levels)}"
        )
    return Witness(WitnessKind.SPECTRUM, p, M, lam)


def _homogeneity_spectrum(p: int, M: int, levels: tuple) -> tuple[tuple[int, ...], frozenset[int]]:
    """(Λ, the valuations of its differences) for the sorted branching levels, a repeated level repeating
    elements: Λ is built by padic._digit_lattice and its valuations read by _valuations once per key of
    padic._LATTICES, weighing |Λ|·M."""
    def build():
        lam = tuple(_digit_lattice(p, [M - 1 - i for i in levels]))
        return (lam, _valuations(p, M, lam)), len(lam) * max(M, 1)
    return _LATTICES.get(("spectrum", p, M, levels), build)


def complement_from_homogeneity(C: DigitSet, levels) -> Witness:
    """Tiling complement: digits on the levels of range(M) outside `levels` (ints, else ValueError)."""
    M, p = C.M, C.context.p
    levels = set(*_require_ints(stop=M, levels=levels))
    _check_q(p, M - len(levels), "a digit lattice", name="levels")
    t = tuple(_digit_lattice(p, [j for j in range(M) if j not in levels]))
    if not verify_tiling_witness(p, M, C.C, t):
        raise ConstructionFailed(
            f"homogeneity complement formula failed for C={C.C}, levels={sorted(levels)}"
        )
    return Witness(WitnessKind.TILING_COMPLEMENT, p, M, t)


def homogeneous_census_size(p: int, M: int, levels) -> int:
    """Closed form: number of homogeneous sets with branching set exactly `levels`
    (ints in range(M), else ValueError), for a prime int p (PrimeContext, else ValueError) and an int M >= 0."""
    PrimeContext(p)
    M = _check_q(p, M, "a census size")
    I = set(*_require_ints(stop=M, levels=levels))
    return p ** sum(p ** len([j for j in I if j < i]) for i in range(M) if i not in I)


class CensusRow(NamedTuple):
    """One classified set; a named tuple, cheaper to build than a frozen dataclass."""
    C: tuple[int, ...]
    is_tile: bool
    is_spectral: bool
    is_homogeneous: bool
    branching: tuple[int, ...] | None
    witness_T: tuple[int, ...] | None
    witness_Lambda: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "C": list(self.C),
            "is_tile": self.is_tile,
            "is_spectral": self.is_spectral,
            "is_homogeneous": self.is_homogeneous,
            "I": None if self.branching is None else list(self.branching),
            "witness_T": None if self.witness_T is None else list(self.witness_T),
            "witness_Lambda": None if self.witness_Lambda is None else list(self.witness_Lambda),
        }


@dataclass(frozen=True)
class Census:
    p: int
    M: int
    mode: str
    total: int
    positive: int
    counts_by_card: dict[int, int]
    counts_by_branching: dict[tuple[int, ...], int]
    rows: list[CensusRow]


def _row_from_mask(context: PrimeContext, M: int, mask: int) -> CensusRow:
    """The row of C = {x : bit x of mask is set}, with the three flags cross-checked.  It stays a
    module-level function that _rows looks up per row, so rebinding decide._row_from_mask (to time
    each set, say) reaches every serial census; the caller, not this step, writes the rows."""
    p = context.p
    C = tuple([x for x, b in enumerate(bin(mask)[:1:-1]) if b == "1"])
    ds = DigitSet(context, M, C)
    wt = is_tile_zmod(ds)
    wl = is_spectral_zmod(ds)
    levels = _frame_branching_set(p, M, C)
    flags = (wt is not None, wl is not None, levels is not None)
    if len(set(flags)) != 1:
        raise EquivalenceViolation(
            f"flags disagree on p={p}, M={M}, C={C}: tile={flags[0]}, "
            f"spectral={flags[1]}, homogeneous={flags[2]}"
        )
    if wt is not None:
        if p**M % len(C):  # |C| <= p^M divides p^M iff it is a power of p
            raise EquivalenceViolation(f"positive set with non-p-power size: C={C}")
    return CensusRow(
        C,
        wt is not None,
        wl is not None,
        levels is not None,
        None if levels is None else tuple(sorted(levels)),
        None if wt is None else wt.elements,
        None if wl is None else wl.elements,
    )


def _all_branching_sets(M: int):
    return sorted(tuple(i for i in range(M) if s >> i & 1) for s in range(1 << M))


# Largest K·q of a sampled census, in bits of the K masks it draws and sorts before its first row:
# K = 1 at q = 2^18, and 2 MiB of masks at most.
_MAX_SAMPLE_BITS = 2**24


def _census_rows(p: int, M: int, mode: str, sample_size=None, seed=0, jobs=1) -> Iterator[CensusRow]:
    """Validate a census request and return its rows, computed as they are
    read, in mask order regardless of jobs."""
    context = PrimeContext(p)  # validates primality, once per census
    M, jobs = _read_int(M, "a census", "M", nonneg=True), _read_int(jobs, "a census", "jobs")
    if not 1 <= jobs <= (os.cpu_count() or 1):
        raise ValueError(f"--jobs must be between 1 and os.cpu_count() = {os.cpu_count() or 1}; got {jobs}")
    if mode == "exhaustive":
        if not ((p == 2 and M <= 4) or (p == 3 and M <= 2)):
            raise ScopeTooLarge(f"exhaustive classify limited to p=2, M<=4 and p=3, M<=2; got p={p}, M={M}")
        masks = range(1, 1 << p**M)
    elif mode == "sample":
        if sample_size is None:
            raise ValueError("sample mode needs sample_size >= 0")
        sample_size = _read_int(sample_size, "a sample census", "sample_size", nonneg=True)
        q = p ** _check_q(p, M, "sampling subsets")
        if sample_size * q > _MAX_SAMPLE_BITS:
            raise ScopeTooLarge(f"a sample of K subsets of Z/p^M is limited to K·p^M <= {_MAX_SAMPLE_BITS} "
                                f"mask bits: K={sample_size}, p={p}, M={M}, K·p^M = {sample_size * q}")
        universe = (1 << q) - 1
        rng = random.Random(seed)
        if sample_size > universe:
            raise ValueError("sample_size exceeds number of nonempty subsets")
        picked: set[int] = set()
        while len(picked) < sample_size:
            picked.add(rng.randrange(1, 1 << q))
        masks = sorted(picked)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _rows(context, M, masks, jobs)


def _rows(context: PrimeContext, M: int, masks, jobs: int) -> Iterator[CensusRow]:
    if jobs > 1 and len(masks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # here only: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(partial(_row_from_mask, context, M), masks,
                                chunksize=max(1, len(masks) // (jobs * 8)))
    else:
        for m in masks:
            yield _row_from_mask(context, M, m)


def _tally(p: int, M: int, mode: str, rows: Iterable[CensusRow], emit) -> Census:
    """Pass each row to emit(row) and keep only the counts (Census.rows is
    empty).  An exhaustive census is checked against the closed-form count
    of each branching set."""
    counts_by_card: dict[int, int] = {}
    counts_by_branching: dict[tuple[int, ...], int] = {}
    total = 0
    for row in rows:
        emit(row)
        total += 1
        if row.is_tile:
            counts_by_card[len(row.C)] = counts_by_card.get(len(row.C), 0) + 1
            counts_by_branching[row.branching] = counts_by_branching.get(row.branching, 0) + 1
    if mode == "exhaustive":
        for levels in _all_branching_sets(M):
            want = homogeneous_census_size(p, M, levels)
            got = counts_by_branching.get(levels, 0)
            if want != got:
                raise EquivalenceViolation(
                    f"branching-set census mismatch at I={levels}: closed form {want}, enumerated {got}"
                )
    return Census(p, M, mode, total, sum(counts_by_card.values()), counts_by_card, counts_by_branching, [])


def classify_all(
    p: int,
    M: int,
    mode: str = "exhaustive",
    sample_size: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> Census:
    """Classify nonempty subsets of Z/p^M and assert the three flags agree.

    Exhaustive scope is capped at p=2, M <= 4 and p=3, M <= 2 (the flagship
    sweep); sample mode draws sample_size distinct subsets from the given
    seed.  The exhaustive run also cross-checks the per-branching-set counts
    against the closed-form census size.  Rows come back in mask order
    regardless of jobs, which runs from 1 to os.cpu_count().
    """
    rows: list[CensusRow] = []
    M = _read_int(M, "a census", "M", nonneg=True)  # so that Census.M is a plain int
    census = _tally(p, M, mode, _census_rows(p, M, mode, sample_size, seed, jobs), rows.append)
    return replace(census, rows=rows)
