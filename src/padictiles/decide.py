"""Exact deciders and constructors on Z/p^M: tiling, spectra, homogeneity, census.

The three per-set decision procedures (exact-cover tile search, orthogonality
spectrum search, digit-tree homogeneity test) are deliberately independent of
one another; the census asserts their agreement on every set it visits and
treats a disagreement as a fatal finding, not a warning.

The tile search rests on a lemma (Coven–Meyerowitz condition T1, with the
tile ⟺ homogeneous theorem in Z/p^M): C of size p^a tiles iff its mask
vanishes at exactly a levels, and then every complement is homogeneous with
the complement of C's branching set as its own.  Negative tile answers rest
on the lemma; positive ones are re-verified by a coverage count, and the
digit-tree homogeneity test does not use the lemma.
"""

from __future__ import annotations

import cmath
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .copen import frame_branching_set
from .cyclotomic import residue_counts, vanishes
from .padic import PrimeContext, _int_valuation

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


class ScopeTooLarge(ValueError):
    """Exhaustive enumeration requested beyond the supported scope."""


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
        if M < 0:
            raise ValueError("M must be >= 0")
        q = context.p**M
        elems = sorted({int(c) for c in elements})
        if not elems:
            raise ValueError("digit set must be nonempty")
        if elems[0] < 0 or elems[-1] >= q:
            raise ValueError(f"elements outside [0, p**M) = [0, {q})")
        return cls(context, M, tuple(elems))


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
    """Direct coverage count: every element of Z/p^M hit exactly once by C + T."""
    q = p**M
    counts = Counter((c + t) % q for c in C for t in T)
    return len(counts) == q and all(n == 1 for n in counts.values())


def verify_spectrum_witness(context: PrimeContext, M: int, C, lam) -> bool:
    """Exact orthogonality: sum over C of the root at d*c vanishes per difference d of lam."""
    if len(set(lam)) != len(lam) or len(lam) != len(C):
        return False
    p, q = context.p, context.p**M
    return all(
        vanishes(p, M, residue_counts(p, M, (d * c for c in C)))
        for d in {(a - b) % q for a, b in combinations(lam, 2)}
    )


def spectrum_orthogonality_defect(p: int, M: int, C, lam) -> float:
    """Largest |pairwise character sum| numerically; guard check, never a decider."""
    q = p**M
    worst = 0.0
    for d in {(a - b) % q for a, b in combinations(lam, 2)}:
        s = sum(cmath.exp(2j * cmath.pi * ((d * c) % q) / q) for c in C)
        worst = max(worst, abs(s))
    return worst


def _zero_levels(context: PrimeContext, M: int, C) -> frozenset[int]:
    """Levels j with sum over C of the p^M-th root at exponent p^j c equal to zero.

    A difference d = p^j u (u a unit) has vanishing character sum iff level j
    does: scaling exponents by u is a ring automorphism fixing 0.  The sum at
    level j is the same sum of roots of order p^(M-j) at exponents c.
    """
    p = context.p
    return frozenset(
        j for j in range(M) if vanishes(p, M - j, residue_counts(p, M - j, C))
    )


def _rotate(mask: int, t: int, size: int, full: int) -> int:
    t %= size
    return ((mask << t) | (mask >> (size - t))) & full


def is_tile_zmod(C: DigitSet) -> Witness | None:
    """Find T with C ⊕ T = Z/p^M; None when no complement exists.

    Covers the smallest uncovered x with the first allowed candidate of
    sorted((x - c) % q), as a backtracking exact-cover search would, but
    never backtracks.  By the lemma (module docstring) C is rejected unless
    |C| = p^a with exactly a vanishing levels: A ⊕ B = Z/p^M iff
    |A|·|B| = p^M and each Φ_{p^s} (1 <= s <= M) divides A(X) or B(X), and a
    mask vanishing at j levels has at least p^j elements.  Every complement
    is then homogeneous and does not branch on C's branching set I_C, so at
    each i in I_C the translates in one class mod p^i share digit i; a choice
    meeting that rule lies in some complement, so no allowed step is a dead
    end.  The witness is re-verified by a coverage count.
    """
    ctx, M = C.context, C.M
    p = ctx.p
    q = p**M
    k = len(C.C)
    if q % k:
        return None
    levels = _zero_levels(ctx, M, C.C)
    if p ** len(levels) != k:
        return None
    # weight p^i -> (class mod p^i -> the digit i its translates share)
    digit_of = {p ** (M - 1 - j): {} for j in levels}
    full = (1 << q) - 1
    covered = 0
    chosen: list[int] = []
    while covered != full:
        x = ((covered + 1) & ~covered).bit_length() - 1
        for t in sorted((x - c) % q for c in C.C):
            if all(d.get(t % w, t // w % p) == t // w % p for w, d in digit_of.items()):
                m = sum(1 << ((c + t) % q) for c in C.C)
                if not covered & m:
                    break
        else:
            raise ConstructionFailed(f"tile search found no allowed translate: C={C.C}, T so far={chosen}")
        for w, d in digit_of.items():
            d[t % w] = t // w % p
        covered |= m
        chosen.append(t)
    T = tuple(sorted(chosen))
    if not verify_tiling_witness(p, M, C.C, T):
        raise ConstructionFailed(f"tile search witness failed coverage recount: C={C.C}, T={T}")
    return Witness(WitnessKind.TILING_COMPLEMENT, p, M, T)


def is_spectral_zmod(C: DigitSet) -> Witness | None:
    """Search for a spectrum Λ ⊆ Z/p^M of C; None when none exists.

    All pairwise differences of Λ must lie in the zero-difference set
    D = {d : sum over C of the root at d*c is 0}, which is computed once from
    the M level sums (one exact zero test per level).  Depth-first search on
    an explicit stack, anchored at 0 (spectra translate) with candidates in
    increasing order, so the returned witness is deterministic.
    """
    ctx, M = C.context, C.M
    p = ctx.p
    q = p**M
    k = len(C.C)
    zl = _zero_levels(ctx, M, C.C)
    dmask = 0
    for d in range(1, q):
        if _int_valuation(p, d) in zl:
            dmask |= 1 << d
    if 1 + dmask.bit_count() < k:
        return None
    full = (1 << q) - 1
    adj = [_rotate(dmask, a, q, full) for a in range(q)]
    # stack[i]: the candidates not yet tried after chosen[:i + 1]
    chosen, stack = [0], [adj[0]]
    while len(chosen) < k:
        m = stack[-1]
        if len(chosen) + m.bit_count() < k:
            if len(stack) == 1:
                return None
            stack.pop()
            chosen.pop()
            continue
        low = m & -m
        stack[-1] = m ^ low
        chosen.append(low.bit_length() - 1)
        stack.append(stack[-1] & adj[chosen[-1]])
    found = tuple(chosen)
    if not verify_spectrum_witness(ctx, M, C.C, found):
        raise ConstructionFailed(f"spectrum search witness failed exact recheck: C={C.C}, Λ={found}")
    if spectrum_orthogonality_defect(p, M, C.C, found) >= 1e-9:
        raise ConstructionFailed(f"spectrum witness failed numeric guard: C={C.C}, Λ={found}")
    return Witness(WitnessKind.SPECTRUM, p, M, found)


def spectrum_from_homogeneity(C: DigitSet, levels) -> Witness:
    """Spectrum for a homogeneous digit set from its branching levels.

    Candidate: all sums of a_i * p^(M-1-i) over branching levels i with
    digits a_i in [0, p).  Verified exactly before return; a failure raises
    rather than patching (fall back to is_spectral_zmod explicitly if ever
    needed).
    """
    ctx, M = C.context, C.M
    p = ctx.p
    lam = [0]
    for i in sorted(levels):
        w = p ** (M - 1 - i)
        lam = [x + a * w for x in lam for a in range(p)]
    lam = tuple(sorted(x % p**M for x in lam))
    if len(set(lam)) != len(C.C) or not verify_spectrum_witness(ctx, M, C.C, lam):
        raise ConstructionFailed(
            f"homogeneity spectrum formula failed for C={C.C}, levels={sorted(levels)}"
        )
    if spectrum_orthogonality_defect(p, M, C.C, lam) >= 1e-9:
        raise ConstructionFailed(f"numeric guard failed for C={C.C}, levels={sorted(levels)}")
    return Witness(WitnessKind.SPECTRUM, p, M, lam)


def complement_from_homogeneity(C: DigitSet, levels) -> Witness:
    """Tiling complement for a homogeneous digit set: digits on non-branching levels."""
    ctx, M = C.context, C.M
    p = ctx.p
    rest = [j for j in range(M) if j not in set(levels)]
    t = [0]
    for j in rest:
        w = p**j
        t = [x + b * w for x in t for b in range(p)]
    t = tuple(sorted(x % p**M for x in t))
    if not verify_tiling_witness(p, M, C.C, t):
        raise ConstructionFailed(
            f"homogeneity complement formula failed for C={C.C}, levels={sorted(levels)}"
        )
    return Witness(WitnessKind.TILING_COMPLEMENT, p, M, t)


def homogeneous_census_size(p: int, M: int, levels) -> int:
    """Closed form: number of homogeneous sets with branching set exactly `levels`."""
    I = set(levels)
    e = 0
    for i in range(M):
        if i not in I:
            e += p ** len([j for j in I if j < i])
    return p**e


@dataclass(frozen=True, slots=True)
class CensusRow:
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


def _row_from_mask(p: int, M: int, mask: int) -> CensusRow:
    ctx = PrimeContext(p)
    q = p**M
    C = tuple(x for x in range(q) if mask >> x & 1)
    ds = DigitSet(ctx, M, C)
    wt = is_tile_zmod(ds)
    wl = is_spectral_zmod(ds)
    levels = frame_branching_set(p, M, C)
    flags = (wt is not None, wl is not None, levels is not None)
    if len(set(flags)) != 1:
        raise EquivalenceViolation(
            f"flags disagree on p={p}, M={M}, C={C}: tile={flags[0]}, "
            f"spectral={flags[1]}, homogeneous={flags[2]}"
        )
    if wt is not None:
        k = len(C)
        while k % p == 0:
            k //= p
        if k != 1:
            raise EquivalenceViolation(f"positive set with non-p-power size: C={C}")
        # tiling is symmetric: C must complement its own witness
        if not verify_tiling_witness(p, M, wt.elements, C):
            raise EquivalenceViolation(f"tiling duality failed: C={C}, T={wt.elements}")
    return CensusRow(
        C,
        wt is not None,
        wl is not None,
        levels is not None,
        None if levels is None else tuple(sorted(levels)),
        None if wt is None else wt.elements,
        None if wl is None else wl.elements,
    )


def _rows_for_masks(p: int, M: int, masks: list[int]) -> list[CensusRow]:
    return [_row_from_mask(p, M, m) for m in masks]


def _all_branching_sets(M: int):
    out = [()]
    for i in range(M):
        out = [s + (i,) for s in out] + out
    return sorted(set(out))


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
    regardless of jobs.
    """
    PrimeContext(p)  # validates primality
    q = p**M
    if mode == "exhaustive":
        if not ((p == 2 and M <= 4) or (p == 3 and M <= 2)):
            raise ScopeTooLarge(f"exhaustive classify limited to p=2, M<=4 and p=3, M<=2; got p={p}, M={M}")
        masks = range(1, 1 << q)
    elif mode == "sample":
        if sample_size is None or sample_size < 0:
            raise ValueError("sample mode needs sample_size >= 0")
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

    masks = list(masks)
    if jobs > 1 and len(masks) > 1:
        chunk = max(1, len(masks) // (jobs * 8))
        parts = [masks[i : i + chunk] for i in range(0, len(masks), chunk)]
        rows: list[CensusRow] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_rows_for_masks, [p] * len(parts), [M] * len(parts), parts):
                rows.extend(part)
    else:
        rows = _rows_for_masks(p, M, masks)

    counts_by_card: dict[int, int] = {}
    counts_by_branching: dict[tuple[int, ...], int] = {}
    positive = 0
    for row in rows:
        if row.is_tile:
            positive += 1
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
    return Census(p, M, mode, len(rows), positive, counts_by_card, counts_by_branching, rows)
