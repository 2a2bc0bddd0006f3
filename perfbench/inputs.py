"""Seeded input generators for the benchmark, written without the library.

A digit set C in Z/p^M is p-homogeneous with branching set I when, read as a
tree of residues (level i holds C mod p^(i+1)), every node at a level in I has
all p children and every other node has exactly one.  Building the tree level
by level enumerates or samples such sets directly, so the benchmark's inputs
and the truth it checks against never come from the code under test.
"""

from __future__ import annotations

import random
from itertools import product

# Exhaustive families whose homogeneous sets the roundtrip workload visits.
ROUNDTRIP_FAMILIES = ((2, 4), (3, 2))

# Frontier scopes (p, M) -> draws per proper branching set; each draw is a
# homogeneous set plus a one-digit perturbation of it.  (2, 7) and (3, 4) are
# left out: single sets there take longer than a run may.  (2, 6) gets 14
# draws so that its 32-element sets, whose spectrum searches take ~10 ms, are
# over 5% of the sets: set_p95_ms then falls inside that dense band instead of
# in the empty gap below it, where it moved by 20% from seed to seed.
FRONTIER_DRAWS = {(2, 6): 14, (3, 3): 14, (5, 2): 33, (7, 2): 33}

# The search part of the frontier: (2, 6) sets of size 2 and 4.  The tile
# search takes from 0.1 ms to 2.6 s on one of them, depending on the set, and
# they hold most of the frontier's time, so a fresh draw per seed swung the
# pass time from 0.8 s to 8.6 s over 30 seeds.  They come from one fixed draw
# instead; the seed draws every other set and the order of all of them.
SEARCH_SCOPE = (2, 6)
SEARCH_MAX_BRANCHING = 2
SEARCH_DRAWS = 2
SEARCH_SEED = 0


def branching_sets(M: int) -> list[tuple[int, ...]]:
    """Every subset of range(M), in lexicographic order."""
    return [tuple(i for i in range(M) if mask >> i & 1) for mask in range(1 << M)]


def _grow(p: int, M: int, levels, choose) -> tuple[int, ...]:
    """The homogeneous set with branching set `levels`; choose(i, node_count) gives
    the single child digit of each node at a non-branching level i."""
    levels = set(levels)
    nodes = [0]
    for i in range(M):
        w = p**i
        if i in levels:
            nodes = [r + a * w for r in nodes for a in range(p)]
        else:
            digits = choose(i, len(nodes))
            nodes = [r + a * w for r, a in zip(nodes, digits)]
    return tuple(sorted(nodes))


def homogeneous_sets(p: int, M: int, levels) -> list[tuple[int, ...]]:
    """All homogeneous sets of Z/p^M with branching set `levels`, in a fixed order."""
    free = []  # (non-branching level, number of nodes choosing a digit there)
    nodes = 1
    for i in range(M):
        if i in levels:
            nodes *= p
        else:
            free.append((i, nodes))
    out = []
    for choice in product(*(product(range(p), repeat=n) for _, n in free)):
        digits = dict(zip((i for i, _ in free), choice))
        out.append(_grow(p, M, levels, lambda i, n: digits[i]))
    return out


def branching_levels(p: int, M: int, C) -> tuple[int, ...] | None:
    """The branching set of C in Z/p^M, or None when C is not homogeneous."""
    out = []
    for i in range(M):
        q = p**i
        children: dict[int, set[int]] = {}
        for c in C:
            children.setdefault(c % q, set()).add(c % (q * p))
        counts = {len(ch) for ch in children.values()}
        if counts == {p}:
            out.append(i)
        elif counts != {1}:
            return None
    return tuple(out)


def roundtrip_inputs(seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The 835 homogeneous sets (p, M, digits) of Z/2^4 and Z/3^2, shuffled by seed."""
    sets = [
        (p, M, C)
        for p, M in ROUNDTRIP_FAMILIES
        for levels in branching_sets(M)
        for C in homogeneous_sets(p, M, levels)
    ]
    random.Random(seed).shuffle(sets)
    return sets


def _perturb(rng: random.Random, p: int, M: int, C: tuple[int, ...]) -> tuple[int, ...]:
    """Change one base-p digit of one element, keeping the set's size."""
    members = set(C)
    while True:
        c = rng.choice(C)
        i = rng.randrange(M)
        w = p**i
        old = c // w % p
        new = rng.choice([a for a in range(p) if a != old])
        moved = c + (new - old) * w
        if moved not in members:
            return tuple(sorted(members - {c} | {moved}))


def frontier_inputs(seed: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Random homogeneous sets and one perturbation of each, per frontier scope.

    Stratified: every proper branching set of a scope gets the same number of
    draws, so only the free digits and the perturbations are random.  The
    whole group (the full branching set) has no perturbation and is left out.
    """
    rng = random.Random(seed)
    search_rng = random.Random(SEARCH_SEED)
    out = []
    for (p, M), draws in FRONTIER_DRAWS.items():
        for levels in branching_sets(M)[:-1]:
            search = (p, M) == SEARCH_SCOPE and len(levels) <= SEARCH_MAX_BRANCHING
            r = search_rng if search else rng
            for _ in range(SEARCH_DRAWS if search else draws):
                C = _grow(p, M, levels, lambda i, n: [r.randrange(p) for _ in range(n)])
                out.append((p, M, C))
                out.append((p, M, _perturb(r, p, M, C)))
    rng.shuffle(out)
    return out
