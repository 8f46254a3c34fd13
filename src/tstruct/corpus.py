"""Seeded random corpora for the property suites.

Everything is driven by an explicit ``random.Random`` so a fixed seed
reproduces the same complexes, objects and subsets byte for byte.
Random free complexes are direct sums of stalks and two-term
resolutions disguised by unimodular changes of basis, which reaches
every isomorphism class of bounded free complexes over a principal
ideal domain.  The summands are drawn as plain triples and the sum is
assembled block-diagonally in one pass, so a draw builds and validates
one complex, the one it returns.
"""

from __future__ import annotations

import random

from .elementary import ElementaryModule
from .derived import FormalObject
from .spectrum import ZSubset
from .zmodules import FreeComplex, identity, matmul

DEFAULT_SEED = 987654321
DEFAULT_PRIMES = (2, 3, 5)
# homological degrees of the random objects and complexes
DEGREE_WINDOW = (-3, 3)


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(int(seed) & 0xFFFFFFFFFFFFFFFF)


def random_fg_module(rng: random.Random) -> ElementaryModule:
    """Z^r with r <= 2 plus at most two cyclic p-groups Z/p^e, e <= 3."""
    rank = rng.randint(0, 2)
    torsion = []
    for _ in range(rng.randint(0, 2)):
        torsion.append((rng.choice(DEFAULT_PRIMES), rng.randint(1, 3), 1))
    return ElementaryModule(rank, torsion=tuple(torsion))


def random_fg_object(rng: random.Random) -> FormalObject:
    """Finitely generated homology in at most three degrees."""
    lo, hi = DEGREE_WINDOW
    degs = rng.sample(range(lo, hi + 1), rng.randint(1, 3))
    graded = []
    for d in degs:
        M = random_fg_module(rng)
        if not M.is_zero:
            graded.append((d, M))
    return FormalObject(tuple(graded))


def random_subset_z(rng: random.Random) -> ZSubset:
    roll = rng.random()
    if roll < 0.2:
        return ZSubset.whole()
    chosen = [p for p in DEFAULT_PRIMES if rng.random() < 0.5]
    return ZSubset.finite(chosen)


def random_formal_object(rng: random.Random) -> FormalObject:
    """A formal object in at most three degrees that may carry localized
    and Pruefer atoms."""
    lo, hi = DEGREE_WINDOW
    degs = rng.sample(range(lo, hi + 1), rng.randint(1, 3))
    graded = []
    for d in degs:
        E = ElementaryModule.zero()
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.35:
                E = E + ElementaryModule.free(rng.randint(1, 2))
            elif kind < 0.7:
                E = E + ElementaryModule.cyclic_torsion(
                    rng.choice(DEFAULT_PRIMES), rng.randint(1, 3)
                )
            elif kind < 0.85:
                S = ZSubset.finite([p for p in DEFAULT_PRIMES if rng.random() < 0.5])
                E = E + ElementaryModule.localized_free(S, 1)
            else:
                chosen = [p for p in DEFAULT_PRIMES if rng.random() < 0.5]
                S = ZSubset.finite(chosen or [rng.choice(DEFAULT_PRIMES)])
                E = E + ElementaryModule.prufer_sum(S, 1)
        if not E.is_zero:
            graded.append((d, E))
    return FormalObject(tuple(graded))


# ---------------------------------------------------------------------------
# random free complexes


def _random_unimodular_with_inverse(rng: random.Random, n: int, moves: int):
    """U and its exact inverse, built from the same elementary operations."""
    U = identity(n)
    V = identity(n)  # V = U^{-1}: apply the inverse op on the other side
    for _ in range(moves):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        for k in range(n):
            U[i][k] += c * U[j][k]
        for k in range(n):
            V[k][j] -= c * V[k][i]
    return U, V


def random_free_complex(rng: random.Random) -> FreeComplex:
    """A bounded free complex: at most 6 terms of rank at most 3, with
    entries of absolute value at most 20.

    Each attempt draws one to three summands as ``(degree, rank, entry)``
    triples: ``(d, r, 0)`` for a stalk Z^r in degree d, ``(d, 1, p**e)``
    (e <= 3) for the resolution Z --p**e--> Z ending in degree d.  Ranks
    and length are checked on the triples; then the block-diagonal
    differentials, with the summands in drawn order within each degree,
    are disguised by unimodular changes of basis and validated once, as
    the returned complex.

    >>> X = random_free_complex(rng_from_seed(11))
    >>> all(abs(x) <= 20 for M in X.diffs for row in M for x in row)
    True
    """
    lo, hi = DEGREE_WINDOW
    while True:
        pieces = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(lo + 1, hi)
            if rng.random() < 0.4:
                pieces.append((d, rng.randint(1, 2), 0))
            else:
                p = rng.choice(DEFAULT_PRIMES)
                pieces.append((d, 1, p ** rng.randint(1, 3)))
        start = min(d - 1 if n else d for d, _, n in pieces)
        ranks = [0] * (max(d for d, _, _ in pieces) - start + 1)
        for d, r, n in pieces:
            ranks[d - start] += r
            if n:
                ranks[d - 1 - start] += 1
        if len(ranks) > 6 or any(r > 3 for r in ranks):
            continue
        # the direct sum: the summands' basis vectors in drawn order
        diffs = [[[0] * ranks[k] for _ in range(ranks[k + 1])] for k in range(len(ranks) - 1)]
        filled = [0] * len(ranks)
        for d, r, n in pieces:
            k = d - start
            if n:
                diffs[k - 1][filled[k]][filled[k - 1]] = n
                filled[k - 1] += 1
            filled[k] += r
        # disguise the direct sum by unimodular changes of basis
        us = []
        for r in ranks:
            moves = rng.randint(0, 2 * r)
            us.append(_random_unimodular_with_inverse(rng, r, moves))
        for k, M in enumerate(diffs):
            if ranks[k] and ranks[k + 1]:
                diffs[k] = matmul(matmul(us[k + 1][0], M), us[k][1])
        if any(abs(x) > 20 for M in diffs for row in M for x in row):
            continue
        return FreeComplex.free(start, ranks, diffs)
