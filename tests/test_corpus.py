"""The random free complex generator against its reference construction."""

from tstruct.corpus import (
    DEFAULT_PRIMES,
    DEFAULT_SEED,
    DEGREE_WINDOW,
    _random_unimodular_with_inverse,
    random_free_complex,
    rng_from_seed,
)
from tstruct.zmodules import FreeComplex, direct_sum, matmul


def reference_free_complex(rng, rejections):
    """The generator built from validated pieces: stalks and two-term
    resolutions as complexes, left-folded with ``direct_sum``, then
    disguised by unimodular changes of basis.  ``rejections`` counts
    the attempts refused for their ranks or length and for their
    entries."""
    lo, hi = DEGREE_WINDOW
    while True:
        pieces = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(lo + 1, hi)
            if rng.random() < 0.4:
                pieces.append(FreeComplex.stalk_free(rng.randint(1, 2), d))
            else:
                p = rng.choice(DEFAULT_PRIMES)
                e = rng.randint(1, 3)
                pieces.append(FreeComplex.cyclic_resolution(p**e, d))
        X = FreeComplex.zero()
        for piece in pieces:
            X = direct_sum(X, piece)
        ranks = X.ranks
        if len(ranks) > 6 or any(r > 3 for r in ranks):
            rejections["ranks"] += 1
            continue
        us = []
        for r in ranks:
            moves = rng.randint(0, 2 * r)
            us.append(_random_unimodular_with_inverse(rng, r, moves))
        diffs = []
        for k in range(len(ranks) - 1):
            M = X.diff_at(X.min_degree + k)
            if ranks[k] and ranks[k + 1]:
                M = matmul(matmul(us[k + 1][0], M), us[k][1])
            diffs.append(tuple(tuple(row) for row in M))
        if any(abs(x) > 20 for M in diffs for row in M for x in row):
            rejections["entries"] += 1
            continue
        return FreeComplex.free(X.min_degree, ranks, tuple(diffs))


def test_draws_match_the_direct_sum_construction():
    rejections = {"ranks": 0, "entries": 0}
    for seed in [DEFAULT_SEED, *range(200)]:
        rng, ref = rng_from_seed(seed), rng_from_seed(seed)
        for _ in range(50):
            assert random_free_complex(rng) == reference_free_complex(ref, rejections)
            assert rng.getstate() == ref.getstate()
    # both refusals happen, so both are compared
    assert rejections["ranks"] > 0 and rejections["entries"] > 0


def test_one_complex_built_per_draw(monkeypatch):
    built = []
    post_init = FreeComplex.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FreeComplex, "__post_init__", counting)
    rng = rng_from_seed(DEFAULT_SEED)
    draws = [random_free_complex(rng) for _ in range(200)]
    assert len(built) == len(draws)
    assert all(a is b for a, b in zip(built, draws))

