"""Elementary modules: the named constructors and ``+`` agree with the
public constructor, which canonicalizes and validates every argument."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from tstruct.corpus import random_formal_object
from tstruct.elementary import ElementaryModule as EM
from tstruct.spectrum import ZSubset, factorint

PRIMES = (2, 3, 5, 7)

prime_sets = st.builds(
    lambda kind, ps: ZSubset.finite(ps) if kind == "finite" else ZSubset.cofinite(ps),
    st.sampled_from(["finite", "cofinite"]),
    st.lists(st.sampled_from(PRIMES), max_size=3),
)

MERSENNE_61 = 2**61 - 1
# Z/n for small n and for products with a 61-bit prime and its square
cyclic_orders = st.builds(
    operator.mul, st.integers(-(10**4), 10**4), st.sampled_from([1, MERSENNE_61, MERSENNE_61**2])
)

# one atom as (named constructor, its arguments); multiplicities may be 0
atoms = st.one_of(
    st.tuples(st.just(EM.free), st.tuples(st.integers(0, 3))),
    st.tuples(st.just(EM.localized_free), st.tuples(prime_sets, st.integers(0, 3))),
    st.tuples(
        st.just(EM.cyclic_torsion),
        st.tuples(st.sampled_from(PRIMES), st.integers(1, 3), st.integers(0, 3)),
    ),
    st.tuples(st.just(EM.prufer_sum), st.tuples(prime_sets, st.integers(0, 3))),
    st.tuples(st.just(EM.cyclic), st.tuples(cyclic_orders)),
)


def public(ctor, args) -> EM:
    """The same atom through the public constructor."""
    if ctor is EM.free:
        return EM(free_rank=args[0])
    if ctor is EM.localized_free:
        s, r = args
        return EM(free_rank=r) if s.is_empty else EM(localized=((s, r),))
    if ctor is EM.cyclic_torsion:
        return EM(torsion=(args,))
    if ctor is EM.cyclic:
        (n,) = args
        if n == 0:
            return EM(free_rank=1)
        return EM(torsion=tuple((p, e, 1) for p, e in factorint(n).items()))
    return EM(prufer=(args,))


def summed(modules) -> EM:
    out = EM.zero()
    for E in modules:
        out = out + E
    return out


def concatenated(A: EM, B: EM) -> EM:
    return EM(
        A.free_rank + B.free_rank,
        A.localized + B.localized,
        A.torsion + B.torsion,
        A.prufer + B.prufer,
    )


def corpus_modules(seed: int):
    X = random_formal_object(random.Random(seed))
    return [E for _, E in X.graded]


@settings(max_examples=300, deadline=None)
@given(atoms)
def test_named_constructors_match_public(atom):
    ctor, args = atom
    assert ctor(*args) == public(ctor, args)


@settings(max_examples=300, deadline=None)
@given(st.lists(atoms, max_size=6), st.lists(atoms, max_size=6))
def test_sum_matches_public_on_hand_built_atoms(left, right):
    A = summed(ctor(*args) for ctor, args in left)
    B = summed(ctor(*args) for ctor, args in right)
    # the whole sum equals one public construction from every raw entry
    assert A == summed(public(ctor, args) for ctor, args in left)
    assert A + B == concatenated(A, B)
    assert A + B == B + A
    assert A + EM.zero() is A and EM.zero() + A is A


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_sum_matches_public_on_corpus_modules(s, t):
    for A in corpus_modules(s):
        # a module built by + is a fixed point of the public constructor
        assert A == EM(A.free_rank, A.localized, A.torsion, A.prufer)
        for B in corpus_modules(t):
            assert A + B == concatenated(A, B)
            assert A + B == B + A
        assert A + EM.zero() is A


@pytest.mark.parametrize(
    "build",
    [
        lambda: EM.free(-1),
        lambda: EM.cyclic_torsion(2, 0),
        lambda: EM.cyclic_torsion(2, 1, -1),
        lambda: EM.localized_free(ZSubset.finite([2]), -1),
        lambda: EM.localized_free(ZSubset.whole(), 1),
        lambda: EM.prufer_sum(ZSubset.finite([2]), -1),
        lambda: EM.prufer_sum(ZSubset.whole(), 1),
    ],
)
def test_named_constructors_reject_what_the_public_one_rejects(build):
    with pytest.raises(ValueError):
        build()


def test_zero_multiplicity_or_empty_set_is_the_interned_zero():
    assert EM.free(0) is EM.zero()
    assert EM.localized_free(ZSubset.finite([2]), 0) is EM.zero()
    assert EM.cyclic_torsion(2, 1, 0) is EM.zero()
    assert EM.prufer_sum(ZSubset.finite([2]), 0) is EM.zero()
    assert EM.prufer_sum(ZSubset.empty(), 2) is EM.zero()


def test_from_json_canonicalizes_outside_input():
    E = EM.from_json(
        {"free": 1, "torsion": [[3, 1, 1], [2, 2, 1], [3, 1, 2], [5, 1, 0]]}
    )
    assert E.torsion == ((2, 2, 1), (3, 1, 3))
    assert E == EM.free(1) + EM.cyclic_torsion(2, 2) + EM.cyclic_torsion(3, 1, 3)
