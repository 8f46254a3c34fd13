import pytest
from hypothesis import given, settings, strategies as st

from tstruct.spectrum import (
    SPEC_Z,
    CodimFn,
    FinPoset,
    PosetSubset,
    SpecZPoint,
    ZSubset,
    all_up_sets,
    connected_components,
    fresh_prime,
    immediate_generalizations,
    is_connected,
    is_open_closed,
    is_prime,
    krull_dimension,
    minimal_points,
    sample_points,
    specialization_closure,
    spectrum_from_json,
    subset_from_json,
    validate_codim_fn,
    zpoint,
)

CHAIN3 = FinPoset("abc", [("a", "b"), ("b", "c")])


def test_point_validation():
    assert SpecZPoint(0).is_generic
    assert str(SpecZPoint(7)) == "(7)"
    with pytest.raises(ValueError):
        SpecZPoint(6)
    with pytest.raises(ValueError):
        SpecZPoint(2**63 + 9)
    assert is_prime(2**61 - 1)


@pytest.mark.parametrize("bad", [1, 4, -3, 2**64])
def test_contains_rejects_non_points(bad):
    # zpoint caches accepted points only, so a refusal repeats on every call
    for Z in (ZSubset.whole(), ZSubset.finite([2, 3]), ZSubset.cofinite([5])):
        for _ in range(2):
            with pytest.raises(ValueError):
                Z.contains(bad)
    with pytest.raises(ValueError):
        zpoint(bad)


def test_the_generic_point_is_no_subset_prime():
    # a set of maximal ideals holding only the generic point would be
    # nonempty yet contain no point
    for build in (ZSubset.finite, ZSubset.cofinite):
        with pytest.raises(ValueError, match="got 0"):
            build([0])
        with pytest.raises(ValueError, match="got 0"):
            build([2, 0])


def test_equal_subsets_hash_equal_however_built():
    # the hash is computed once per value, from the canonical data only
    two_three = ZSubset.finite([3, 2])
    built = [
        ZSubset.finite([2, 3]),
        ZSubset.finite([3, 2, 3]),
        ZSubset.finite([2, 3, 5]).meet(ZSubset.cofinite([5, 7])),
        ZSubset.finite([2]).join(ZSubset.finite([3])),
        ZSubset.finite([2, 3, 7]).minus(ZSubset.finite([7])),
        ZSubset.whole().minus(ZSubset.cofinite([2, 3])),
    ]
    table = {two_three: "two-three"}
    for Z in built:
        assert Z == two_three and hash(Z) == hash(two_three)
        assert table[Z] == "two-three"
    whole = [
        ZSubset.whole(),
        ZSubset.finite([2]).join(ZSubset.whole()),
        ZSubset.cofinite([2]).join(ZSubset.whole()),
    ]
    cofinite = [
        ZSubset.cofinite([5, 2]),
        ZSubset.cofinite([2]).meet(ZSubset.cofinite([5])),
        ZSubset.whole().minus(ZSubset.finite([2, 5])),
    ]
    for group in (whole, cofinite):
        assert len({hash(Z) for Z in group}) == 1 and len(set(group)) == 1
    assert ZSubset.finite([2]) != ZSubset.cofinite([2])
    assert len({ZSubset.empty(), ZSubset.cofinite([]), ZSubset.whole()}) == 3


def test_contains_on_integers_and_points():
    big = 2**61 - 1
    inside = {
        ZSubset.whole(): {0, 2, 3, 5, 7, big},
        ZSubset.finite([2, 3]): {2, 3},
        ZSubset.cofinite([5]): {2, 3, 7, big},
    }
    for Z, points in inside.items():
        for p in (0, 2, 3, 5, 7, big):
            assert Z.contains(p) == Z.contains(SpecZPoint(p)) == (p in points)


def test_poset_validation():
    with pytest.raises(ValueError):
        FinPoset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        # (a, c) is transitively implied, not a covering pair
        FinPoset("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(ValueError):
        FinPoset("ab", [("a", "z")])


def test_specialization_closure():
    assert specialization_closure({"a"}, CHAIN3).points == frozenset("abc")
    assert specialization_closure({SpecZPoint(0)}, SPEC_Z) == ZSubset.whole()
    assert specialization_closure([2, 5], SPEC_Z) == ZSubset.finite([2, 5])
    closed = specialization_closure({"b"}, CHAIN3)
    assert specialization_closure(closed.points, CHAIN3) == closed  # idempotent
    with pytest.raises(ValueError):
        specialization_closure({"zz"}, CHAIN3)


def test_immediate_generalizations():
    assert immediate_generalizations(2, SPEC_Z) == frozenset({SpecZPoint(0)})
    assert immediate_generalizations(0, SPEC_Z) == frozenset()
    vee = FinPoset("abc", [("a", "c"), ("b", "c")])
    assert immediate_generalizations("c", vee) == frozenset({"a", "b"})
    assert immediate_generalizations("a", vee) == frozenset()


def test_is_open_closed():
    assert is_open_closed(ZSubset.whole()) == (True, None)
    ok, witness = is_open_closed(ZSubset.finite([2]))
    assert not ok and witness == (SpecZPoint(2), SpecZPoint(0))
    assert is_open_closed(ZSubset.empty()) == (True, None)
    # the least named prime of a finite set, the fresh prime of a cofinite one
    assert is_open_closed(ZSubset.finite([5, 3])) == (False, (SpecZPoint(3), SpecZPoint(0)))
    assert is_open_closed(ZSubset.cofinite([3])) == (False, (SpecZPoint(2), SpecZPoint(0)))
    assert is_open_closed(ZSubset.cofinite([2, 3])) == (False, (SpecZPoint(5), SpecZPoint(0)))
    # a whole chain inside a disjoint union of two chains is open-closed
    two_chains = FinPoset("abcd", [("a", "b"), ("c", "d")])
    assert is_open_closed(PosetSubset(two_chains, frozenset("ab")))[0]
    assert not is_open_closed(PosetSubset(two_chains, frozenset("b")))[0]
    # brute force: open-closed iff union of connected components
    comps = connected_components(two_chains)
    for U in all_up_sets(two_chains):
        expected = all(not (U.points & c) or c <= U.points for c in comps)
        assert is_open_closed(U)[0] == expected


def test_connected_components():
    parts = connected_components(FinPoset("abc", [("a", "b")]))
    assert sorted(sorted(c) for c in parts) == [["a", "b"], ["c"]]
    assert connected_components(FinPoset([], [])) == []
    # Spec(Z) through its sample: the generic point and one fresh prime
    assert connected_components(SPEC_Z) == [frozenset({SpecZPoint(0), SpecZPoint(2)})]
    assert is_connected(SPEC_Z) and not is_connected(FinPoset("ab", []))


def test_spec_z_points_read_from_printed_forms():
    for form in (0, "0", "(0)", SpecZPoint(0)):
        assert SPEC_Z.check_point(form) == SpecZPoint(0)
    for form in (7, "7", "(7)", SpecZPoint(7)):
        assert SPEC_Z.check_point(form) == SpecZPoint(7)
    with pytest.raises(ValueError, match="not a point of Spec"):
        SPEC_Z.check_point("abc")
    with pytest.raises(ValueError, match="not a prime"):
        SPEC_Z.check_point("(4)")


def test_codim_validation():
    assert validate_codim_fn(CodimFn.for_specz(0, 1)) == (True, None)
    assert validate_codim_fn(CodimFn.for_specz(3, 4)) == (True, None)
    assert not validate_codim_fn(CodimFn.for_specz(0, 2))[0]
    P = FinPoset("ab", [("a", "b")])
    ok, witness = validate_codim_fn(CodimFn.for_poset(P, {"a": 0, "b": 2}))
    assert not ok and witness == ("a", "b")
    single = FinPoset(["x"], [])
    assert validate_codim_fn(CodimFn.for_poset(single, {"x": 5}))[0]
    with pytest.raises(ValueError):
        CodimFn.for_poset(P, {"a": 0})


def test_krull_dimension_and_minimal():
    assert krull_dimension(SPEC_Z) == 1
    assert minimal_points(SPEC_Z) == frozenset({SpecZPoint(0)})
    chain4 = FinPoset("wxyz", [("w", "x"), ("x", "y"), ("y", "z")])
    assert krull_dimension(chain4) == 3
    anti = FinPoset("abc", [])
    assert krull_dimension(anti) == 0
    assert minimal_points(anti) == frozenset("abc")


def test_up_set_enumeration():
    assert len(all_up_sets(CHAIN3)) == 4  # chains have n+1 up-sets
    with pytest.raises(ValueError):
        all_up_sets(CHAIN3, cap=3)


small_prime = st.sampled_from([2, 3, 5, 7, 11])
zsubsets = st.one_of(
    st.just(ZSubset.whole()),
    st.sets(small_prime, max_size=4).map(ZSubset.finite),
    st.sets(small_prime, max_size=4).map(ZSubset.cofinite),
)


@given(zsubsets, zsubsets)
@settings(max_examples=200, deadline=None)
def test_zsubset_algebra_laws(A, B):
    assert A.meet(B) == B.meet(A)
    assert A.join(B) == B.join(A)
    assert A.meet(B).issubset(A) and A.meet(B).issubset(B)
    assert A.issubset(A.join(B)) and B.issubset(A.join(B))
    assert A.minus(B).meet(B).is_empty
    if not A.is_whole:
        assert A.minus(B).join(A.meet(B)) == A
    else:
        # set difference stays among maximal ideals, so rejoining loses
        # the generic point exactly when B misses it
        rejoined = A.minus(B).join(A.meet(B))
        assert rejoined == (A if B.is_whole else ZSubset.cofinite([]))
    # membership is consistent with the predicates
    for p in (2, 3, 5, 7, 11, 13):
        assert A.meet(B).contains(p) == (A.contains(p) and B.contains(p))
        assert A.join(B).contains(p) == (A.contains(p) or B.contains(p))
        assert A.minus(B).contains(p) == (A.contains(p) and not B.contains(p))


@given(zsubsets, zsubsets)
@settings(max_examples=200, deadline=None)
def test_zsubset_inclusion_via_membership(A, B):
    witnessable = [2, 3, 5, 7, 11, 13, 17]
    if A.issubset(B):
        assert all(B.contains(p) for p in witnessable if A.contains(p))
        assert not (A.contains_generic and not B.contains_generic)


def test_json_round_trips():
    assert spectrum_from_json(CHAIN3.to_json()) == CHAIN3
    assert spectrum_from_json(SPEC_Z.to_json()) == SPEC_Z
    for s in (ZSubset.whole(), ZSubset.finite([2, 5]), ZSubset.cofinite([3])):
        assert subset_from_json(s.to_json(), SPEC_Z) == s
    U = PosetSubset(CHAIN3, frozenset("bc"))
    assert subset_from_json(U.to_json(), CHAIN3) == U
    assert subset_from_json({"kind": "whole"}, CHAIN3) == PosetSubset(CHAIN3, frozenset("abc"))
    # each model reads only its own subset kinds, and says which it is
    with pytest.raises(ValueError, match="Spec\\(Z\\) has no subset of kind 'points'"):
        subset_from_json(U.to_json(), SPEC_Z)
    with pytest.raises(ValueError, match="finite poset has no subset of kind 'finite'"):
        subset_from_json(ZSubset.finite([2]).to_json(), CHAIN3)


def test_up_set_invariant_rejected():
    with pytest.raises(ValueError):
        PosetSubset(CHAIN3, frozenset("a"))  # not closed upward


# -- the finite sample of Spec(Z) ---------------------------------------------

PRIMES_BELOW_30 = [p for p in range(30) if is_prime(p)]
sample_prime_sets = st.frozensets(st.sampled_from(PRIMES_BELOW_30), max_size=6)
sampled_subsets = st.one_of(
    st.just(ZSubset.whole()),
    sample_prime_sets.map(ZSubset.finite),
    sample_prime_sets.map(ZSubset.cofinite),
)


def _reference_sample(level, named):
    """The sample as first written for orthogonality witnesses: the
    generic point of a whole level, the named primes it contains, and
    the least unnamed prime unless the level is finite."""
    pts = [SpecZPoint(0)] if level.is_whole else []
    named = set(named) | set(level.primes)
    pts += [SpecZPoint(p) for p in sorted(named) if level.contains(p)]
    if level.is_whole or level.kind == "cofinite":
        fresh = 2
        while fresh in named:
            fresh += 1
            while not is_prime(fresh):
                fresh += 1
        pts.append(SpecZPoint(fresh))
    return tuple(pts)


@given(sampled_subsets, sample_prime_sets)
@settings(max_examples=300, deadline=None)
def test_sample_points_stand_for_the_subset(Z, named):
    sample = sample_points(Z, named)
    assert sample == _reference_sample(Z, named)
    assert all(Z.contains(pt) for pt in sample)
    assert (SpecZPoint(0) in sample) == Z.is_whole
    fresh = fresh_prime(named | Z.primes)
    for q in range(60):
        if is_prime(q) and q not in named | Z.primes:
            assert Z.contains(q) == Z.contains(fresh)


@given(sample_prime_sets)
@settings(max_examples=200, deadline=None)
def test_fresh_prime_is_the_least_unnamed_prime(named):
    p = fresh_prime(named)
    assert is_prime(p) and p not in named
    assert all(q in named for q in range(2, p) if is_prime(q))
