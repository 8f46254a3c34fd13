import pytest
from hypothesis import given, settings, strategies as st

from tstruct.corpus import (
    random_formal_object,
    random_free_complex,
    random_subset_z,
    rng_from_seed,
)
from tstruct.derived import (
    FormalObject,
    from_free_complex,
    gamma_and_r1,
    in_aisle,
    in_coaisle,
    orthogonality_check,
    generator_reduction_crosscheck,
    q_localize,
    rgamma,
    rq,
    stalk_maps_vanish,
    tau_filtration,
    tau_single,
    torsion_quotient,
    cousin_failure_witness,
)
from tstruct.elementary import ElementaryModule as EM
from tstruct.filtration import (
    canonical_filtration,
    constant_filtration,
    from_values,
    localize,
    step_filtration,
)
from tstruct.spectrum import SPEC_Z, ZSubset
from tstruct.zmodules import FreeComplex

W = ZSubset.whole()
E = ZSubset.empty()


def zf(*ps):
    return ZSubset.finite(ps)


def obj(**kw):
    return FormalObject(tuple((d, e) for d, e in kw.items()))


Z_STALK = FormalObject.free_stalk(1, 0)
REPEATED_LEVEL = from_values(SPEC_Z, {0: zf(2), 1: zf(2)}, zf(2), E)
CANONICAL = canonical_filtration(SPEC_Z)


def test_from_free_complex():
    assert str(from_free_complex(FreeComplex.koszul([2]))) == "{0: Z/2}"
    assert from_free_complex(FreeComplex.stalk_free(1, 0)) == Z_STALK
    acyclic = FreeComplex.free(0, (1, 1), (((1,),),))
    assert from_free_complex(acyclic).is_zero


def test_from_free_complex_refuses_inverted_labels():
    X = FreeComplex(0, ((ZSubset.empty(),), (ZSubset.finite([2]),)), (((1,),),))
    with pytest.raises(ValueError, match="inverted summands"):
        from_free_complex(X)


def test_gamma_rules():
    g, r1 = gamma_and_r1(zf(2), EM.free(1))
    assert g.is_zero and r1 == EM.prufer_sum(zf(2), 1)
    g, r1 = gamma_and_r1(zf(2), EM.cyclic_torsion(2, 2))
    assert g == EM.cyclic_torsion(2, 2) and r1.is_zero
    any_mod = EM.free(2) + EM.cyclic_torsion(3, 1)
    assert gamma_and_r1(W, any_mod) == (any_mod, EM.zero())
    g, r1 = gamma_and_r1(zf(2), EM.localized_free(zf(3), 1))
    assert g.is_zero and r1 == EM.prufer_sum(zf(2), 1)
    g, r1 = gamma_and_r1(zf(2), EM.localized_free(zf(2), 1))
    assert g.is_zero and r1.is_zero
    g, r1 = gamma_and_r1(zf(2, 3), EM.prufer_sum(zf(3, 5), 1))
    assert g == EM.prufer_sum(zf(3), 1) and r1.is_zero


def test_rgamma_rq_fixtures():
    assert str(rgamma(zf(2), Z_STALK)) == "{1: Z(2^oo)}"
    assert str(rgamma(zf(2, 3), FormalObject.cyclic_stalk(6, 0))) == "{0: Z/2 + Z/3}"
    assert rgamma(E, Z_STALK).is_zero
    assert str(rq(zf(2), Z_STALK)) == "{0: Z[1/2]}"
    assert rq(zf(2), FormalObject.cyclic_stalk(2, 0)).is_zero
    assert rq(E, Z_STALK) == Z_STALK
    assert rq(W, Z_STALK).is_zero
    # localization rules on atoms
    assert q_localize(zf(2), EM.localized_free(zf(3), 1)) == EM.localized_free(zf(2, 3), 1)
    assert q_localize(zf(2), EM.prufer_sum(zf(2, 3), 1)) == EM.prufer_sum(zf(3), 1)


def test_tau_single_fixtures():
    lo, up = tau_single(0, zf(2), Z_STALK)
    assert lo.is_zero and up == Z_STALK
    lo, up = tau_single(1, zf(2), Z_STALK)
    assert str(lo) == "{1: Z(2^oo)}" and str(up) == "{0: Z[1/2]}"
    inside = FormalObject.cyclic_stalk(4, -1)
    lo, up = tau_single(0, zf(2), inside)
    assert lo == inside and up.is_zero


def test_tau_filtration_fixtures():
    f = from_values(SPEC_Z, {1: zf(2, 3)}, W, E)
    lo, up = tau_filtration(f, Z_STALK)
    assert lo == Z_STALK and up.is_zero
    lo, up = tau_filtration(REPEATED_LEVEL, Z_STALK)
    assert str(lo) == "{1: Z(2^oo)}" and str(up) == "{0: Z[1/2]}"
    assert not lo.is_fg and not up.is_fg
    inside = obj(**{})  # zero object
    lo, up = tau_filtration(REPEATED_LEVEL, inside)
    assert lo.is_zero and up.is_zero
    # object already in the aisle by supports
    member = FormalObject.cyclic_stalk(2, 1)
    lo, up = tau_filtration(REPEATED_LEVEL, member)
    assert lo == member and up.is_zero


def test_tau_constant_filtration():
    const = constant_filtration(SPEC_Z, zf(2))
    lo, up = tau_filtration(const, Z_STALK)
    assert str(lo) == "{1: Z(2^oo)}" and str(up) == "{0: Z[1/2]}"
    lo2, up2 = tau_filtration(const, lo)
    assert lo2 == lo and up2.is_zero


def test_membership_fixtures():
    f = from_values(SPEC_Z, {1: zf(2)}, W, E)
    assert in_aisle(f, FormalObject.cyclic_stalk(2, 1))
    assert not in_aisle(f, FormalObject.cyclic_stalk(3, 1))
    assert in_aisle(CANONICAL, Z_STALK)
    assert not in_aisle(CANONICAL, FormalObject.free_stalk(1, 1))
    assert in_coaisle(CANONICAL, FormalObject.free_stalk(1, 1))
    assert in_aisle(CANONICAL, FormalObject.zero())
    assert in_coaisle(CANONICAL, FormalObject.zero())
    # localized homology in degree 0 is not finitely supported: needs Whole
    assert not in_aisle(
        from_values(SPEC_Z, {0: ZSubset.cofinite([])}, W, E),
        FormalObject.stalk(EM.localized_free(zf(2), 1), 0),
    )


def test_truncation_contract_and_idempotence():
    for f in (REPEATED_LEVEL, CANONICAL, from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)):
        for X in (
            Z_STALK,
            obj(**{}),
            FormalObject.cyclic_stalk(12, 0) + FormalObject.free_stalk(2, -1),
        ):
            lo, up = tau_filtration(f, X)
            assert in_aisle(f, lo)
            assert in_coaisle(f, up)
            assert orthogonality_check(f, up, (-5, 5)).holds
            again_lo, again_up = tau_filtration(f, lo)
            assert again_lo == lo and again_up.is_zero
            again_lo, again_up = tau_filtration(f, up)
            assert again_lo.is_zero and again_up == up


def test_euler_characteristic_conservation():
    # degreewise rational rank is conserved when all vertices are fg
    f = from_values(SPEC_Z, {0: W, 1: zf(2), 2: zf(2)}, W, E)
    X = FormalObject.free_stalk(2, 0) + FormalObject.cyclic_stalk(4, 2)
    lo, up = tau_filtration(f, X)
    assert lo.is_fg and up.is_fg
    for d in range(-3, 5):
        total = lo.component(d).rational_rank + up.component(d).rational_rank
        assert total == X.component(d).rational_rank


def test_orthogonality_fixtures():
    f = from_values(SPEC_Z, {1: zf(2)}, zf(2), E)
    half = FormalObject.stalk(EM.localized_free(zf(2), 1), 0)
    assert orthogonality_check(f, half, (-3, 3)).holds
    rep = orthogonality_check(CANONICAL, Z_STALK, (-3, 3))
    assert not rep.holds
    assert ("0", 0, 0, "Z") in rep.witnesses
    assert orthogonality_check(CANONICAL, FormalObject.zero(), (-3, 3)).holds


def _reference_witnesses(filtration, Y, window):
    """orthogonality_check's witnesses from the full Hom/Ext groups: every
    generator point of every level against every degree of Y."""
    from tstruct.derived import _generator_module
    from tstruct.spectrum import GENERIC, SpecZPoint, next_prime
    from tstruct.zmodules import hom_ext_tables

    witnesses = []
    boundary_ext = 0  # nonzero Ext^1 at b - i == 0, where it must not count
    for i in range(window[0], window[1] + 1):
        level = filtration.value(i)
        if level.is_empty:
            continue
        pts = [SpecZPoint(GENERIC)] if level.is_whole else []
        named = set(Y.mentioned_primes()) | set(level.primes)
        pts += [SpecZPoint(p) for p in sorted(named) if level.contains(p)]
        if level.is_whole or level.kind == "cofinite":
            fresh = 2
            while fresh in named:
                fresh = next_prime(fresh)
            pts.append(SpecZPoint(fresh))
        for pt in pts:
            G = _generator_module(pt)
            for b, comp in Y.graded:
                hom, ext = hom_ext_tables(G, comp)
                for m, group in ((b - i, hom), (b - i + 1, ext)):
                    if m <= 0 and not group.is_zero:
                        witnesses.append((str(pt), i, m, str(group)))
                boundary_ext += b == i and not ext.is_zero
    return tuple(witnesses), boundary_ext


def test_orthogonality_witnesses_match_table_reference():
    from tstruct.corpus import (
        random_formal_object,
        random_free_complex,
        rng_from_seed,
    )
    from tstruct.filtration import enumerate_weak_cousin

    census = enumerate_weak_cousin(SPEC_Z, (-3, 3), universe=(2, 3, 5), cap=10_000_000)
    rng = rng_from_seed(20261018)
    objects = []
    for _ in range(10):
        objects.append(from_free_complex(random_free_complex(rng)))
        objects.append(random_formal_object(rng))
    window = (-4, 4)
    holds = fails = hom_at_boundary = boundary_ext = 0
    for k, f in enumerate(census):
        # the upper truncation vertex of an f.g. object is orthogonal
        targets = objects + [tau_filtration(f, objects[2 * (k % 10)]).upper]
        for Y in targets:
            rep = orthogonality_check(f, Y, window)
            want, ext_skipped = _reference_witnesses(f, Y, window)
            assert rep.witnesses == want, (str(f), str(Y))
            assert rep.holds == (not want)
            holds += rep.holds
            fails += not rep.holds
            hom_at_boundary += any(w[2] == 0 for w in want)
            boundary_ext += ext_skipped
    assert holds > 0 and fails > 0
    assert hom_at_boundary > 0 and boundary_ext > 0


def test_shift_equivariance():
    X = FormalObject.cyclic_stalk(8, 0) + FormalObject.free_stalk(1, 1)
    res = tau_filtration(REPEATED_LEVEL, X)
    for s in (-2, 1, 3):
        shifted = tau_filtration(REPEATED_LEVEL.shift(-s), X.shift(s))
        assert shifted.lower == res.lower.shift(s)
        assert shifted.upper == res.upper.shift(s)


def test_generator_reduction_fixtures():
    half = FormalObject.stalk(EM.localized_free(zf(2), 1), 0)
    rep = generator_reduction_crosscheck(FreeComplex.koszul([2]), half)
    assert rep.agree and rep.via_hom_complex and rep.via_stalk_generators
    rep = generator_reduction_crosscheck(FreeComplex.stalk_free(1, 0), Z_STALK)
    assert rep.agree and not rep.via_hom_complex
    acyclic = FreeComplex.free(0, (1, 1), (((1,),),))
    rep = generator_reduction_crosscheck(acyclic, Z_STALK)
    assert rep.agree and rep.via_hom_complex


def test_stalk_maps_vanish_fixtures():
    # Z/2 -> Z: no Hom, but Ext^1 = Z/2, which counts only one degree up
    Z2 = EM.cyclic_torsion(2, 1)
    assert stalk_maps_vanish(Z2, 0, Z_STALK)
    assert not stalk_maps_vanish(Z2, 1, Z_STALK)
    assert not stalk_maps_vanish(EM.free(1), 0, Z_STALK)
    assert stalk_maps_vanish(EM.free(1), -1, Z_STALK)
    assert stalk_maps_vanish(Z2, 0, FormalObject.zero())


@given(st.integers(0, 2**32), st.sampled_from([2, 3, 5, 7]), st.integers(-3, 3))
@settings(max_examples=150, deadline=None)
def test_stalk_maps_vanish_matches_orthogonality(seed, p, a):
    # the generator of the single point (p) in degree a, read both ways
    Y = random_formal_object(rng_from_seed(seed))
    f = step_filtration(SPEC_Z, a, zf(p))
    assert stalk_maps_vanish(EM.cyclic_torsion(p, 1), a, Y) == (
        orthogonality_check(f, Y, (a, a)).holds
    )


def test_cousin_failure_witness_fixtures():
    rep = cousin_failure_witness(0, 2, 1, REPEATED_LEVEL)
    assert rep.holds
    assert str(rep.lower) == "{1: Z(2^oo)}"
    assert str(rep.upper) == "{0: Z[1/2]}"
    assert rep.offending
    # one degree lower with (3): everything shifts by one
    f3 = from_values(SPEC_Z, {-1: zf(3), 0: zf(3)}, zf(3), E)
    rep3 = cousin_failure_witness(0, 3, 0, f3)
    assert rep3.holds
    assert str(rep3.lower) == "{0: Z(3^oo)}"
    assert str(rep3.upper) == "{-1: Z[1/3]}"
    with pytest.raises(ValueError):
        cousin_failure_witness(0, 3, 1, REPEATED_LEVEL)  # (3) not in level 1
    with pytest.raises(ValueError):
        cousin_failure_witness(0, 2, 0, canonical_filtration(SPEC_Z))  # generic in level -1


def test_localization_membership_is_pointwise():
    f = from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)
    X = FormalObject.cyclic_stalk(2, 1)
    assert in_aisle(f, X)
    loc = localize(f, 2)
    assert loc.value(1).points == frozenset({"(2)"})
    # the support of X localized at (3) is empty, so membership holds there
    loc3 = localize(f, 3)
    assert loc3.value(1).is_empty


def test_radical_invariance_of_generators():
    # generators for an ideal and for its radical see the same objects
    from tstruct.zmodules import hom_ext_tables

    targets = [
        FormalObject.stalk(EM.localized_free(zf(2), 1), 0),
        FormalObject.cyclic_stalk(3, 0),
        FormalObject.free_stalk(1, 0),
        FormalObject.stalk(EM.prufer_sum(zf(2), 1), 1),
    ]
    for m, rad in ((4, 2), (8, 2), (12, 6), (18, 6)):
        for Y in targets:
            for i in range(-3, 4):
                verdicts = []
                for gen in (m, rad):
                    G = EM.cyclic(gen)
                    ok = True
                    for b, comp in Y.graded:
                        hom, ext = hom_ext_tables(G, comp)
                        for mm, group in ((b - i, hom), (b - i + 1, ext)):
                            if mm <= 0 and not group.is_zero:
                                ok = False
                    verdicts.append(ok)
                assert verdicts[0] == verdicts[1], (m, rad, str(Y), i)


def test_large_primes_stay_exact():
    # the spectrum admits any 64-bit prime; arithmetic must stay exact
    from tstruct.cech import validate_rgamma, validate_rq, validate_tau_filtration
    from tstruct.duality import cm_membership, codim_from_dualizing
    from tstruct.zmodules import FreeComplex

    big = 2**61 - 1
    assert codim_from_dualizing(big) == 1
    f = from_values(SPEC_Z, {0: zf(big), 1: zf(big)}, zf(big), E)
    rep = cousin_failure_witness(0, big, 1, f)
    assert rep.holds
    assert str(rep.upper) == "{0: Z[1/%d]}" % big
    X = FreeComplex.cyclic_resolution(big, 0)
    assert validate_rgamma(zf(big), X).ok
    assert validate_rq(zf(big), X).ok
    assert validate_tau_filtration(f, FormalObject.free_stalk(1, 0)).ok
    assert cm_membership(FormalObject.cyclic_stalk(big, 0))


# -- the truncation-step memo and the canonical constructor -------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_memoized_steps_and_canonical_constructor_match_checked(seed):
    tau_single.cache_clear()
    rng = rng_from_seed(seed)
    X = random_formal_object(rng)
    Z = random_subset_z(rng)
    for i in range(-4, 5):
        got = tau_single(i, Z, X)
        want = tau_single.__wrapped__(i, Z, X)
        assert (got.lower, got.upper) == (want.lower, want.upper)
        assert X.shift(i) == FormalObject(tuple((d - i, M) for d, M in X.graded))
        assert X.truncate_below(i) == FormalObject(
            tuple((d, M) for d, M in X.graded if d <= i)
        )
        for G in (X.shift(i), X.truncate_below(i), got.lower, got.upper,
                  rgamma(Z, X), rq(Z, X)):
            assert FormalObject._canonical(G.graded) == G == FormalObject(G.graded)
    # the second sweep is read from the memo
    for i in range(-4, 5):
        assert tau_single(i, Z, X) == tau_single.__wrapped__(i, Z, X)
    assert tau_single.cache_info().hits >= 9
    zero = FormalObject.zero()
    assert X + zero is X and zero + X is X
    Y = random_formal_object(rng)
    assert X + Y == FormalObject(X.graded + Y.graded)


def _tau_single_reference(i, Z, X):
    """The one-level truncation assembled part by part and merged by the
    public constructor."""
    lower, upper = [], []
    for d, M in X.graded:
        g, r1 = gamma_and_r1(Z, M)
        if d + 1 <= i:
            lower += [(d, g), (d + 1, r1)]
            upper.append((d, q_localize(Z, M)))
        elif d <= i:
            lower.append((d, g))
            upper.append((d, torsion_quotient(Z, M)))
        else:
            upper.append((d, M))
    return FormalObject(tuple(lower)), FormalObject(tuple(upper))


TAU_LEVELS = (E, zf(2), zf(3, 5), ZSubset.cofinite([2]), ZSubset.cofinite([]), W)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_tau_single_matches_merged_reference(seed):
    # formal objects with non-f.g. atoms and homology of free complexes,
    # at the empty, a finite, a cofinite, the all-maximals and the whole
    # level, cut below, at and above each degree
    tau_single.cache_clear()
    rng = rng_from_seed(seed)
    for X in (random_formal_object(rng), from_free_complex(random_free_complex(rng))):
        cuts = {d + k for d in X.degrees() for k in (-1, 0, 1)} or {0}
        for Z in TAU_LEVELS:
            for i in sorted(cuts):
                got = tau_single(i, Z, X)
                assert (got.lower, got.upper) == _tau_single_reference(i, Z, X)
                for v in got:
                    assert FormalObject(v.graded).graded == v.graded


def test_truncation_memo_is_bounded():
    assert 64 <= tau_single.cache_info().maxsize < float("inf")
