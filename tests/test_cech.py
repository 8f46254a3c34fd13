from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from functools import lru_cache

from tstruct.cech import (
    _gamma_module,
    _integral_homology_mod,
    _quotient_module,
    cech_model,
    check_object,
    clear_caches,
    fingerprints,
    formal_object_model,
    rq_model_complex,
    tensor,
    validate_rgamma,
    validate_rq,
    validate_tau_filtration,
)
from tstruct.corpus import (
    DEFAULT_PRIMES,
    random_formal_object,
    random_free_complex,
    random_subset_z,
    rng_from_seed,
)
from tstruct import cech, derived, zmodules
from tstruct.derived import FormalObject, TruncationResult, from_free_complex, rgamma
from tstruct.duality import DUALIZING
from tstruct.elementary import ElementaryModule as EM
from tstruct.filtration import (
    canonical_filtration,
    cm_filtration,
    constant_filtration,
    enumerate_census_class,
    from_values,
    step_filtration,
    weak_cousin,
)
from tstruct.spectrum import SPEC_Z, ZSubset, fresh_prime
from tstruct.suites import Z_WINDOW, _census_z
from tstruct.zmodules import FreeComplex, homology, zeros

W = ZSubset.whole()
E = ZSubset.empty()


def zf(*ps):
    return ZSubset.finite(ps)


def test_model_shapes():
    C = cech_model(zf(2, 3))
    assert [len(C.labels_at(d)) for d in C.degrees()] == [1, 1]
    assert C.labels_at(1) == (zf(2, 3),)
    assert cech_model(W).labels_at(0) == (E,)
    assert cech_model(E).is_zero
    Q = rq_model_complex(zf(2))
    # terms Z in degree -1 and Z[1/2] (+) Z in degree 0, exact model of Z[1/2]
    assert [len(Q.labels_at(d)) for d in Q.degrees()] == [1, 2]
    assert rq_model_complex(W).is_zero
    assert rq_model_complex(E).labels_at(0) == (E,)


def test_empty_rows_trim_to_the_zero_complex():
    C = FreeComplex(3, ((), (), ()), ((), ()))
    assert C.labels == () and C.min_degree == 0 and C.is_zero
    # an empty row between nonempty ones stays, and the complex is not zero
    D = FreeComplex(
        -1, ((), (E,), (), (E,), ()), (((),), (), ((),), ())
    )
    assert D.min_degree == 0 and len(D.labels) == 3 and not D.is_zero
    assert D._at(5).min_degree == 5 and not D._at(5).is_zero
    # the free and JSON spellings trim zero-rank ends the same way
    assert FreeComplex.stalk_free(0, 5) == FreeComplex.zero()
    X = FreeComplex.from_json({"minDeg": 0, "ranks": [0, 1], "diffs": [[[]]]})
    assert X == FreeComplex.stalk_free(1, 1)
    assert X.to_json() == {"minDeg": 1, "ranks": [1], "diffs": []}


def test_label_discipline():
    with pytest.raises(ValueError):
        # a map out of a more inverted summand into a less inverted one
        FreeComplex(0, ((zf(2),), (E,)), (((1,),),))
    with pytest.raises(ValueError):
        FreeComplex(0, ((E,), (E,), (E,)), (((1,),), ((1,),)))  # d o d != 0
    # a label is a finite or cofinite subset: a bare set of primes, or
    # the whole spectrum (which names no set of primes), is refused
    with pytest.raises(ValueError):
        FreeComplex(0, ((frozenset(),),), ())
    with pytest.raises(ValueError):
        FreeComplex(0, ((E,), (frozenset({2}),)), (((1,),),))
    with pytest.raises(ValueError):
        FreeComplex(0, ((W,),), ())
    # an inclusion into a cofinite label is allowed, out of one it is not
    FreeComplex(0, ((zf(2),), (ZSubset.cofinite([3]),)), (((1,),),))
    with pytest.raises(ValueError):
        FreeComplex(0, ((ZSubset.cofinite([3]),), (zf(2),)), (((1,),),))


def test_observables_divisible_signature():
    # derived 2-torsion of the ring: one growing summand, zero rational rank
    W2 = tensor(FreeComplex.stalk_free(1), cech_model(zf(2)))
    rep = fingerprints(W2, (2,))
    assert rep.fingerprint(2, 0) == (1, ())
    assert rep.fingerprint(2, 1) == (0, ())
    assert rep.rank_at(0) == 0 and rep.rank_at(1) == 0
    # engine's answer (a Pruefer sum in degree 1) shows the same rows
    claimed = rgamma(zf(2), FormalObject.free_stalk(1, 0))
    assert check_object(claimed, W2, (2,)).ok


def test_fingerprint_finite_torsion():
    X = FreeComplex.cyclic_resolution(4, 0)
    W4 = tensor(X, cech_model(zf(2)))
    rep = fingerprints(W4, (2,))
    # degree 0 carries Z/4, degree 1 nothing, and nothing grows
    assert rep.fingerprint(2, 0) == (0, ((2, 1),))
    assert rep.fingerprint(2, 1) == (0, ())


def test_whole_level_is_identity():
    X = FreeComplex.koszul([4, 6])
    WX = tensor(X, cech_model(W))
    assert check_object(from_free_complex(X), WX, (2, 3)).ok


def test_rgamma_rq_validation_fixtures():
    assert validate_rgamma(zf(2), FreeComplex.stalk_free(1, 0)).ok
    assert validate_rgamma(zf(2), FreeComplex.cyclic_resolution(4, 0)).ok
    assert validate_rgamma(zf(2, 3), FreeComplex.koszul([6])).ok
    assert validate_rq(zf(2), FreeComplex.stalk_free(1, 0)).ok
    assert validate_rq(zf(2, 5), FreeComplex.koszul([4, 6])).ok
    assert validate_rgamma(W, FreeComplex.koszul([4, 6])).ok
    assert validate_rgamma(E, FreeComplex.koszul([4, 6])).ok
    assert validate_rq(E, FreeComplex.koszul([4, 6])).ok


def test_validation_catches_wrong_claims():
    # the honest model of Z[1/2] does not match the split claim Z (+) Pruefer
    wrong = FormalObject.free_stalk(1, 0) + FormalObject.stalk(
        EM.prufer_sum(zf(2), 1), 1
    )
    model = formal_object_model(
        FormalObject.stalk(EM.localized_free(zf(2), 1), 0)
    )
    rep = check_object(wrong, model, (2, 3))
    assert not rep.ok
    # one (kind, prime, degree, got, want) entry per differing row: here
    # only the 2-local growth in degree 0
    assert rep.mismatches == (("fingerprint", 2, 0, (0, ()), (2, ())),)
    # a shifted claim differs in rational rank (prime 0) and at 3, sorted
    assert check_object(FormalObject.free_stalk(1, 1), model, (3,)).mismatches == (
        ("rational-rank", 0, 0, 1, 0),
        ("rational-rank", 0, 1, 0, 1),
        ("fingerprint", 3, 0, (1, ()), (0, ())),
        ("fingerprint", 3, 1, (0, ()), (1, ())),
    )
    # and the right claim matches
    right = FormalObject.stalk(EM.localized_free(zf(2), 1), 0)
    assert check_object(right, model, (2,)).ok


def test_check_object_compares_ranks_when_rows_agree():
    # Z[1/2] against the zero model: neither side has a row at 2, so only
    # the rational rank tells them apart
    claim = FormalObject.stalk(EM.localized_free(zf(2), 1), 0)
    rep = check_object(claim, FreeComplex.zero(), (2,))
    assert rep.mismatches == (("rational-rank", 0, 0, 0, 1),)


def test_tau_validation_observes_primes_a_later_step_invents(monkeypatch):
    # an engine whose second step invents Z/7: 7 is named neither by the
    # object nor by the filtration, only by that step's upper vertex
    f = from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)
    X = FormalObject.free_stalk(1, 0)
    assert f.determined_interval() == (0, 1) and validate_tau_filtration(f, X).ok
    honest = derived.tau_single.__wrapped__

    def invents_seven(i, Z, F):
        step = honest(i, Z, F)
        if i == 1:
            return TruncationResult(step.lower, step.upper + FormalObject.cyclic_stalk(7, 5))
        return step

    monkeypatch.setattr(cech, "tau_single", invents_seven)
    rep = validate_tau_filtration(f, X)
    assert rep.mismatches == (("fingerprint", 7, 5, (0, ()), (0, ((1, 1),))),)


def test_tau_validation_checks_a_wrong_identity_step(monkeypatch):
    # the stalk Z in degree 3 lies above the cut of the first step, whose
    # claim must be (0, input); a Z/7 in degree 5 added to its upper
    # vertex takes the full step check
    f = from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)
    X = FormalObject.free_stalk(1, 3)
    assert validate_tau_filtration(f, X).ok
    honest = derived.tau_single.__wrapped__

    def invents_seven(i, Z, F):
        step = honest(i, Z, F)
        if i == 0:
            return TruncationResult(step.lower, step.upper + FormalObject.cyclic_stalk(7, 5))
        return step

    monkeypatch.setattr(cech, "tau_single", invents_seven)
    rep = validate_tau_filtration(f, X)
    assert rep.mismatches == (("fingerprint", 7, 5, (0, ()), (0, ((1, 1),))),)


def test_tau_validation_compares_stalks_above_the_cut(monkeypatch):
    # Z[1/2] in degree 2, above the first step's cut, swapped for Z[1/6]
    # and Z(3^oo) one degree up: the same rational ranks and rows at 2
    # and 3, but not the stalk that passes through
    f = from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)
    X = FormalObject.free_stalk(1, 0) + FormalObject.stalk(EM.localized_free(zf(2), 1), 2)
    assert validate_tau_filtration(f, X).ok
    honest = derived.tau_single.__wrapped__
    glued = FormalObject(
        ((2, EM.localized_free(zf(2, 3), 1)), (3, EM.prufer_sum(zf(3))))
    )

    def swaps_the_localization(i, Z, F):
        step = honest(i, Z, F)
        if i == 0:
            kept = FormalObject(tuple((d, G) for d, G in step.upper.graded if d != 2))
            return TruncationResult(step.lower, kept + glued)
        return step

    monkeypatch.setattr(cech, "tau_single", swaps_the_localization)
    rep = validate_tau_filtration(f, X)
    assert rep.mismatches == (
        ("stalk", 0, 2, EM.localized_free(zf(2), 1), EM.localized_free(zf(2, 3), 1)),
    )


def test_tau_validation_reports_whole_rows_when_stalks_above_agree(monkeypatch):
    # an engine that drops Z at the cut and keeps Z(2^oo) above it: the
    # stalks above agree, and row (2, 0) is reported with the Pruefer
    # growth that the stalk above adds to both sides
    honest = derived.tau_single.__wrapped__
    X = FormalObject.free_stalk(1, 0) + FormalObject.stalk(EM.prufer_sum(zf(2)), 1)

    def drops_the_cut(i, Z, F):
        step = honest(i, Z, F)
        above = FormalObject(tuple((d, G) for d, G in step.upper.graded if d > i))
        return TruncationResult(step.lower, above)

    f = step_filtration(SPEC_Z, 0, zf(3))
    assert validate_tau_filtration(f, X).ok
    monkeypatch.setattr(cech, "tau_single", drops_the_cut)
    assert validate_tau_filtration(f, X).mismatches == (
        ("rational-rank", 0, 0, 1, 0),
        ("fingerprint", 2, 0, (2, ()), (1, ())),
        ("fingerprint", 3, 0, (1, ()), (0, ())),
    )


def test_identity_steps_do_no_observation(monkeypatch):
    # Z in degree 3 along the steps -1..4: those at -1, 0, 1 and 2 cut
    # below it and find no primes; those at 3 and 4 reach it, one call each
    f = from_values(SPEC_Z, {0: zf(2, 3, 5), 1: zf(2, 3), 2: zf(2), 3: zf(2), 4: zf(2)}, W, E)
    assert f.determined_interval() == (-1, 4)
    calls = []
    honest = cech._relevant_primes

    def counted(*sources, known=()):
        calls.append(sources[0])
        return honest(*sources, known=known)

    monkeypatch.setattr(cech, "_relevant_primes", counted)
    assert validate_tau_filtration(f, FormalObject.free_stalk(1, 3)).ok
    assert calls == [zf(2), zf(2)]


@pytest.mark.parametrize("functor", ["rgamma", "rq"])
def test_constant_filtration_check_rejects_a_wrong_vertex(monkeypatch, functor):
    # a constant filtration is one step with rgamma below and rq above; a
    # Z/7 in degree 5 added to either vertex is the one mismatch seen
    honest = getattr(cech, functor)
    monkeypatch.setattr(cech, functor, lambda Z, F: honest(Z, F) + FormalObject.cyclic_stalk(7, 5))
    objects = [
        FormalObject.zero(),
        FormalObject.free_stalk(1, 0),
        FormalObject.free_stalk(1, 1) + FormalObject.cyclic_stalk(6, 1),
        FormalObject.stalk(EM.prufer_sum(zf(2), 1), 1),
    ]
    for Z in (W, E, zf(2), ZSubset.cofinite([3])):
        for F in objects:
            rep = validate_tau_filtration(constant_filtration(SPEC_Z, Z), F)
            assert rep.mismatches == (("fingerprint", 7, 5, (0, ()), (0, ((1, 1),))),)


@pytest.mark.parametrize(
    "F, i, Z, repeated, single, want",
    [
        # (Z/4)^2 at the cut: module-level torsion below for Z = {2}, in
        # the quotient above for Z = {3}; one exponent row either way
        (
            FormalObject.stalk(EM.cyclic_torsion(2, 2, 2), 0),
            0,
            zf(2),
            EM.cyclic_torsion(2, 2, 2),
            EM.cyclic_torsion(2, 2),
            (("fingerprint", 2, 0, (0, ((2, 2),)), (0, ((2, 1),))),),
        ),
        (
            FormalObject.stalk(EM.cyclic_torsion(2, 2, 2), 0),
            0,
            zf(3),
            EM.cyclic_torsion(2, 2, 2),
            EM.cyclic_torsion(2, 2),
            (("fingerprint", 2, 0, (0, ((2, 2),)), (0, ((2, 1),))),),
        ),
        # Z^2 in the quotient at the cut: its rational rank, and its growth
        # at the one observed prime
        (
            FormalObject.free_stalk(2, 0),
            0,
            zf(3),
            EM.free(2),
            EM.free(1),
            (("rational-rank", 0, 0, 2, 1), ("fingerprint", 3, 0, (2, ()), (1, ()))),
        ),
        # Z^2 below the cut: the upper vertex Z[1/2]^2 is 2-divisible, so
        # only the rational rank tells the copies apart
        (
            FormalObject.free_stalk(2, 0),
            1,
            zf(2),
            EM.localized_free(zf(2), 2),
            EM.localized_free(zf(2), 1),
            (("rational-rank", 0, 0, 2, 1),),
        ),
    ],
    ids=["torsion-below", "torsion-above", "free-above", "free-below"],
)
def test_tau_validation_observes_multiplicity(monkeypatch, F, i, Z, repeated, single, want):
    # a step that drops one copy of a repeated atom: the oracle observes
    # every copy of the input, so the lost copy is exactly what it reports
    honest = derived.tau_single.__wrapped__

    def drop(G):
        return FormalObject(tuple((d, single if E_ == repeated else E_) for d, E_ in G.graded))

    def drops_a_copy(j, Y, X):
        step = honest(j, Y, X)
        return TruncationResult(drop(step.lower), drop(step.upper))

    f = step_filtration(SPEC_Z, i, Z)
    assert validate_tau_filtration(f, F).ok
    monkeypatch.setattr(cech, "tau_single", drops_a_copy)
    try:
        assert validate_tau_filtration(f, F).mismatches == want
    finally:
        derived.tau_single.cache_clear()
        clear_caches()


def test_tau_validation_fixtures():
    X = FormalObject.free_stalk(1, 0)
    assert validate_tau_filtration(step_filtration(SPEC_Z, 1, zf(2)), X).ok
    assert validate_tau_filtration(step_filtration(SPEC_Z, 0, zf(2)), X).ok
    assert validate_tau_filtration(step_filtration(SPEC_Z, -1, zf(2)), X).ok
    repeated_level = from_values(SPEC_Z, {0: zf(2), 1: zf(2)}, zf(2), E)
    assert validate_tau_filtration(repeated_level, X).ok
    assert validate_tau_filtration(canonical_filtration(SPEC_Z), X).ok
    assert validate_tau_filtration(constant_filtration(SPEC_Z, zf(3)), X).ok
    mixed = FormalObject(
        (
            (-1, EM.free(2)),
            (0, EM.free(1) + EM.cyclic_torsion(2, 2)),
            (1, EM.cyclic_torsion(3, 1, 2)),
        )
    )
    for i in (-2, -1, 0, 1, 2):
        assert validate_tau_filtration(step_filtration(SPEC_Z, i, zf(2, 3)), mixed).ok


# -- cofinite sets of maximal ideals ------------------------------------------

MAXIMALS = ZSubset.cofinite([])


def _paper_example():
    """{0: all maximals, 1: all maximals}: the paper's Cousin failure."""
    return from_values(SPEC_Z, {0: MAXIMALS, 1: MAXIMALS}, W, E)


def test_paper_cousin_failure_is_modelled():
    # Z in degree 0 truncates to the sum of all Pruefer groups in degree 1
    # and Q in degree 0, and the chain models agree
    X = FormalObject.free_stalk(1, 0)
    res = derived.tau_filtration(_paper_example(), X)
    assert res.lower == FormalObject.stalk(EM.prufer_sum(MAXIMALS, 1), 1)
    assert res.upper == FormalObject.stalk(EM.localized_free(MAXIMALS, 1), 0)
    assert validate_tau_filtration(_paper_example(), X).ok


def test_cm_filtration_truncations_are_modelled():
    # the Cohen-Macaulay filtration of Z's dualizing complex has the level
    # "all maximal ideals"
    cm = cm_filtration(DUALIZING.codim)
    assert MAXIMALS in cm.all_level_values()
    rng = rng_from_seed(2024)
    for _ in range(25):
        X = random_free_complex(rng)
        assert validate_tau_filtration(cm, from_free_complex(X)).ok
        assert validate_tau_filtration(cm, random_formal_object(rng)).ok
        for Z in (MAXIMALS, ZSubset.cofinite([3]), ZSubset.cofinite([2, 5])):
            assert validate_rgamma(Z, X).ok and validate_rq(Z, X).ok


def test_cofinite_atoms_are_modelled():
    loc = FormalObject.stalk(EM.localized_free(ZSubset.cofinite([2]), 1), 0)
    pru = FormalObject.stalk(EM.prufer_sum(ZSubset.cofinite([3]), 2), 1)
    # one block Z -> Z[1/S] per copy of a Pruefer sum over S
    assert [B.labels for B in formal_object_model(pru)] == [((E,), (ZSubset.cofinite([3]),))] * 2
    for F, fresh in ((loc, 3), (pru, 5)):
        F = F + FormalObject.cyclic_stalk(4, 1)
        primes = cech._relevant_primes(F)
        assert primes == tuple(sorted({2, 3, fresh}))
        assert check_object(F, formal_object_model(F), primes).ok
    rows = fingerprints(formal_object_model(loc + pru), (2, 3, 5))
    # Z[1/S] grows at 2 only; the Pruefer sum twice one degree down, not at 3
    assert rows.fingerprint(2, 0) == (3, ()) and rows.fingerprint(5, 0) == (2, ())
    assert rows.fingerprint(3, 0) == (0, ())
    for F in (loc, pru, loc + pru):
        for Z in (W, E, zf(2), zf(3, 5), MAXIMALS, ZSubset.cofinite([2])):
            for i in (-1, 0, 1):
                assert validate_tau_filtration(step_filtration(SPEC_Z, i, Z), F).ok
            assert validate_tau_filtration(constant_filtration(SPEC_Z, Z), F).ok


def test_finite_claim_for_a_cofinite_truth_is_caught_at_the_fresh_prime():
    truth = FormalObject.stalk(EM.prufer_sum(MAXIMALS, 1), 1)
    claim = FormalObject.stalk(EM.prufer_sum(zf(2, 3, 5, 7), 1), 1)
    model = formal_object_model(truth)
    # the primes the claim names see no difference; 11, named by neither, does
    assert check_object(claim, model, (2, 3, 5, 7)).ok
    assert cech._relevant_primes(claim, truth) == (2, 3, 5, 7, 11)
    rep = check_object(claim, model, cech._relevant_primes(claim, truth))
    assert rep.mismatches == (("fingerprint", 11, 0, (1, ()), (0, ())),)


def test_tau_validation_observes_the_fresh_prime(monkeypatch):
    # an engine that truncates to the Pruefer sum over {2, 3, 5, 7} only:
    # the level "all maximals" makes the oracle look at 11 as well
    honest = derived.tau_single.__wrapped__
    finite = FormalObject.stalk(EM.prufer_sum(zf(2, 3, 5, 7), 1), 1)

    def finite_claim(i, Z, F):
        step = honest(i, Z, F)
        return step if step.lower.is_zero else TruncationResult(finite, step.upper)

    monkeypatch.setattr(cech, "tau_single", finite_claim)
    rep = validate_tau_filtration(_paper_example(), FormalObject.free_stalk(1, 0))
    assert rep.mismatches == (("fingerprint", 11, 0, (1, ()), (0, ())),)


def test_tau_validation_observes_the_fresh_prime_for_a_cofinite_input(monkeypatch):
    # an engine that turns Q into Z[1/2] at the level {(2)}: neither that
    # level nor the step's vertices name a cofinite set, only the input
    honest = derived.tau_single.__wrapped__
    Q = FormalObject.stalk(EM.localized_free(MAXIMALS, 1), 5)

    def drops_cofinite(i, Z, F):
        step = honest(i, Z, F)
        if Z != zf(2):
            return step
        return TruncationResult(step.lower, FormalObject.stalk(EM.localized_free(zf(2), 1), 5))

    monkeypatch.setattr(cech, "tau_single", drops_cofinite)
    f = from_values(SPEC_Z, {0: zf(2)}, W, E)
    assert validate_tau_filtration(f, Q).mismatches == (("fingerprint", 3, 5, (0, ()), (1, ())),)


def _cofinite_census():
    """Every decreasing chain on the window (-1, 1) with constant tail and
    empty head, over the whole spectrum and the finite and cofinite
    subsets named by (2, 3, 5)."""
    named = [c for r in range(4) for c in combinations(DEFAULT_PRIMES, r)]
    values = [W] + [ZSubset.finite(c) for c in named] + [ZSubset.cofinite(c) for c in named]
    chains = {
        str(f.to_json()): f
        for a in values
        for b in values
        if b.issubset(a)
        for c in values
        if c.issubset(b)
        for f in [from_values(SPEC_Z, {-1: a, 0: b, 1: c}, a, E)]
    }
    return list(chains.values())


def test_engine_agrees_with_oracle_on_cofinite_census():
    census = _cofinite_census()
    cofinite = [f for f in census if any(l.kind == "cofinite" for l in f.all_level_values())]
    assert (len(census), len(cofinite)) == (354, 254)
    objects = [
        FormalObject.free_stalk(1, 0),
        FormalObject.cyclic_stalk(4, 0),
        FormalObject.free_stalk(1, 1) + FormalObject.cyclic_stalk(6, 1),
        FormalObject.cyclic_stalk(7, 0),
        FormalObject.stalk(EM.localized_free(zf(2), 1), 0),
        FormalObject.stalk(EM.localized_free(ZSubset.cofinite([3]), 1), 0),
        FormalObject.stalk(EM.localized_free(MAXIMALS, 1), 1),
        FormalObject.stalk(EM.prufer_sum(zf(2, 5), 1), 1),
        FormalObject.stalk(EM.prufer_sum(ZSubset.cofinite([2]), 1), 0),
        FormalObject.stalk(EM.prufer_sum(MAXIMALS, 1), -1) + FormalObject.free_stalk(1, 0),
        FormalObject(
            (
                (-1, EM.free(2)),
                (0, EM.free(1) + EM.cyclic_torsion(2, 2)),
                (1, EM.cyclic_torsion(3, 1, 2)),
            )
        ),
        FormalObject(
            (
                (-1, EM.free(1)),
                (1, EM.localized_free(ZSubset.cofinite([5]), 1)
                 + EM.prufer_sum(ZSubset.cofinite([2, 3]), 1)),
            )
        ),
    ]
    failures = [(str(f), str(F)) for f in census for F in objects
                if not validate_tau_filtration(f, F).ok]
    assert failures == []


def test_deep_torsion_is_exact():
    # exponents far past any finite reduction are observed as they are
    deep = FormalObject.stalk(
        EM.cyclic_torsion(2, 11)
        + EM.cyclic_torsion(2, 23)
        + EM.cyclic_torsion(2, 47),
        0,
    )
    model = formal_object_model(deep)
    rep = fingerprints(model, (2,))
    assert rep.fingerprint(2, 0) == (0, ((11, 1), (23, 1), (47, 1)))
    assert check_object(deep, model, (2,)).ok


def test_deep_torsion_rejected():
    # Z/2^20 against a model of Z/2^13: equal on every reduction mod 2^t
    # with t <= 13, told apart by the exponents
    model = formal_object_model(FormalObject.cyclic_stalk(2**13, 0))
    rep = check_object(FormalObject.cyclic_stalk(2**20, 0), model, (2,))
    assert not rep.ok
    assert rep.mismatches == (
        ("fingerprint", 2, 0, (0, ((13, 1),)), (0, ((20, 1),))),
    )


def test_predicted_observables_consistency():
    # the claim's rows, the observed rows of its honest model and the
    # closed-form reference coincide
    F = FormalObject(
        (
            (0, EM.free(1) + EM.cyclic_torsion(2, 3)),
            (1, EM.prufer_sum(zf(2, 5), 2) + EM.localized_free(zf(3), 1)),
        )
    )
    model = formal_object_model(F)
    got = fingerprints(model, (2, 3, 5))
    want = _predict_reference(F, (2, 3, 5))
    assert (got.ranks, got.rows) == cech._stalk_rows(F.graded, (2, 3, 5)) == want
    assert got.fingerprint(2, 0) == (3, ((3, 1),))  # Z, and Pruefer above
    assert got.fingerprint(3, 1) == (0, ())  # Z[1/3] is 3-divisible
    assert got.fingerprint(5, 1) == (1, ())


def test_atoms_of_rank_r_are_r_copies_of_one_block():
    # free rank 3 and Z[1/2]^2: one rank-one block per copy, each
    # observed like a multi-rank block built by hand
    for E_, label, r in ((EM.free(3), E, 3), (EM.localized_free(zf(2), 2), zf(2), 2)):
        F = FormalObject.stalk(E_, 1)
        model = formal_object_model(F)
        assert model == (FreeComplex(1, ((label,),), ()),) * r
        reference = FreeComplex(1, ((label,) * r,), ())
        assert fingerprints(model, (2, 3)) == fingerprints(reference, (2, 3))
        for Z in (zf(2), zf(3, 5), MAXIMALS):
            for build in (cech_model, rq_model_complex):
                got = fingerprints(tensor(model, build(Z)), (2, 3, 5, 7))
                assert got == fingerprints(tensor(reference, build(Z)), (2, 3, 5, 7))
        assert check_object(F, model, (2, 3)).ok


def _steps(f, F):
    """The one-level steps ``(j, Z, input)`` that ``validate_tau_filtration``
    checks along a non-constant filtration."""
    s, n = f.determined_interval()
    for j in range(s, n + 1):
        Z = f.value(j)
        yield j, Z, F
        F = derived.tau_single(j, Z, F).upper


def test_stalk_summed_rows_match_observed_step_models():
    # every step of the census and of the cofinite census, on corpus
    # objects with localized and Pruefer atoms, at two prime sets per step
    # within one cache lifetime, so a cached stalk is read at both: the
    # rows added up stalk by stalk are those of the reference models
    clear_caches()
    census = _census_z() + tuple(_cofinite_census())
    rng = rng_from_seed(1515)
    objects = [random_formal_object(rng) for _ in range(11)]
    objects += [from_free_complex(random_free_complex(rng)) for _ in range(2)]
    atoms = [E_ for F in objects for _, E_ in F.graded]
    assert any(E_.localized for E_ in atoms) and any(E_.prufer for E_ in atoms)
    steps = 0
    for F in objects:
        for f in census:
            if f.is_constant:
                continue
            for j, Z, current in _steps(f, F):
                for primes in ((2,), cech._relevant_primes(Z, current, known=(2, 3, 5, 7))):
                    got = cech._tau_step_rows(j, Z, current, primes)
                    for rows, model in zip(got, _tau_models_reference(j, Z, current)):
                        want = fingerprints(model, primes)
                        assert rows == (want.ranks, want.rows)
                steps += 1
    assert steps > 1000


# a cut and level that put a stalk in degree d below (-1), at (0) or above
# (1) the cut: three different levels
_SIDE_STEPS = {-1: (1, zf(2)), 0: (0, W), 1: (-1, zf(3))}


@pytest.mark.parametrize("side", [-1, 0, 1])
@pytest.mark.parametrize(
    "atom",
    [EM.free(1), EM.localized_free(zf(3), 1), EM.cyclic_torsion(2, 2), EM.prufer_sum(zf(2, 3))],
    ids=["free", "localized", "torsion", "pruefer"],
)
def test_step_rows_are_keyed_without_parity(side, atom):
    # one step on the stalk in degree 0 at one side of the cut and level,
    # one on it in degree 1 at the next side and another level: both read
    # the rows of the atom's own model, one ``_atom_rows`` entry (at the
    # cut the whole spectrum takes the atom into the lower vertex whole)
    clear_caches()
    primes = (2, 3)
    i, Z = _SIDE_STEPS[side]
    first = cech._tau_step_rows(i, Z, FormalObject.stalk(atom, 0), primes)
    before = cech._atom_rows.cache_info()
    i, Z = _SIDE_STEPS[(side + 2) % 3 - 1]
    second = cech._tau_step_rows(i + 1, Z, FormalObject.stalk(atom, 1), primes)
    after = cech._atom_rows.cache_info()
    assert (before.misses, before.currsize) == (1, 1)
    assert (after.hits, after.currsize) == (before.hits + 1, 1)
    assert any(rows for _, rows in first) and any(rows for _, rows in second)


def test_clear_caches_empties_the_block_product_cache():
    # the product's cache belongs to zmodules; the oracle's clear empties it too
    for clear in (zmodules.clear_caches, clear_caches):
        tensor(FreeComplex.stalk_free(1), cech_model(zf(2)))
        assert zmodules._tensor_product.cache_info().currsize > 0
        clear()
        assert zmodules._tensor_product.cache_info().currsize == 0


def test_clear_caches_empties_every_unbounded_cache():
    # every module-level functools cache without a size bound in the
    # modules the oracle runs on, found the way the benchmark's tracer
    # finds caches; one step check fills the atom and level rows
    clear_caches()
    F = FormalObject.free_stalk(1, 0) + FormalObject.stalk(EM.prufer_sum(zf(3)), 1)
    assert validate_tau_filtration(step_filtration(SPEC_Z, 1, zf(2)), F).ok
    unbounded = {
        f"{module.__name__}.{name}": value
        for module in (cech, zmodules, derived)
        for name, value in vars(module).items()
        if callable(getattr(value, "cache_clear", None))
        and callable(getattr(value, "cache_info", None))
        and getattr(value, "__module__", None) == module.__name__
        and value.cache_info().maxsize is None
    }
    for name in (
        "tstruct.cech._atom_rows",
        "tstruct.cech._level_rows",
    ):
        assert unbounded[name].cache_info().currsize > 0
    assert "tstruct.zmodules._tensor_product" in unbounded
    clear_caches()
    assert {name: c.cache_info().currsize for name, c in unbounded.items()} == dict.fromkeys(
        unbounded, 0
    )


# -- fingerprints on random formal objects ------------------------------------


def _primes(F):
    return tuple(sorted(F.mentioned_primes())) or (2,)


def _replace(F, d, E):
    return FormalObject(tuple((dd, E if dd == d else G) for dd, G in F.graded))


def _single_atom_mutations(F):
    """Each wrong claim one atom away from F: a torsion exponent raised by
    one, a Pruefer sum moved up one degree, Z[1/S] replaced by Z."""
    for d, E in F.graded:
        for p, e, m in E.torsion:
            torsion = tuple(
                (q, f, n - ((q, f) == (p, e))) for q, f, n in E.torsion
            ) + ((p, e + 1, 1),)
            yield _replace(F, d, EM(E.free_rank, E.localized, torsion, E.prufer))
        for s, m in E.prufer:
            rest = tuple(x for x in E.prufer if x != (s, m))
            moved = FormalObject.stalk(EM.prufer_sum(s, m), d + 1)
            yield _replace(F, d, EM(E.free_rank, E.localized, E.torsion, rest)) + moved
        for s, r in E.localized:
            rest = tuple(x for x in E.localized if x != (s, r))
            yield _replace(F, d, EM(E.free_rank + r, rest, E.torsion, E.prufer))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fingerprint_accepts_models_of_random_objects(seed):
    F = random_formal_object(rng_from_seed(seed))
    assert check_object(F, formal_object_model(F), _primes(F)).ok
    # an object's model shows rows only in [min F - 1, max F]
    got = fingerprints(formal_object_model(F), _primes(F))
    degrees = got.ranks.keys() | {d for _, d in got.rows}
    assert all(min(F.degrees()) - 1 <= d <= max(F.degrees()) for d in degrees)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fingerprint_rejects_single_atom_mutations(seed):
    F = random_formal_object(rng_from_seed(seed))
    mutants = list(_single_atom_mutations(F))
    assume(mutants)
    model = formal_object_model(F)
    for G in mutants:
        assert G != F
        assert not check_object(G, model, _primes(F)).ok


# -- block-by-block observation against the dense assembly --------------------


def _dense_sum(A, B):
    """The block-diagonal sum of two blocks as one block."""
    if A.is_zero:
        return B
    if B.is_zero:
        return A
    lo = min(A.min_degree, B.min_degree)
    hi = max(A.max_degree, B.max_degree)
    labels = [A.labels_at(d) + B.labels_at(d) for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo, hi):
        la, ta = len(A.labels_at(d)), len(A.labels_at(d + 1))
        MA, MB = A.diff_at(d), B.diff_at(d)
        M = zeros(ta + len(B.labels_at(d + 1)), la + len(B.labels_at(d)))
        for i, row in enumerate(MA):
            M[i][: len(row)] = row
        for i, row in enumerate(MB):
            M[ta + i][la : la + len(row)] = row
        diffs.append(M)
    return FreeComplex(lo, tuple(labels), tuple(diffs))


def _dense(model):
    out = FreeComplex.zero()
    for block in model:
        out = _dense_sum(out, block)
    return out


def _assert_blockwise_equals_dense(model, primes):
    dense = _dense(model)
    got, want = fingerprints(model, primes), fingerprints(dense, primes)
    assert got == want
    # every row lies in the blocks' own degrees, so no window could cut one
    degrees = got.ranks.keys() | {d for _, d in got.rows}
    assert all(
        min(B.min_degree for B in model) <= d <= max(B.max_degree for B in model)
        for d in degrees
    )


def test_equal_blocks_in_two_degrees():
    # two blocks of one shape (Z --4--> Z) in degrees -1..0 and 2..3:
    # each block's rows land in its own degree
    F = FormalObject(((0, EM.cyclic_torsion(2, 2)), (3, EM.cyclic_torsion(2, 2))))
    model = formal_object_model(F)
    assert len(model) == 2 and model[0].labels == model[1].labels
    assert model[0].diffs == model[1].diffs
    _assert_blockwise_equals_dense(model, (2, 3))
    rep = fingerprints(model, (2,))
    assert rep.rows == {(2, 0): (0, ((2, 1),)), (2, 3): (0, ((2, 1),))}
    assert check_object(F, model, (2,)).ok


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-4, 4))
def test_blockwise_observation_matches_dense_assembly(seed, i):
    rng = rng_from_seed(seed)
    F = random_formal_object(rng)
    Z = random_subset_z(rng)
    primes = tuple(sorted(set(_primes(F)) | set(Z.primes)))
    lower, upper = _tau_models_reference(i, Z, F)
    for model in (formal_object_model(F), lower, upper):
        _assert_blockwise_equals_dense(model, primes)


# -- cached constructions against the uncached ones ---------------------------
#
# The references below build every block afresh, at its own degrees:
# the Koszul product, the stalk-by-stalk truncation models, the
# homology of each p-reduction and a claim's rows in closed form.  The
# oracle builds each distinct shape once and places it by a shift, so
# the two must agree block for block; the oracle's truncation steps,
# observed atom by atom and added with each atom's multiplicity, must
# show the rows of the reference truncation models
# (``test_stalk_summed_rows_match_observed_step_models``), and a claim's
# rows, read off its atoms' models the same way, the closed-form rows
# (``test_cached_prediction_matches_reference``).


def _koszul_reference(A, B):
    """The Koszul-sign tensor of two blocks, built at their own degrees."""
    lo, hi = A.min_degree + B.min_degree, A.max_degree + B.max_degree

    def layout(d):
        labels, offs = [], {}
        for i in A.degrees():
            la, lb = A.labels_at(i), B.labels_at(d - i)
            if la and lb:
                offs[(i, d - i)] = len(labels)
                labels += [x.join(y) for x in la for y in lb]
        return offs, labels

    layouts = [layout(d) for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo, hi):
        (offs_s, lab_s), (offs_t, lab_t) = layouts[d - lo], layouts[d + 1 - lo]
        M = zeros(len(lab_t), len(lab_s))
        for (i, j), base_s in offs_s.items():
            ra, rb = len(A.labels_at(i)), len(B.labels_at(j))
            if (i + 1, j) in offs_t:
                base_t, DA = offs_t[(i + 1, j)], A.diff_at(i)
                for a in range(len(A.labels_at(i + 1))):
                    for b in range(ra):
                        for c in range(rb):
                            M[base_t + a * rb + c][base_s + b * rb + c] += DA[a][b]
            if (i, j + 1) in offs_t:
                base_t, DB = offs_t[(i, j + 1)], B.diff_at(j)
                sgn, tb = (-1 if i % 2 else 1), len(B.labels_at(j + 1))
                for b in range(ra):
                    for a in range(tb):
                        for c in range(rb):
                            M[base_t + b * tb + a][base_s + b * rb + c] += sgn * DB[a][c]
        diffs.append(M)
    return FreeComplex(lo, tuple(tuple(lab) for _, lab in layouts), tuple(diffs))


def _tensor_reference(model, C):
    return () if C.is_zero else tuple(_koszul_reference(a, C) for a in model)


def _tau_models_reference(i, Z, F):
    lower = upper = ()
    for d, E in F.graded:
        piece = formal_object_model(FormalObject.stalk(E, d))
        if d + 1 <= i:
            lower += _tensor_reference(piece, cech_model(Z))
            upper += _tensor_reference(piece, rq_model_complex(Z))
        elif d <= i:
            lower += formal_object_model(FormalObject.stalk(_gamma_module(Z, E), d))
            upper += formal_object_model(FormalObject.stalk(_quotient_module(Z, E), d))
        else:
            upper += piece
    return lower, upper


def _p_rows_reference(B, p):
    keep = [[j for j, lab in enumerate(row) if not lab.contains(p)] for row in B.labels]
    K = FreeComplex.free(
        0,
        tuple(len(k) for k in keep),
        tuple(
            tuple(tuple(M[i][j] for j in keep[k]) for i in keep[k + 1])
            for k, M in enumerate(B.diffs)
        ),
    )
    rows = (
        (k, M.free_rank, tuple((e, m) for q, e, m in M.torsion if q == p))
        for k, M in homology(K).items()
    )
    return tuple(row for row in rows if row[1] or row[2])


def _predict_reference(F, primes):
    """The ``(ranks, rows)`` of a claim in closed form, degree by degree:
    at p, a free or untouched-localized summand grows in its own degree,
    where torsion Z/p^e keeps its exponent, a p-inverted localized
    summand vanishes, and a Pruefer summand at p grows one degree below."""
    ranks, rows = {}, {}

    def add(p, d, growth, exps):
        if growth or exps:
            g, x = rows.get((p, d), (0, ()))
            rows[(p, d)] = (g + growth, x + exps)

    for d, E_ in F.graded:
        if E_.rational_rank:
            ranks[d] = E_.rational_rank
        for p in primes:
            add(
                p,
                d,
                E_.free_rank + sum(r for s, r in E_.localized if not s.contains(p)),
                tuple((e, m) for q, e, m in E_.torsion if q == p),
            )
            add(p, d - 1, sum(m for s, m in E_.prufer if s.contains(p)), ())
    return ranks, rows


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_cached_prediction_matches_reference(seed, data):
    # random objects with localized and Pruefer atoms, some on a cofinite
    # set, their shifts (the same atoms at other degrees, read from the
    # atom-row cache) and prime sets with a fresh prime, in one cache
    # lifetime: the claim's rows are the closed-form ones
    F = random_formal_object(rng_from_seed(seed))
    if data.draw(st.booleans()):
        S = ZSubset.cofinite(data.draw(st.sets(st.sampled_from(DEFAULT_PRIMES))))
        atom = data.draw(st.sampled_from((EM.prufer_sum(S), EM.localized_free(S, 1))))
        F = F + FormalObject.stalk(atom, data.draw(st.integers(-3, 3)))
    named = tuple(sorted(F.mentioned_primes()))
    with_fresh = tuple(sorted(named + (fresh_prime(named),)))
    for G in (F, F.shift(1), F.shift(-2)):
        for primes in (with_fresh, (2,), cech._relevant_primes(G)):
            assert cech._stalk_rows(G.graded, primes) == _predict_reference(G, primes)


def test_predicted_row_shared_by_pruefer_growth_and_torsion():
    # Z(2^oo) in degree 1 grows in row (2, 0), where Z/4 in degree 0 puts
    # its exponent: one row carries both, whichever atom is cached first
    clear_caches()
    F = FormalObject.stalk(EM.prufer_sum(zf(2)), 1) + FormalObject.cyclic_stalk(4, 0)
    for primes in ((2,), (2, 3)):
        want = ({}, {(2, 0): (1, ((2, 1),))})
        assert _predict_reference(F, primes) == want
        assert cech._stalk_rows(F.graded, primes) == want
        shifted = ({}, {(2, -3): (1, ((2, 1),))})
        assert cech._stalk_rows(F.shift(3).graded, primes) == shifted
        got = fingerprints(formal_object_model(F), primes)
        assert (got.ranks, got.rows) == want


# Each atom kind's model rows at a prime inside and one outside its set,
# written by hand: ``(id, atom, primes, rank, rows)``, the rows keyed by
# (p, offset from the stalk's degree).  A claim's rows are read off these
# models, so a wrong atom model moves both sides of a comparison alike
# wherever the model of the truth is built from atoms too.
_ATOM_ROWS = [
    ("free", EM.free(1), (2,), 1, {(2, 0): (1, ())}),
    # Z[1/2] is 2-divisible and grows at 3
    ("localized-finite", EM.localized_free(zf(2), 1), (2, 3), 1, {(3, 0): (1, ())}),
    # Z[1/S] for S all primes but 2: 3-divisible, grows at 2
    (
        "localized-cofinite",
        EM.localized_free(ZSubset.cofinite([2]), 1),
        (2, 3),
        1,
        {(2, 0): (1, ())},
    ),
    ("torsion", EM.cyclic_torsion(2, 3), (2, 3), 0, {(2, 0): (0, ((3, 1),))}),
    # the p^t-torsion of Z(p^oo) grows one degree below, at p only
    ("pruefer-finite", EM.prufer_sum(zf(2, 3)), (3, 5), 0, {(3, -1): (1, ())}),
    ("pruefer-cofinite", EM.prufer_sum(ZSubset.cofinite([5])), (3, 5), 0, {(3, -1): (1, ())}),
]


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize(
    "atom, primes, rank, rows",
    [case[1:] for case in _ATOM_ROWS],
    ids=[case[0] for case in _ATOM_ROWS],
)
def test_atom_model_rows_by_hand(d, atom, primes, rank, rows):
    got = fingerprints(formal_object_model(FormalObject.stalk(atom, d)), primes)
    assert got.ranks == ({d: rank} if rank else {})
    assert got.rows == {(p, d + k): row for (p, k), row in rows.items()}


@pytest.mark.parametrize(
    "claim, accepted",
    [
        (FormalObject.stalk(EM.localized_free(zf(2), 1), 0), True),
        pytest.param(
            FormalObject.stalk(EM.localized_free(zf(2, 3), 1), 0)
            + FormalObject.stalk(EM.prufer_sum(zf(3)), 1),
            False,
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 4"),
        ),
    ],
    ids=["true", "glued"],
)
def test_gluing_of_a_localization(claim, accepted):
    # rq at {2} of Z is Z[1/2].  Z[1/6] (+) Z(3^oo)[-1] has the same
    # rational ranks and the same rows at 2 and 3: only how the fracture
    # square is glued tells the two apart
    model = tensor(FreeComplex.stalk_free(1), rq_model_complex(zf(2)))
    assert check_object(claim, model, (2, 3)).ok is accepted


def _entries(model):
    return [(B.min_degree, B.labels, B.diffs) for B in model]


def _some_blocks(rng):
    F = random_formal_object(rng)
    X = random_free_complex(rng)
    return list(formal_object_model(F)) + [X]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-3, 3))
def test_placed_tensor_matches_koszul_product(seed, shift):
    clear_caches()
    rng = rng_from_seed(seed)
    Z = random_subset_z(rng)
    lefts = _some_blocks(rng)
    rights = [cech_model(Z), rq_model_complex(Z), lefts[0], lefts[-1]]
    for A in lefts:
        # the same shape in a degree of each parity, B in two degrees
        for A2 in (A, FreeComplex(A.min_degree + shift, A.labels, A.diffs)):
            for B in rights:
                for B2 in (B, FreeComplex(B.min_degree - 1, B.labels, B.diffs)):
                    if A2.is_zero or B2.is_zero:
                        continue
                    got = zmodules.tensor(A2, B2)
                    assert _entries([got]) == _entries([_koszul_reference(A2, B2)])
                    assert tensor(A2, B2) == got
    model = tuple(lefts)
    assert _entries(tensor(model, rights[0])) == _entries(_tensor_reference(model, rights[0]))


# -- Kuenneth rows against the observed rows of the built product -------------

# the level sets of the stable Koszul factors, and the sets of the
# localized and Pruefer atoms: finite and cofinite ones
_LEVELS = (E, zf(2), zf(3, 5), MAXIMALS, ZSubset.cofinite([3]), W)
_ATOM_SETS = (zf(2), zf(3, 5), zf(2, 3, 5), MAXIMALS, ZSubset.cofinite([2]))
# every prime the draws name, and the fresh one that stands for the rest
_KUENNETH_PRIMES = DEFAULT_PRIMES + (fresh_prime(DEFAULT_PRIMES),)


def _kuenneth_left(data):
    """A left factor in a degree of either parity: the model of one copy
    of an atom of each kind (one block), a random free complex or its
    dual (one block), or the model of a random formal object."""
    kind = data.draw(
        st.sampled_from(("free", "localized", "torsion", "pruefer", "complex", "dual", "object"))
    )
    degree = data.draw(st.integers(-2, 3))
    rng = rng_from_seed(data.draw(st.integers(0, 2**32 - 1)))
    if kind == "object":
        return formal_object_model(random_formal_object(rng).shift(degree))
    if kind in ("complex", "dual"):
        X = random_free_complex(rng)
        X = cech._dual(X) if kind == "dual" else X
        return FreeComplex(degree, X.labels, X.diffs)
    if kind == "free":
        atom = EM.free(1)
    elif kind == "torsion":
        atom = EM.cyclic_torsion(data.draw(st.sampled_from(DEFAULT_PRIMES)), data.draw(st.integers(1, 3)))
    else:
        S = data.draw(st.sampled_from(_ATOM_SETS))
        atom = EM.localized_free(S, 1) if kind == "localized" else EM.prufer_sum(S)
    (block,) = formal_object_model(FormalObject.stalk(atom, degree))
    return block


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_kuenneth_rows_match_the_built_tensor(data):
    # B is a stable Koszul factor (the step checks) or a second factor
    # like A (the Hom route's X^v (x) Y, where torsion meets torsion); the
    # built product of two blocks is ``zmodules.tensor``'s
    clear_caches()
    A = _kuenneth_left(data)
    if data.draw(st.booleans()):
        build = data.draw(st.sampled_from((cech_model, rq_model_complex)))
        C = build(data.draw(st.sampled_from(_LEVELS)))
        B = FreeComplex(data.draw(st.integers(-1, 0)), C.labels, C.diffs)
    else:
        B = _kuenneth_left(data)
    primes = data.draw(st.sampled_from((_KUENNETH_PRIMES, (2,), (3, 7))))
    # either factor on the left: a free row carries the other's exponents
    for left, right in ((A, B), (B, A)):
        assert cech._tensor_rows(left, right, primes) == cech._observe(tensor(left, right), primes)


@pytest.mark.parametrize(
    "A, B, want",
    [
        # Z/4 (x) Z/2 = Z/2 in degree 0, Tor(Z/4, Z/2) = Z/2 in degree -1
        (
            FreeComplex.cyclic_resolution(4),
            FreeComplex.cyclic_resolution(2),
            {(2, 0): (0, ((1, 1),)), (2, -1): (0, ((1, 1),))},
        ),
        # Z/8 in degree 1 (x) Z/4 in degree 0: Z/4 in degree 1 and in degree 0
        (
            FreeComplex.cyclic_resolution(8, 1),
            FreeComplex.cyclic_resolution(4),
            {(2, 1): (0, ((2, 1),)), (2, 0): (0, ((2, 1),))},
        ),
        # Z^2 (x) Z/4 = (Z/4)^2, and Z[1/2] kills the 2-part: no Tor
        (
            FreeComplex.stalk_free(2, 1),
            FreeComplex.cyclic_resolution(4),
            {(2, 1): (0, ((2, 2),))},
        ),
        (FreeComplex(0, ((zf(2),),), ()), FreeComplex.cyclic_resolution(4), {}),
    ],
)
def test_kuenneth_rows_by_hand(A, B, want):
    assert cech._tensor_rows(A, B, (2,)) == ({}, want)
    assert cech._observe(zmodules.tensor(A, B), (2,)) == ({}, want)


def test_step_checks_and_hom_route_build_no_tensor():
    # below the cut the step checks, and the Hom-complex route, read the
    # product's rows by Kuenneth: the block product is never called
    clear_caches()
    rng = rng_from_seed(2207)
    objects = [random_formal_object(rng) for _ in range(4)]
    objects += [from_free_complex(random_free_complex(rng)) for _ in range(2)]
    for F in objects:
        for f in _census_z():
            assert validate_tau_filtration(f, F).ok
    for _ in range(20):
        X, Y = random_free_complex(rng), random_formal_object(rng)
        cech.no_maps_into_nonpositive_shifts(X, Y)
    assert cech._atom_rows.cache_info().currsize > 0
    info = zmodules._tensor_product.cache_info()
    assert (info.hits, info.misses) == (0, 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_homology_per_reduction_matches_reference(seed):
    clear_caches()
    rng = rng_from_seed(seed)
    F = random_formal_object(rng)
    Z = random_subset_z(rng)
    lower, upper = _tau_models_reference(0, Z, F)
    for B in formal_object_model(F) + lower + upper:
        for p in DEFAULT_PRIMES + (7,):
            assert _integral_homology_mod(B.labels, B.diffs, p) == _p_rows_reference(B, p)


# -- engine against oracle on non-f.g. inputs ---------------------------------


@lru_cache(maxsize=1)
def _census_class():
    return tuple(
        enumerate_census_class(SPEC_Z, Z_WINDOW, universe=DEFAULT_PRIMES, cap=10**7)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_engine_agrees_with_oracle_on_census_class(seed, data):
    # Cousin violators make up most of the class; their truncations of
    # f.g. input already leave finite generation
    f = data.draw(st.sampled_from(_census_class()))
    F = random_formal_object(rng_from_seed(seed))
    assert validate_tau_filtration(f, F).ok


def test_census_class_holds_violators_and_non_fg_inputs():
    klass = _census_class()
    assert any(weak_cousin(f).holds for f in klass)
    assert any(not weak_cousin(f).holds for f in klass)
    objects = [random_formal_object(rng_from_seed(s)) for s in range(40)]
    atoms = [E for F in objects for _, E in F.graded]
    assert any(E.localized for E in atoms) and any(E.prufer for E in atoms)
