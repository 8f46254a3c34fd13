import pytest

from tstruct.corpus import random_fg_object, rng_from_seed
from tstruct.derived import FormalObject, in_aisle, in_coaisle
from tstruct.duality import (
    DUALIZING,
    cm_membership,
    codim_from_dualizing,
    dual_filtration_validate,
    dualize,
    kashiwara1_predicate,
    kashiwara2_predicate,
)
from tstruct.elementary import ElementaryModule as EM
from tstruct.filtration import (
    canonical_filtration,
    cm_filtration,
    dual_filtration,
    from_values,
)
from tstruct.spectrum import SPEC_Z, ZSubset, validate_codim_fn

W = ZSubset.whole()
E = ZSubset.empty()


def zf(*ps):
    return ZSubset.finite(ps)


def test_dualize_fixtures():
    assert str(dualize(FormalObject.cyclic_stalk(2, 0))) == "{1: Z/2}"
    assert dualize(FormalObject.free_stalk(1, 0)) == FormalObject.free_stalk(1, 0)
    X = FormalObject.cyclic_stalk(4, 0) + FormalObject.free_stalk(1, 2)
    assert dualize(dualize(X)) == X
    with pytest.raises(ValueError):
        dualize(FormalObject.stalk(EM.prufer_sum(zf(2), 1), 0))


def test_dualize_involution_on_corpus():
    rng = rng_from_seed(17)
    for _ in range(300):
        X = random_fg_object(rng)
        assert dualize(dualize(X)) == X


def test_codim_from_dualizing():
    assert codim_from_dualizing(0) == 0
    assert codim_from_dualizing(2) == 1
    assert codim_from_dualizing(97) == 1
    assert validate_codim_fn(DUALIZING.codim)[0]


def test_cm_membership_fixtures():
    # rank is admitted strictly below degree 0, torsion through degree 0
    assert cm_membership(FormalObject.free_stalk(1, -1))
    assert cm_membership(FormalObject.cyclic_stalk(2, 0))
    assert not cm_membership(FormalObject.free_stalk(1, 0))
    assert not cm_membership(FormalObject.cyclic_stalk(2, 1))
    assert cm_membership(FormalObject.zero())
    assert cm_membership(
        FormalObject.free_stalk(3, -2) + FormalObject.cyclic_stalk(9, 0)
    )


def test_cm_membership_far_from_zero():
    # both routes see every degree, not only a window around 0
    assert not cm_membership(FormalObject.free_stalk(1, 7))
    assert not cm_membership(FormalObject.cyclic_stalk(2, 40))
    assert cm_membership(FormalObject.free_stalk(1, -40))
    assert cm_membership(FormalObject.cyclic_stalk(3, 0) + FormalObject.free_stalk(2, -9))


def test_cm_membership_agreement_on_corpus():
    rng = rng_from_seed(23)
    for _ in range(300):
        cm_membership(random_fg_object(rng))  # raises on route disagreement


def test_kashiwara_fixtures():
    X = FormalObject.free_stalk(1, 0)
    assert kashiwara1_predicate(zf(2), X, 0) == (True, True, True)
    assert kashiwara1_predicate(zf(2), X, 1) == (False, False, False)
    assert kashiwara1_predicate(E, X, 0) == (True, True, True)
    assert kashiwara2_predicate(zf(2), X, 0) == (True, True)
    assert kashiwara2_predicate(zf(2), X, 1) == (False, False)
    inside = FormalObject.cyclic_stalk(4, 0)
    assert kashiwara2_predicate(zf(2), inside, 0) == (True, True)


def test_kashiwara_equivalence_on_corpus():
    from tstruct.corpus import random_subset_z

    rng = rng_from_seed(29)
    for _ in range(300):
        X = random_fg_object(rng)
        Z = random_subset_z(rng)
        n = rng.randint(-3, 3)
        kashiwara1_predicate(Z, X, n)  # raises on inequivalence
        kashiwara2_predicate(Z, X, n)


def test_dual_filtration_validation():
    codim = DUALIZING.codim
    canonical = canonical_filtration(SPEC_Z)
    assert dual_filtration(canonical, codim) == cm_filtration(codim)
    assert dual_filtration_validate(canonical).ok
    f = from_values(SPEC_Z, {1: zf(2)}, W, E)
    assert dual_filtration_validate(f).ok
    # the transported verdicts really swing together on a specific failure:
    X = FormalObject.cyclic_stalk(2, 1)
    assert not in_coaisle(f, X)
    assert not in_aisle(dual_filtration(f, codim), dualize(X))
    Y = FormalObject.zero()
    assert in_coaisle(f, Y)
    assert in_aisle(dual_filtration(f, codim), dualize(Y))


def test_dual_validation_rejects_non_cousin():
    g = from_values(SPEC_Z, {0: zf(2), 1: zf(2)}, zf(2), E)
    with pytest.raises(ValueError):
        dual_filtration_validate(g)
