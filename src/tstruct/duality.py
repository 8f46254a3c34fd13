"""Grothendieck duality over Z with the stalk dualizing complex.

The ring of integers is Gorenstein of dimension one, so the stalk
complex Z in degree 0 is a dualizing complex.  Duality of a finitely
generated stalk M[-d] is computed from the two-term self-injective
resolution of Z:

    RHom(M[-d], Z)  has  Hom(M, Z) in degree -d  and  Ext^1(M, Z) in
    degree -d + 1,

i.e. the free part reflects and the torsion part shifts one step.  The
associated codimension function (0 at the generic point, 1 at every
maximal ideal) is recomputed here from first local cohomology of the
dualizing complex, and the two Kashiwara-style finiteness predicates
are evaluated in all their equivalent forms, each form a cross-check on
the others.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import random_fg_object, rng_from_seed
from . import derived
from .derived import FormalObject, in_aisle, in_coaisle, rgamma, tau_single
from .elementary import ElementaryModule
from .filtration import SpFiltration, cm_filtration, dual_filtration, weak_cousin
from .spectrum import SPEC_Z, CodimFn, ZSubset, sample_points, specialization_closure, zpoint
from .zmodules import support, tor


@dataclass(frozen=True)
class DualizingData:
    """The fixed dualizing datum: the ring itself in degree 0."""

    complex: FormalObject = FormalObject(((0, ElementaryModule.free(1)),))
    codim: CodimFn = CodimFn.for_specz(0, 1)


DUALIZING = DualizingData()


def codim_from_dualizing(point) -> int:
    """Codimension as the first nonvanishing degree of derived torsion of
    the dualizing complex along the closure of the point.

    >>> codim_from_dualizing(0), codim_from_dualizing(2), codim_from_dualizing(97)
    (0, 1, 1)
    """
    closure = specialization_closure([zpoint(point)], SPEC_Z)
    torsion = rgamma(closure, DUALIZING.complex)
    if torsion.is_zero:
        raise ArithmeticError("dualizing complex lost its torsion: engine bug")
    value = min(torsion.degrees())
    if value != DUALIZING.codim.value(point):
        raise ArithmeticError(
            f"recomputed codimension {value} disagrees at {zpoint(point)}"
        )
    return value


def dualize(X: FormalObject) -> FormalObject:
    """RHom(-, Z[0]) on objects with finitely generated homology.

    >>> str(dualize(FormalObject.cyclic_stalk(2, 0)))
    '{1: Z/2}'
    >>> X = FormalObject.cyclic_stalk(4, 0) + FormalObject.free_stalk(1, 2)
    >>> dualize(dualize(X)) == X
    True
    """
    if not X.is_fg:
        raise ValueError("duality is computed for finitely generated homology only")
    parts = []
    for d, E in X.graded:
        if E.free_rank:
            parts.append((-d, ElementaryModule.free(E.free_rank)))
        if E.torsion:
            parts.append((-d + 1, ElementaryModule(torsion=E.torsion)))
    return FormalObject(tuple(parts))


# ---------------------------------------------------------------------------
# Cohen-Macaulay membership, two ways


def cm_membership(X: FormalObject) -> bool:
    """Membership in the dual image of the canonical aisle.

    Route one: no maps from any nonnegative shift of X into the
    dualizing complex, by the engine's stalk rule (the Hom/Ext tables)
    on each homology stalk.  Route two: support of homology d inside the
    codimension filtration's level d.  The two are asserted equal.

    Torsion is admitted one degree later than rank: Z/2 in degree 0 is a
    member (its support consists of maximal ideals, where the
    codimension is 1 > 0), in degree 1 it is not.

    >>> cm_membership(FormalObject.cyclic_stalk(2, 0))
    True
    >>> cm_membership(FormalObject.cyclic_stalk(2, 1))
    False
    >>> cm_membership(FormalObject.free_stalk(1, 1))
    False
    """
    if not X.is_fg:
        raise ValueError("membership route needs finitely generated homology")
    # Hom(X[i], Z[0]) decomposes over stalks; looked up through the
    # module so that a patched stalk rule reaches this route too
    way1 = all(derived.stalk_maps_vanish(E, d, DUALIZING.complex) for d, E in X.graded)
    way2 = in_aisle(cm_filtration(DUALIZING.codim), X)
    if way1 != way2:
        raise ArithmeticError(
            f"Cohen-Macaulay membership routes disagree on {X}: "
            f"hom says {way1}, supports say {way2}"
        )
    return way1


# ---------------------------------------------------------------------------
# the finiteness predicates


def kashiwara1_predicate(Z: ZSubset, X: FormalObject, n: int):
    """Three equivalent forms of "derived Z-torsion of X lives above n".

    (a) vanishing of ``rgamma`` in degrees <= n; (b) a Tor-support bound
    against the codimension filtration, quantified over the dual's
    support; (c) the same bound stated directly on the dual's support.
    All three are computed independently and must agree.

    >>> kashiwara1_predicate(ZSubset.finite([2]), FormalObject.free_stalk(1, 0), 0)
    (True, True, True)
    >>> kashiwara1_predicate(ZSubset.finite([2]), FormalObject.free_stalk(1, 0), 1)
    (False, False, False)
    """
    if not X.is_fg:
        raise ValueError("the predicate applies to finitely generated homology")
    cm = cm_filtration(DUALIZING.codim)
    DX = dualize(X)
    extra = X.mentioned_primes() | Z.primes

    c1 = rgamma(Z, X).truncate_below(n).is_zero

    c2 = True
    for k, Mk in DX.graded:
        for q in sample_points(support(Mk), Mk.torsion_primes() | extra):
            for p in sample_points(Z, extra):
                t0, t1 = tor(ElementaryModule.cyclic(q.p), ElementaryModule.cyclic(p.p))
                for i, ti in ((0, t0), (1, t1)):
                    if not support(ti).issubset(cm.value(k + n - i)):
                        c2 = False

    c3 = True
    for k, Mk in DX.graded:
        if not Z.meet(support(Mk)).issubset(cm.value(k + n)):
            c3 = False

    if not (c1 == c2 == c3):
        raise ArithmeticError(
            f"finiteness predicate forms disagree: {(c1, c2, c3)} on {X}, "
            f"Z={Z}, n={n}"
        )
    return c1, c2, c3


def kashiwara2_predicate(Z: ZSubset, X: FormalObject, n: int):
    """Two equivalent forms of "the n-truncated Z-torsion of X is finitely
    generated": directly on the truncation vertex, and by the support
    alternative on the dual.

    >>> kashiwara2_predicate(ZSubset.finite([2]), FormalObject.free_stalk(1, 0), 0)
    (True, True)
    >>> kashiwara2_predicate(ZSubset.finite([2]), FormalObject.free_stalk(1, 0), 1)
    (False, False)
    """
    if not X.is_fg:
        raise ValueError("the predicate applies to finitely generated homology")
    cm = cm_filtration(DUALIZING.codim)
    DX = dualize(X)
    extra = X.mentioned_primes() | Z.primes

    c1 = tau_single(n, Z, X).lower.is_fg

    c2 = True
    for k, Mk in DX.graded:
        for q in sample_points(support(Mk), Mk.torsion_primes() | extra):
            if Z.contains(q):
                continue
            closure = specialization_closure([q], SPEC_Z)
            if not Z.meet(closure).issubset(cm.value(k + n)):
                c2 = False

    if c1 != c2:
        raise ArithmeticError(
            f"truncation finiteness forms disagree: {(c1, c2)} on {X}, Z={Z}, n={n}"
        )
    return c1, c2


# ---------------------------------------------------------------------------
# dual-filtration validation


@dataclass(frozen=True)
class DualValidationReport:
    ok: bool
    mismatches: tuple


DUAL_TRIALS = 40


def dual_filtration_validate(filtration: SpFiltration, seed: int = 20251) -> DualValidationReport:
    """Test the dual-filtration formula by orthogonality transport.

    Duality carries the co-aisle of a filtration onto the aisle of its
    dual, so for each of ``DUAL_TRIALS`` sampled finitely generated
    objects X we demand

        in_coaisle(filtration, X)  <=>  in_aisle(dual, dualize(X)).

    A mismatch falsifies the multi-level dual formula and is returned as
    evidence.

    >>> from .filtration import canonical_filtration
    >>> dual_filtration_validate(canonical_filtration(SPEC_Z)).ok
    True
    """
    if not weak_cousin(filtration).holds:
        raise ValueError("dual validation runs on weak-Cousin filtrations")
    dual = dual_filtration(filtration, DUALIZING.codim)
    rng = rng_from_seed(seed)
    mism = []
    for _ in range(DUAL_TRIALS):
        X = random_fg_object(rng)
        left = in_coaisle(filtration, X)
        right = in_aisle(dual, dualize(X))
        if left != right:
            mism.append((str(X), left, right))
    return DualValidationReport(not mism, tuple(mism))
