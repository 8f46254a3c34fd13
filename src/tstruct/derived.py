"""The derived-category engine over Z.

Objects are represented by their graded homology: over a hereditary
ring every complex is isomorphic to the direct sum of its shifted
homologies, and every predicate consumed here (support, vanishing,
finite generation, orthogonality) only sees homology.  Each degree
carries an elementary module, so local cohomology, localization and
the truncation functors of a finite filtration by supports become
explicit atom-by-atom computations:

* ``rgamma``   -- derived torsion with supports in an sp-subset Z; over
  Z it is concentrated in homological degrees 0 and 1, and the degree
  splitting holds because first local cohomology is divisible, hence
  injective.
* ``rq``       -- the complementary localization (third vertex of the
  torsion triangle); inverts the primes of Z.
* ``tau_single`` / ``tau_filtration`` -- truncation triangles of the
  aisle attached to one level, resp. to a finite filtration, the latter
  as the composition of the one-level right truncations.

Membership predicates implement the classification of compactly
generated aisles: the aisle is cut out by degreewise support inclusion,
the co-aisle by vanishing of ``rgamma`` below each level index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .elementary import ElementaryModule
from .filtration import SpFiltration, canonical_filtration, from_values
from .jsonio import integer
from .spectrum import GENERIC, SPEC_Z, ZSubset, sample_points, zpoint
from .zmodules import FreeComplex, homology, hom_ext_tables, hom_ext_vanish


@dataclass(frozen=True)
class FormalObject:
    """A formal derived object: one elementary module per degree.

    >>> FormalObject.stalk(ElementaryModule.free(1), 0).shift(1).degrees()
    (-1,)
    """

    graded: tuple = ()  # ((degree, ElementaryModule), ...)

    # a constant: over Spec(Z) every truncation is determinate
    is_determinate = True

    def __post_init__(self):
        acc: dict[int, ElementaryModule] = {}
        for d, E in self.graded:
            if not E.is_zero:
                acc[d] = acc.get(d, ElementaryModule.zero()) + E
        object.__setattr__(
            self, "graded", tuple(sorted(acc.items()))
        )

    @staticmethod
    def _canonical(graded: tuple) -> "FormalObject":
        """The object of graded data that is already canonical: degrees
        strictly ascending, no zero module.  Nothing is re-merged."""
        obj = object.__new__(FormalObject)
        object.__setattr__(obj, "graded", graded)
        return obj

    @staticmethod
    def zero() -> "FormalObject":
        return FormalObject()

    @staticmethod
    def stalk(E: ElementaryModule, degree: int = 0) -> "FormalObject":
        return FormalObject(((degree, E),))

    @staticmethod
    def free_stalk(rank: int, degree: int = 0) -> "FormalObject":
        return FormalObject.stalk(ElementaryModule.free(rank), degree)

    @staticmethod
    def cyclic_stalk(n: int, degree: int = 0) -> "FormalObject":
        """The stalk Z/n placed in one degree (Z itself for n = 0)."""
        return FormalObject.stalk(ElementaryModule.cyclic(n), degree)

    def component(self, d: int) -> ElementaryModule:
        for dd, E in self.graded:
            if dd == d:
                return E
        return ElementaryModule.zero()

    def degrees(self) -> tuple:
        return tuple(d for d, _ in self.graded)

    @property
    def is_zero(self) -> bool:
        return not self.graded

    @property
    def is_fg(self) -> bool:
        """Finitely generated homology in every degree."""
        return all(E.is_fg for _, E in self.graded)

    def shift(self, k: int) -> "FormalObject":
        """X[k]: homology in degree d moves to degree d - k."""
        return FormalObject._canonical(tuple((d - k, E) for d, E in self.graded))

    def __add__(self, other: "FormalObject") -> "FormalObject":
        if not self.graded:
            return other
        if not other.graded:
            return self
        return FormalObject(self.graded + other.graded)

    def truncate_below(self, i: int) -> "FormalObject":
        """Degrees <= i (the good-truncation homology slice)."""
        return FormalObject._canonical(tuple((d, E) for d, E in self.graded if d <= i))

    def nonfg_atoms(self) -> tuple:
        out = []
        for d, E in self.graded:
            for s, r in E.localized:
                out.append((d, "localized", s, r))
            for s, m in E.prufer:
                out.append((d, "prufer", s, m))
        return tuple(out)

    def mentioned_primes(self) -> frozenset[int]:
        out: set[int] = set()
        for _, E in self.graded:
            out |= E.mentioned_primes()
        return frozenset(out)

    def __str__(self):
        if self.is_zero:
            return "0"
        return "{" + ", ".join(f"{d}: {E}" for d, E in self.graded) + "}"

    def to_json(self) -> dict:
        return {
            "graded": [[d, E.to_json()] for d, E in self.graded],
            "determinate": True,
        }

    @staticmethod
    def from_json(obj: dict) -> "FormalObject":
        return FormalObject(
            tuple(
                (integer(d, "degree"), ElementaryModule.from_json(e))
                for d, e in obj.get("graded", ())
            )
        )


@lru_cache(maxsize=128)
def from_free_complex(X: FreeComplex) -> FormalObject:
    """The formal object of a free complex: its homology, degree by degree.
    Memoized (bounded), since the oracle checks one complex at many levels.

    >>> str(from_free_complex(FreeComplex.koszul([2])))
    '{0: Z/2}'
    """
    return FormalObject(tuple(homology(X).items()))


# ---------------------------------------------------------------------------
# local cohomology and localization, atom by atom


def gamma_and_r1(Z: ZSubset, E: ElementaryModule):
    """Torsion part and first local cohomology with supports in Z.

    For Z the whole spectrum this is the identity (and 0).  Otherwise Z
    is a set of maximal ideals and, atomwise: torsion-free atoms have no
    Z-torsion and their first local cohomology is the Pruefer sum over
    the primes of Z not already inverted; torsion atoms are either fully
    Z-torsion or invisible; divisible atoms have no higher part.

    >>> g, r1 = gamma_and_r1(ZSubset.finite([2]), ElementaryModule.free(1))
    >>> str(g), str(r1)
    ('0', 'Z(2^oo)')
    """
    if Z.is_whole:
        return E, ElementaryModule.zero()
    gamma = ElementaryModule.zero()
    r1 = ElementaryModule.zero()
    if E.free_rank:
        r1 = r1 + ElementaryModule.prufer_sum(Z, E.free_rank)
    for s, r in E.localized:
        r1 = r1 + ElementaryModule.prufer_sum(Z.minus(s), r)
    for p, e, m in E.torsion:
        if Z.contains(p):
            gamma = gamma + ElementaryModule.cyclic_torsion(p, e, m)
    for s, m in E.prufer:
        gamma = gamma + ElementaryModule.prufer_sum(s.meet(Z), m)
    return gamma, r1


def q_localize(Z: ZSubset, E: ElementaryModule) -> ElementaryModule:
    """The localization inverting the primes of Z (degree-0 part of the
    localization triangle); zero when Z is the whole spectrum."""
    if Z.is_whole:
        return ElementaryModule.zero()
    out = ElementaryModule.localized_free(Z, E.free_rank) if E.free_rank else ElementaryModule.zero()
    for s, r in E.localized:
        out = out + ElementaryModule.localized_free(s.join(Z), r)
    for p, e, m in E.torsion:
        if not Z.contains(p):
            out = out + ElementaryModule.cyclic_torsion(p, e, m)
    for s, m in E.prufer:
        out = out + ElementaryModule.prufer_sum(s.minus(Z), m)
    return out


def torsion_quotient(Z: ZSubset, E: ElementaryModule) -> ElementaryModule:
    """E modulo its Z-torsion part (zero when Z is everything)."""
    if Z.is_whole:
        return ElementaryModule.zero()
    out = ElementaryModule.free(E.free_rank)
    for s, r in E.localized:
        out = out + ElementaryModule.localized_free(s, r)
    for p, e, m in E.torsion:
        if not Z.contains(p):
            out = out + ElementaryModule.cyclic_torsion(p, e, m)
    for s, m in E.prufer:
        out = out + ElementaryModule.prufer_sum(s.minus(Z), m)
    return out


def rgamma(Z: ZSubset, X: FormalObject) -> FormalObject:
    """Derived torsion with supports in Z.

    Degree d collects the Z-torsion of homology d plus the first local
    cohomology of homology d - 1 (the connecting extension splits since
    first local cohomology is divisible).

    >>> str(rgamma(ZSubset.finite([2]), FormalObject.free_stalk(1, 0)))
    '{1: Z(2^oo)}'
    """
    parts = []
    for d, E in X.graded:
        g, r1 = gamma_and_r1(Z, E)
        parts.append((d, g))
        parts.append((d + 1, r1))
    return FormalObject(tuple(parts))


def rq(Z: ZSubset, X: FormalObject) -> FormalObject:
    """The localization vertex of the torsion triangle for Z.

    >>> str(rq(ZSubset.finite([2]), FormalObject.free_stalk(1, 0)))
    '{0: Z[1/2]}'
    """
    return FormalObject(tuple((d, q_localize(Z, E)) for d, E in X.graded))


# ---------------------------------------------------------------------------
# truncation


@dataclass(frozen=True)
class TruncationResult:
    lower: FormalObject
    upper: FormalObject

    determinate = True  # see FormalObject.is_determinate

    def __iter__(self):
        yield self.lower
        yield self.upper


@lru_cache(maxsize=128)
def tau_single(i: int, Z: ZSubset, X: FormalObject) -> TruncationResult:
    """Truncation triangle of the aisle "degrees <= i with supports in Z".

    The lower vertex is the good truncation of ``rgamma(Z, X)`` at i.
    The upper vertex is assembled atomwise from the torsion triangle:

    * homology fully absorbed (degree + 1 <= i): the upper contribution
      is the localization at Z, resolving the canonical nonsplit
      extension of the Pruefer part by the torsion-free quotient;
    * homology at degree i exactly: only the torsion sub is removed;
    * homology above i: untouched.

    Steps are memoized (the inputs are frozen values and the answer is
    exact), so a composed truncation and its validation, or two
    filtrations that start alike, share them.  The memo is bounded;
    ``suites`` clears it with the oracle caches, once per criterion.

    >>> lo, up = tau_single(1, ZSubset.finite([2]), FormalObject.free_stalk(1))
    >>> str(lo), str(up)
    ('{1: Z(2^oo)}', '{0: Z[1/2]}')
    """
    if X.is_zero or X.graded[0][0] > i:
        # every stalk is above the cut, so X is in the co-aisle
        return TruncationResult(FormalObject.zero(), X)
    # X is canonical, so both vertices are built canonical: one entry per
    # degree, ascending, no zero module, and only r1 of the stalk in
    # degree d - 1 meets g of the stalk in degree d
    lower, upper = [], []
    for d, E in X.graded:
        if d > i:
            upper.append((d, E))
            continue
        g, r1 = gamma_and_r1(Z, E)
        if lower and lower[-1][0] == d:
            g = lower.pop()[1] + g
        if not g.is_zero:
            lower.append((d, g))
        rest = q_localize(Z, E) if d < i else torsion_quotient(Z, E)
        if not rest.is_zero:
            upper.append((d, rest))
        if d < i and not r1.is_zero:
            lower.append((d + 1, r1))
    return TruncationResult(
        FormalObject._canonical(tuple(lower)), FormalObject._canonical(tuple(upper))
    )


def tau_filtration(filtration: SpFiltration, X: FormalObject) -> TruncationResult:
    """Truncation triangle of the aisle of a finite filtration.

    The right truncation is the composition of the one-level right
    truncations along the determined interval; the left vertex collects
    the first step's lower part and then one new homology per level,
    which the composition pins to sit exactly in that degree.

    >>> f = from_values(SPEC_Z, {0: ZSubset.finite([2]), 1: ZSubset.finite([2])},
    ...                 ZSubset.finite([2]), ZSubset.empty())
    >>> lo, up = tau_filtration(f, FormalObject.free_stalk(1, 0))
    >>> str(lo), str(up)
    ('{1: Z(2^oo)}', '{0: Z[1/2]}')
    """
    _require_specz(filtration)
    if not filtration.is_finite:
        raise ValueError("truncation requires a finite filtration")
    if filtration.is_constant:
        Z = filtration.tail
        return TruncationResult(rgamma(Z, X), rq(Z, X))
    s, n = filtration.determined_interval()
    lower_acc = FormalObject.zero()
    current = X
    for j in range(s, n + 1):
        step = tau_single(j, filtration.value(j), current)
        if j > s and any(d != j for d in step.lower.degrees()):
            raise ArithmeticError(
                "intermediate lower vertex escaped its level degree: engine bug"
            )
        lower_acc = lower_acc + step.lower
        current = step.upper
    return TruncationResult(lower_acc, current)


# ---------------------------------------------------------------------------
# membership


def _require_specz(filtration: SpFiltration):
    if filtration.spectrum != SPEC_Z:
        raise ValueError("the derived engine computes over Spec(Z) only")


def in_aisle(filtration: SpFiltration, X: FormalObject) -> bool:
    """Aisle membership: support of homology d inside level d, for all d.

    >>> in_aisle(canonical_filtration(SPEC_Z), FormalObject.free_stalk(1, 0))
    True
    >>> in_aisle(canonical_filtration(SPEC_Z), FormalObject.free_stalk(1, 1))
    False
    """
    _require_specz(filtration)
    return all(E.support_in(filtration.value(d)) for d, E in X.graded)


def in_coaisle(filtration: SpFiltration, X: FormalObject) -> bool:
    """Co-aisle membership: rgamma at level j vanishes in degrees <= j.

    Checked on the window plus one step into the constant tail; a
    nonempty head forces the corresponding torsion to vanish outright.
    """
    _require_specz(filtration)
    for j in range(filtration.start - 1, filtration.window_end + 1):
        torsion = rgamma(filtration.value(j), X)
        if not torsion.truncate_below(j).is_zero:
            return False
    if not filtration.head.is_empty:
        if not rgamma(filtration.head, X).is_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# orthogonality


@dataclass(frozen=True)
class OrthogonalityReport:
    holds: bool
    witnesses: tuple  # ((point, i, m, group), ...)

    def __bool__(self):
        return self.holds


def _generator_module(point) -> ElementaryModule:
    pt = zpoint(point)
    if pt.is_generic:
        return ElementaryModule.free(1)
    return ElementaryModule.cyclic_torsion(pt.p, 1)


def orthogonality_check(
    filtration: SpFiltration, Y: FormalObject, window: tuple[int, int]
) -> OrthogonalityReport:
    """Check Hom(G[-i], Y[m]) = 0 for the cyclic generators G at the
    points of level i, all i in the window and all shifts m <= 0.

    Maps out of a stalk in degree i into a stalk in degree b - m live in
    Ext^(i-(b-m)); only exponents 0 and 1 survive over Z, so each pair
    contributes at m = b - i (Hom) and m = b - i + 1 (Ext^1).  Only the
    vanishing of the two groups is decided; a group is built only to
    name it in a witness.

    >>> f = from_values(SPEC_Z, {1: ZSubset.finite([2])}, ZSubset.finite([2]),
    ...                 ZSubset.empty())
    >>> orthogonality_check(f, FormalObject.stalk(
    ...     ElementaryModule.localized_free(ZSubset.finite([2]), 1), 0), (-2, 2)).holds
    True
    """
    _require_specz(filtration)
    lo, hi = window
    object_primes = Y.mentioned_primes()
    witnesses = []
    for i in range(lo, hi + 1):
        level = filtration.value(i)
        if level.is_empty:
            continue
        for pt in sample_points(level, object_primes):
            G = _generator_module(pt)
            for b, E in Y.graded:
                m = b - i
                if m > 0:
                    break  # degrees ascend: no later shift is <= 0 either
                hom_zero, ext_zero = hom_ext_vanish(G, E)
                if hom_zero and (ext_zero or m == 0):
                    continue
                hom, ext = hom_ext_tables(G, E)
                if not hom_zero:
                    witnesses.append((str(pt), i, m, str(hom)))
                if m < 0 and not ext_zero:
                    witnesses.append((str(pt), i, m + 1, str(ext)))
    return OrthogonalityReport(not witnesses, tuple(witnesses))


# ---------------------------------------------------------------------------
# generator-reduction crosscheck


def stalk_maps_vanish(A: ElementaryModule, a: int, Y: FormalObject) -> bool:
    """No maps from the stalk A in degree a into Y[m] for any m <= 0.

    Against each homology E of Y in degree b, Hom(A, E) must vanish when
    b - a <= 0 and Ext^1(A, E) when b - a + 1 <= 0; the degrees of Y
    ascend, so the loop stops at the first b > a.
    """
    for b, E in Y.graded:
        if b > a:
            break
        hom_zero, ext_zero = hom_ext_vanish(A, E)
        if not hom_zero or (b - a + 1 <= 0 and not ext_zero):
            return False
    return True


@dataclass(frozen=True)
class GeneratorReductionReport:
    agree: bool
    via_hom_complex: bool
    via_stalk_generators: bool


def generator_reduction_crosscheck(X: FreeComplex, Y: FormalObject) -> GeneratorReductionReport:
    """Two routes to "no maps from X into nonpositive shifts of Y".

    Route one computes Hom(X, Y[i]) for i <= 0 through the hereditary
    splitting of X and the Hom/Ext tables.  Route two tests the stalk
    generators at the minimal primes of each homology support.  The two
    must agree; the report records both verdicts.  Both sides are exact:
    only finitely many shifts can contribute, so no window is needed.
    """
    H = homology(X)
    cond1 = all(stalk_maps_vanish(Ma, a, Y) for a, Ma in H.items())
    # minimal primes of each support: the generic point alone when the
    # rank is positive, otherwise the torsion primes themselves
    cond3 = all(
        stalk_maps_vanish(_generator_module(p), a, Y)
        for a, Ma in H.items()
        for p in ([GENERIC] if Ma.free_rank > 0 else sorted(Ma.torsion_primes()))
    )
    return GeneratorReductionReport(cond1 == cond3, cond1, cond3)


# ---------------------------------------------------------------------------
# the non-finite-generation witness


@dataclass(frozen=True)
class NonFgWitnessReport:
    lower: FormalObject
    upper: FormalObject
    lower_nonfg: bool
    upper_nonfg: bool
    offending: tuple

    @property
    def holds(self) -> bool:
        return self.lower_nonfg and self.upper_nonfg


def cousin_failure_witness(p, q, j: int, filtration: SpFiltration) -> NonFgWitnessReport:
    """Truncate the stalk of the smaller prime and exhibit the failure of
    finite generation forced by a broken Cousin transition.

    Hypotheses: p maximal under q, q in level j, p not in level j - 1
    (over Spec(Z): p generic, q a maximal ideal).  The input is the
    stalk R/p in degree j - 1; both truncation vertices must then leave
    the finitely generated world, and the Pruefer/localized atoms that
    appear are returned.
    """
    _require_specz(filtration)
    pp, qq = zpoint(p), zpoint(q)
    if not pp.is_generic or qq.is_generic:
        raise ValueError("over Spec(Z) a covering pair is (generic, maximal)")
    if not filtration.value(j).contains(qq):
        raise ValueError(f"hypothesis violated: {qq} not in level {j}")
    if filtration.value(j - 1).contains(pp):
        raise ValueError(f"hypothesis violated: {pp} lies in level {j - 1}")
    X = FormalObject.free_stalk(1, j - 1)
    lower, upper = tau_filtration(filtration, X)
    return NonFgWitnessReport(
        lower=lower,
        upper=upper,
        lower_nonfg=not lower.is_fg,
        upper_nonfg=not upper.is_fg,
        offending=lower.nonfg_atoms() + upper.nonfg_atoms(),
    )
