"""Chain-level cross-validation oracle built on stable Koszul complexes.

The oracle never trusts the atom calculus of the derived engine.  It
represents honest complexes whose terms are finite direct sums of
localizations ``Z[1/m]`` (m a product of the primes in a finite label
set), builds derived torsion for a finite set of maximal ideals
{(p_1), ..., (p_k)} as a tensor with the stable Koszul complex of the
single defining element,

    Z -> Z[1/(p_1 ... p_k)],

localization as the cone of its augmentation, and then *observes* the
result: rational ranks by rank-nullity over Q, and for each prime p in
a window an exact p-local fingerprint per degree.  Dropping the
p-divisible summands leaves a genuine integer complex K_p whose
reductions mod p^t agree with those of the model for every t, so one
integral Smith-normal-form homology per prime fixes all the model shows
at p.  The fingerprint of degree d is the free rank of H^d(K_p) (the
growth count: summands of the reduction mod p^t that grow with t) and
the multiset of p-torsion exponents of H^d(K_p).

An engine answer (a formal object) is checked by predicting the same
fingerprints in closed form and demanding exact agreement.  Finite
p-torsion of any depth is compared exponent by exponent; a divisible
part shows up as a growth count that differs from the rational rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .derived import FormalObject, from_free_complex, rgamma, rq, tau_single
from .elementary import ElementaryModule
from .filtration import SpFiltration
from .spectrum import ZSubset
from .zmodules import (
    FgZModule,
    FreeComplex,
    homology,
    rank_rational,
    zeros,
)


class OracleScopeError(ValueError):
    """The oracle only models finite prime sets and whole-spectrum levels."""


# ---------------------------------------------------------------------------
# complexes of sums of localizations


@dataclass(frozen=True)
class LocFreeComplex:
    """A bounded complex whose degree-d term is a finite sum of Z[1/m].

    ``labels[k]`` lists one frozenset of inverted primes per summand of
    degree ``min_degree + k``; ``diffs[k]`` is an integer matrix mapping
    degree min_degree+k to the next degree (columns index the source).
    A nonzero entry requires the source label to be contained in the
    target label, so that multiplication lands where it should.
    """

    min_degree: int = 0
    labels: tuple = ()  # per degree: tuple of frozenset[int]
    diffs: tuple = ()

    def __post_init__(self):
        labels = tuple(tuple(frozenset(l) for l in row) for row in self.labels)
        diffs = tuple(
            tuple(tuple(int(x) for x in row) for row in M) for M in self.diffs
        )
        min_degree = self.min_degree
        while labels and not labels[-1]:
            labels = labels[:-1]
            diffs = diffs[:-1]
        while labels and not labels[0]:
            labels = labels[1:]
            diffs = diffs[1:]
            min_degree += 1
        if not labels:
            min_degree = 0
        object.__setattr__(self, "min_degree", min_degree)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "diffs", diffs)
        if labels and len(diffs) != len(labels) - 1:
            raise ValueError("need one differential between consecutive degrees")
        for k, M in enumerate(diffs):
            rows, cols = len(M), len(M[0]) if M else 0
            if rows != len(labels[k + 1]) or (rows and cols != len(labels[k])):
                raise ValueError(f"differential {k} has wrong shape")
            for i in range(rows):
                for j in range(cols):
                    if M[i][j] and not labels[k][j] <= labels[k + 1][i]:
                        raise ValueError(
                            "nonzero entry from a more-inverted into a "
                            "less-inverted summand"
                        )
        # composites vanish over Q iff they vanish as integer products
        for k in range(len(diffs) - 1):
            A = [list(r) for r in diffs[k + 1]]
            B = [list(r) for r in diffs[k]]
            if A and B and A[0]:
                from .zmodules import matmul, is_zero_matrix

                if not is_zero_matrix(matmul(A, B)):
                    raise ValueError("d o d != 0")

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.labels) - 1

    def degrees(self):
        return range(self.min_degree, self.min_degree + len(self.labels))

    def labels_at(self, d: int):
        k = d - self.min_degree
        if 0 <= k < len(self.labels):
            return self.labels[k]
        return ()

    def diff_at(self, d: int):
        k = d - self.min_degree
        if 0 <= k < len(self.diffs):
            return [list(row) for row in self.diffs[k]]
        return zeros(len(self.labels_at(d + 1)), len(self.labels_at(d)))

    @property
    def is_zero(self) -> bool:
        return all(not row for row in self.labels)

    @staticmethod
    def zero() -> "LocFreeComplex":
        return LocFreeComplex(0, (), ())

    @staticmethod
    def unit() -> "LocFreeComplex":
        """The ring as a one-term complex in degree 0."""
        return LocFreeComplex(0, ((frozenset(),),), ())

    @staticmethod
    def from_free_complex(X: FreeComplex) -> "LocFreeComplex":
        return LocFreeComplex(
            X.min_degree,
            tuple(tuple(frozenset() for _ in range(r)) for r in X.ranks),
            X.diffs,
        )


def direct_sum(A: LocFreeComplex, B: LocFreeComplex) -> LocFreeComplex:
    if A.is_zero:
        return B
    if B.is_zero:
        return A
    lo = min(A.min_degree, B.min_degree)
    hi = max(A.max_degree, B.max_degree)
    labels = []
    diffs = []
    for d in range(lo, hi + 1):
        labels.append(A.labels_at(d) + B.labels_at(d))
    for d in range(lo, hi):
        la, lb = len(A.labels_at(d)), len(B.labels_at(d))
        ta, tb = len(A.labels_at(d + 1)), len(B.labels_at(d + 1))
        MA, MB = A.diff_at(d), B.diff_at(d)
        M = zeros(ta + tb, la + lb)
        for i in range(ta):
            for j in range(la):
                M[i][j] = MA[i][j]
        for i in range(tb):
            for j in range(lb):
                M[ta + i][la + j] = MB[i][j]
        diffs.append(M)
    return LocFreeComplex(lo, tuple(labels), tuple(tuple(tuple(r) for r in M) for M in diffs))


def tensor(A: LocFreeComplex, B: LocFreeComplex) -> LocFreeComplex:
    """Tensor product with Koszul signs; labels of summands unite."""
    if A.is_zero or B.is_zero:
        return LocFreeComplex.zero()
    lo = A.min_degree + B.min_degree
    hi = A.max_degree + B.max_degree

    def layout(d):
        labels = []
        offs = {}
        for i in A.degrees():
            j = d - i
            la, lb = A.labels_at(i), B.labels_at(j)
            if la and lb:
                offs[(i, j)] = len(labels)
                for x in la:
                    for y in lb:
                        labels.append(x | y)
        return offs, labels

    layouts = [layout(d) for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo, hi):
        offs_s, lab_s = layouts[d - lo]
        offs_t, lab_t = layouts[d + 1 - lo]
        M = zeros(len(lab_t), len(lab_s))
        for (i, j), base_s in offs_s.items():
            ra, rb = len(A.labels_at(i)), len(B.labels_at(j))
            if (i + 1, j) in offs_t:
                base_t = offs_t[(i + 1, j)]
                DA = A.diff_at(i)
                for a in range(len(A.labels_at(i + 1))):
                    for b in range(ra):
                        if DA[a][b]:
                            for c in range(rb):
                                M[base_t + a * rb + c][base_s + b * rb + c] += DA[a][b]
            if (i, j + 1) in offs_t:
                base_t = offs_t[(i, j + 1)]
                DB = B.diff_at(j)
                sgn = -1 if i % 2 else 1
                tb = len(B.labels_at(j + 1))
                for b in range(ra):
                    for a in range(tb):
                        for c in range(rb):
                            if DB[a][c]:
                                M[base_t + b * tb + a][base_s + b * rb + c] += sgn * DB[a][c]
        diffs.append(M)
    return LocFreeComplex(
        lo,
        tuple(tuple(lab) for _, lab in layouts),
        tuple(tuple(tuple(r) for r in M) for M in diffs),
    )


def cone_of_augmentation(A: LocFreeComplex) -> LocFreeComplex:
    """Mapping cone of the degree-0 augmentation A -> unit, for complexes
    with a single plain-Z summand in degree 0 (the stable Koszul shape)."""
    if A.labels_at(0) != (frozenset(),):
        raise ValueError("complex has no canonical augmentation")
    lo = A.min_degree - 1
    hi = A.max_degree
    labels = []
    diffs = []
    for d in range(lo, hi + 1):
        lab = tuple(A.labels_at(d + 1)) + ((frozenset(),) if d == 0 else ())
        labels.append(lab)
    for d in range(lo, hi):
        src_a = A.labels_at(d + 1)
        tgt_a = A.labels_at(d + 2)
        DA = A.diff_at(d + 1)
        rows = len(tgt_a) + (1 if d + 1 == 0 else 0)
        cols = len(src_a) + (1 if d == 0 else 0)
        M = zeros(rows, cols)
        for i in range(len(tgt_a)):
            for j in range(len(src_a)):
                M[i][j] = -DA[i][j]
        if d + 1 == 0:
            # the augmentation component lands on the extra unit summand
            for j in range(len(src_a)):
                M[len(tgt_a)][j] = 1 if src_a[j] == frozenset() else 0
        diffs.append(M)
    return LocFreeComplex(lo, tuple(labels), tuple(tuple(tuple(r) for r in M) for M in diffs))


# ---------------------------------------------------------------------------
# stable Koszul models


def _finite_primes(Z: ZSubset):
    if Z.is_whole:
        return None
    if Z.kind != "finite":
        raise OracleScopeError("the oracle models finite prime sets only")
    return tuple(sorted(Z.primes))


@lru_cache(maxsize=None)
def cech_model(Z: ZSubset) -> LocFreeComplex:
    """The stable Koszul complex computing derived Z-torsion of the ring.

    A finite set of maximal ideals {(p_1), ..., (p_k)} is the vanishing
    locus of the single element p_1 * ... * p_k, so one inversion
    suffices: the model is Z -> Z[1/(p_1...p_k)].  (Tensoring one
    two-term factor per prime would instead compute torsion for the
    ideal generated by all the p_i together, which is the unit ideal as
    soon as there are two distinct primes.)

    >>> W = cech_model(ZSubset.finite([2, 3]))
    >>> [sorted(sorted(l) for l in W.labels_at(d)) for d in W.degrees()]
    [[[]], [[2, 3]]]
    """
    primes = _finite_primes(Z)
    if primes is None:
        return LocFreeComplex.unit()
    if not primes:
        return LocFreeComplex.zero()
    return LocFreeComplex(
        0, ((frozenset(),), (frozenset(primes),)), (((1,),),)
    )


@lru_cache(maxsize=None)
def rq_model_complex(Z: ZSubset) -> LocFreeComplex:
    """Chain model of the localization functor applied to the ring."""
    primes = _finite_primes(Z)
    if primes is None:
        return LocFreeComplex.zero()
    if not primes:
        return LocFreeComplex.unit()
    return cone_of_augmentation(cech_model(Z))


def _atom_models(degree: int, E: ElementaryModule):
    """Chain models (exact in lower degree) for each atom of E at a degree."""
    out = []
    if E.free_rank:
        out.append(
            LocFreeComplex(degree, ((frozenset(),) * E.free_rank,), ())
        )
    for s, r in E.localized:
        primes = _finite_primes(s)
        if primes is None:  # pragma: no cover - guarded by OracleScopeError
            raise OracleScopeError("cofinite localization outside oracle scope")
        out.append(LocFreeComplex(degree, ((frozenset(primes),) * r,), ()))
    for p, e, m in E.torsion:
        for _ in range(m):
            out.append(
                LocFreeComplex(
                    degree - 1,
                    ((frozenset(),), (frozenset(),)),
                    (((p**e,),),),
                )
            )
    for s, m in E.prufer:
        primes = _finite_primes(s)
        if primes is None:
            raise OracleScopeError("cofinite Pruefer sum outside oracle scope")
        for p in primes:
            for _ in range(m):
                out.append(
                    LocFreeComplex(
                        degree - 1,
                        ((frozenset(),), (frozenset([p]),)),
                        (((1,),),),
                    )
                )
    return out


@lru_cache(maxsize=None)
def formal_object_model(F: FormalObject) -> LocFreeComplex:
    """An honest chain complex with the homology the formal object claims."""
    out = LocFreeComplex.zero()
    for d, E in F.graded:
        for piece in _atom_models(d, E):
            out = direct_sum(out, piece)
    return out


# ---------------------------------------------------------------------------
# observables


@dataclass(frozen=True)
class OracleReport:
    """Per-degree rational ranks plus exact p-local fingerprints.

    ``fingerprints[p-index][degree-index]`` is ``(growth, exponents)``:
    the growth count of the (p, degree) row and its p-torsion as sorted
    ``((e, multiplicity), ...)`` pairs, one per summand Z/p^e.
    """

    lo: int
    hi: int
    primes: tuple
    ranks: tuple
    fingerprints: tuple

    def rank_at(self, d: int) -> int:
        return self.ranks[d - self.lo] if self.lo <= d <= self.hi else 0

    def fingerprint(self, p: int, d: int) -> tuple:
        if not (self.lo <= d <= self.hi):
            return (0, ())
        return self.fingerprints[self.primes.index(p)][d - self.lo]

    def divisible_signals(self):
        """(p, d) rows whose growth count differs from the rational rank:
        the signature of Pruefer or localized (non-finitely-generated)
        homology touching p in degrees d or d+1."""
        return tuple(
            (p, d)
            for p, rows in zip(self.primes, self.fingerprints)
            for d, (growth, _) in enumerate(rows, self.lo)
            if growth != self.rank_at(d)
        )


def _mod_p_reduction(W: LocFreeComplex, p: int) -> FreeComplex:
    """Drop the p-divisible summands and integerize: reductions mod p^t of
    the result and of W agree for every t."""
    keep = [
        [j for j, lab in enumerate(W.labels_at(d)) if p not in lab]
        for d in W.degrees()
    ]
    ranks = tuple(len(k) for k in keep)
    diffs = []
    for k in range(len(ranks) - 1):
        M = W.diff_at(W.min_degree + k)
        diffs.append(
            tuple(
                tuple(M[i][j] for j in keep[k]) for i in keep[k + 1]
            )
        )
    return FreeComplex(W.min_degree, ranks, tuple(diffs))


@lru_cache(maxsize=None)
def _integral_homology_mod(W: LocFreeComplex, p: int):
    return homology(_mod_p_reduction(W, p))


def _p_exponents(torsion: tuple, p: int) -> tuple:
    """The ((e, multiplicity), ...) pairs of the p-power summands."""
    return tuple((e, m) for q, e, m in torsion if q == p)


def _window(W: LocFreeComplex) -> tuple:
    return (W.min_degree - 1, W.max_degree + 1) if W.labels else (0, 0)


def fingerprints(W: LocFreeComplex, primes, lo=None, hi=None) -> OracleReport:
    """Observe a complex: rational ranks and p-local fingerprints.

    The fingerprint at p comes from the integral homology of the
    p-reduction K_p, which fixes the homology of every reduction of W
    through universal coefficients:

        H^d(W (x) Z/p^t)  =  H^d(K_p)/p^t  (+)  H^{d+1}(K_p)[p^t].

    >>> W = tensor(LocFreeComplex.unit(), cech_model(ZSubset.finite([2])))
    >>> r = fingerprints(W, (2,))
    >>> r.fingerprint(2, 0), r.rank_at(0), r.rank_at(1)
    ((1, ()), 0, 0)

    (The divisible 2-torsion sitting in degree 1 shows up as a summand
    of degree 0 that grows with t, against zero rational rank.)
    """
    w_lo, w_hi = _window(W)
    lo = w_lo if lo is None else lo
    hi = w_hi if hi is None else hi
    primes = tuple(sorted(set(primes)))
    degrees = range(lo, hi + 1)
    # rational rank of the differential leaving each degree of W
    out_rank = {d: rank_rational(W.diff_at(d)) for d in W.degrees()}
    ranks = tuple(
        len(W.labels_at(d)) - out_rank.get(d, 0) - out_rank.get(d - 1, 0)
        for d in degrees
    )
    zero = FgZModule.zero()
    rows = []
    for p in primes:
        H = _integral_homology_mod(W, p)
        rows.append(
            tuple(
                (M.rank, _p_exponents(M.torsion, p))
                for M in (H.get(d, zero) for d in degrees)
            )
        )
    return OracleReport(lo, hi, primes, ranks, tuple(rows))


_NO_ATOMS = ElementaryModule.zero()


def predicted_fingerprints(
    F: FormalObject, primes, lo: int, hi: int
) -> OracleReport:
    """The fingerprints a formal object must show if it is the truth.

    At p, a free or untouched-localized summand grows in its own degree,
    a p-inverted localized summand vanishes, torsion Z/p^e keeps its
    exponent, and a Pruefer summand at p grows one degree below (its
    p^t-torsion subgroup).
    """
    primes = tuple(sorted(set(primes)))
    graded = dict(F.graded)
    comps = [graded.get(d, _NO_ATOMS) for d in range(lo, hi + 2)]

    def growth(here: ElementaryModule, above: ElementaryModule, p: int) -> int:
        return (
            here.free_rank
            + sum(r for s, r in here.localized if not s.contains(p))
            + sum(m for s, m in above.prufer if s.contains(p))
        )

    ranks = tuple(E.rational_rank for E in comps[:-1])
    rows = tuple(
        tuple(
            (growth(here, above, p), _p_exponents(here.torsion, p))
            for here, above in zip(comps, comps[1:])
        )
        for p in primes
    )
    return OracleReport(lo, hi, primes, ranks, rows)


# ---------------------------------------------------------------------------
# validation of the engine


@dataclass(frozen=True)
class ValidationReport:
    """``mismatches`` holds one ``(kind, prime, degree, got, want)`` entry
    per differing row, sorted by (prime, degree).  ``kind`` is
    ``"rational-rank"`` (prime 0, the generic point) or ``"fingerprint"``;
    ``got`` is what the chain model shows, ``want`` what the claim
    predicts."""

    ok: bool
    mismatches: tuple

    def __bool__(self):
        return self.ok

    @staticmethod
    def of(mismatches) -> "ValidationReport":
        mism = tuple(sorted(mismatches, key=lambda m: m[1:3]))
        return ValidationReport(not mism, mism)


def check_object(F: FormalObject, W: LocFreeComplex, primes) -> ValidationReport:
    """Exact agreement of rational ranks and p-local fingerprints between
    a claimed object and a chain model, row by row."""
    w_lo, w_hi = _window(W)
    lo = min([w_lo] + [d - 1 for d in F.degrees()])
    hi = max([w_hi] + [d + 1 for d in F.degrees()])
    got = fingerprints(W, primes, lo, hi)
    want = predicted_fingerprints(F, primes, lo, hi)
    degrees = range(lo, hi + 1)
    mism = [
        ("rational-rank", 0, d, g, w)
        for d, g, w in zip(degrees, got.ranks, want.ranks)
        if g != w
    ]
    for p, got_rows, want_rows in zip(got.primes, got.fingerprints, want.fingerprints):
        mism.extend(
            ("fingerprint", p, d, g, w)
            for d, g, w in zip(degrees, got_rows, want_rows)
            if g != w
        )
    return ValidationReport.of(mism)


def _relevant_primes(*sources) -> tuple:
    out = set()
    for s in sources:
        if isinstance(s, ZSubset):
            out |= set(s.primes)
        elif isinstance(s, FormalObject):
            out |= set(s.mentioned_primes())
        elif isinstance(s, SpFiltration):
            out |= set(s.mentioned_primes())
        elif isinstance(s, (set, frozenset, tuple, list)):
            out |= set(s)
    return tuple(sorted(out)) or (2,)


def validate_rgamma(Z: ZSubset, X: FreeComplex, primes=None) -> ValidationReport:
    """Engine rgamma versus the honest stable-Koszul tensor.

    >>> validate_rgamma(ZSubset.finite([2]), FreeComplex.stalk_free(1, 0)).ok
    True
    """
    F = rgamma(Z, from_free_complex(X))
    W = tensor(LocFreeComplex.from_free_complex(X), cech_model(Z))
    primes = primes or _relevant_primes(Z, F)
    return check_object(F, W, primes)


def validate_rq(Z: ZSubset, X: FreeComplex, primes=None) -> ValidationReport:
    F = rq(Z, from_free_complex(X))
    W = tensor(LocFreeComplex.from_free_complex(X), rq_model_complex(Z))
    primes = primes or _relevant_primes(Z, F)
    return check_object(F, W, primes)


def _gamma_module(Z: ZSubset, E: ElementaryModule) -> ElementaryModule:
    """Module-level Z-torsion part (plain module theory, no derived rules):
    torsion-free atoms have none, p-power atoms are all-or-nothing, and a
    Pruefer sum restricts to the primes of Z."""
    if Z.is_whole:
        return E
    parts = ElementaryModule.zero()
    for p, e, m in E.torsion:
        if Z.contains(p):
            parts = parts + ElementaryModule.cyclic_torsion(p, e, m)
    for s, m in E.prufer:
        parts = parts + ElementaryModule.prufer_sum(s.meet(Z), m)
    return parts


def _quotient_module(Z: ZSubset, E: ElementaryModule) -> ElementaryModule:
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


@lru_cache(maxsize=None)
def tau_single_models(i: int, Z: ZSubset, F: FormalObject):
    """Chain models of the two vertices of the one-level truncation.

    Works stalk by stalk on a split model of F: a fully absorbed stalk
    contributes its stable Koszul tensor below and its localization cone
    above; a stalk at the cut degree splits off its module-level torsion;
    higher stalks pass through.
    """
    lower = LocFreeComplex.zero()
    upper = LocFreeComplex.zero()
    for d, E in F.graded:
        piece = formal_object_model(FormalObject.stalk(E, d))
        if d + 1 <= i:
            lower = direct_sum(lower, tensor(piece, cech_model(Z)))
            upper = direct_sum(upper, tensor(piece, rq_model_complex(Z)))
        elif d <= i:
            lower = direct_sum(
                lower, formal_object_model(FormalObject.stalk(_gamma_module(Z, E), d))
            )
            upper = direct_sum(
                upper, formal_object_model(FormalObject.stalk(_quotient_module(Z, E), d))
            )
        else:
            upper = direct_sum(upper, piece)
    return lower, upper




def _check_tau_step(i: int, Z: ZSubset, F: FormalObject, res, primes) -> ValidationReport:
    """Check a computed one-level truncation ``res`` of F against the
    chain models, both vertices."""
    wl, wu = tau_single_models(i, Z, F)
    primes = primes or _relevant_primes(Z, F, res.lower, res.upper)
    low = check_object(res.lower, wl, primes)
    up = check_object(res.upper, wu, primes)
    return ValidationReport.of(low.mismatches + up.mismatches)


def validate_tau_single(
    i: int, Z: ZSubset, F: FormalObject, primes=None
) -> ValidationReport:
    """Engine one-level truncation versus the chain models, both vertices."""
    return _check_tau_step(i, Z, F, tau_single(i, Z, F), primes)


def validate_tau_filtration(
    filtration: SpFiltration, F: FormalObject, primes=None
) -> ValidationReport:
    """Validate every one-level step of the composed truncation.

    Each step's vertices are checked against their chain models; the
    next step consumes the engine's (validated) upper vertex.
    """
    if filtration.is_constant:
        Z = filtration.tail
        mism = []
        for build, claim in (
            (cech_model, rgamma(Z, F)),
            (rq_model_complex, rq(Z, F)),
        ):
            W = tensor(formal_object_model(F), build(Z))
            pr = primes or _relevant_primes(Z, F, claim)
            mism.extend(check_object(claim, W, pr).mismatches)
        return ValidationReport.of(mism)
    s, n = filtration.determined_interval()
    mism = []
    current = F
    for j in range(s, n + 1):
        Z = filtration.value(j)
        step = tau_single(j, Z, current)
        pr = primes or _relevant_primes(Z, F, filtration, step.lower, step.upper)
        mism.extend(_check_tau_step(j, Z, current, step, pr).mismatches)
        current = step.upper
    return ValidationReport.of(mism)


def cech_oracle(levels, X: FreeComplex, primes=None) -> dict:
    """Observe the derived torsion of X at each level, chain-level.

    ``levels`` is an iterable of sp-subsets (each a finite prime set or
    the whole spectrum); the result maps each level to the fingerprint
    report of the stable Koszul model tensored with X.

    >>> rep = cech_oracle([ZSubset.finite([2])], FreeComplex.stalk_free(1, 0))
    >>> rep[ZSubset.finite([2])].divisible_signals()
    ((2, 0),)
    """
    out = {}
    for Z in levels:
        W = tensor(LocFreeComplex.from_free_complex(X), cech_model(Z))
        out[Z] = fingerprints(W, primes or _relevant_primes(Z, from_free_complex(X)))
    return out


def divisible_rank_detection(F: FormalObject, primes=None):
    """Observe a model of F and report the (p, degree) rows where growth
    count and rational rank part ways: the chain-level signature of
    non-finitely-generated homology."""
    W = formal_object_model(F)
    return fingerprints(W, primes or _relevant_primes(F)).divisible_signals()
