"""Chain-level cross-validation oracle built on stable Koszul complexes.

The oracle never trusts the atom calculus of the derived engine.  It
works with honest complexes whose terms are finite direct sums of
localizations ``Z[1/S]``, one ``ZSubset`` S of inverted primes (finite
or cofinite) per summand: ``zmodules.FreeComplex`` values, whose
plain Z summands carry the empty label.  It builds derived torsion for
a set Z of maximal ideals as a tensor with the stable Koszul complex

    Z -> Z[1/Z],

localization as the cone of its augmentation, and then *observes* the
result: rational ranks by rank-nullity over Q, and for each prime p of
a finite set an exact p-local fingerprint per degree.  Dropping the
p-divisible summands leaves a genuine integer complex K_p whose
reductions mod p^t agree with those of the model for every t, so one
integral Smith-normal-form homology per prime fixes all the model shows
at p.  The fingerprint of degree d is the free rank of H^d(K_p) (the
growth count: summands of the reduction mod p^t that grow with t) and
the multiset of p-torsion exponents of H^d(K_p).

A model is a direct sum of blocks, kept as a tuple of validated
complexes (one rank-one block per copy of an atom of a formal object,
or one stable-Koszul tensor per such block) and never assembled into
one block-diagonal complex.  Homology is additive, so each block is
observed once, by a cache keyed by its labels and differentials (not
its start degree, since re-indexing a complex re-indexes its
homology), and a model's rows are its blocks' rows added.

Each distinct chain-level piece is built once per suite run and placed
where it is needed by a degree shift, which keeps its labels and
differentials:

* integral homology runs once per distinct p-reduction K_p, however
  many blocks and primes share it, and each prime reads its p-part;
* a tensor A (x) B is observed without being built: the p-reduction of
  a product is the product of the factors' p-reductions, so the
  Kuenneth formula gives its rows from the factors' rows
  (``_kuenneth``), and its rational ranks are products of theirs;
* a truncation step is checked only where it acts.  A stalk above the
  cut is in the co-aisle already and passes to the upper vertex
  untouched, so the claim's stalks there are compared with the input's
  by identity, and a step whose cut lies below its whole input has the
  one claim ``(0, input)``, accepted as it stands.  At and below the cut
  the truncation functors commute with direct sums, so a vertex's rows
  are sums of unit atoms' rows (free, localized, ``Z/p^e``, Pruefer),
  each observed once per atom and set of primes on a block in degree 0
  and added shifted to the stalk's degree, m times over for m copies;
  below the cut the summed rows meet the level's two models in one
  Kuenneth product per vertex;
* a claim's predicted rows are computed once per stalk module and set
  of primes and placed at the stalk's degree.

Every distinct block still passes the label-containment and d∘d checks.

Each kind of engine answer has one observation path.  rgamma and rq of
a free complex X are observed on the built product of X with the
level's model: ``tensor`` distributes the one Koszul product
``zmodules.tensor``, built once per shape with the left factor in the
degree of its parity, over the blocks of models.  That is the only
tensor the oracle builds.  A truncation along a filtration is observed
step by step: below the cut the stalks' summed rows are tensored, by
Kuenneth, with the level's stable Koszul complex and with its
localization cone; at the cut a stalk splits into its module-level
torsion and the quotient; above the cut it is the input's own stalk.  A
constant filtration is one step whose cut lies above every degree of
the object.  The chain-level route of the generator reduction reads
Hom(X, Y) = X^v (x) Y by Kuenneth too.  Every row still comes from
Smith normal forms of chain models, never from the engine's atom rules.

An engine answer (a formal object) is checked by predicting the same
fingerprints in closed form and demanding exact agreement.  Rows keep
nonzero entries only, so the observed and predicted tables are
compared as plain dicts; reports are built, and the union of their
keys scanned, only on a mismatch.
Finite p-torsion of any depth is compared exponent by exponent; a
divisible part shows up as a growth count that differs from the
rational rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .derived import FormalObject, TruncationResult, from_free_complex, rgamma, rq, tau_single
from .elementary import ElementaryModule
from .filtration import SpFiltration
from .spectrum import ZSubset, fresh_prime
from . import zmodules
from .zmodules import FreeComplex, homology, rank_rational


# ---------------------------------------------------------------------------
# models as sums of blocks


def _blocks(W) -> tuple:
    """The blocks of a model: a tuple of blocks, or one block on its own."""
    if isinstance(W, FreeComplex):
        return () if W.is_zero else (W,)
    return W


def tensor(A, B):
    """Tensor product with Koszul signs; labels of summands unite.

    Two blocks give one block (``zmodules.tensor``); on models the product
    distributes over the pairs of blocks and gives a model.
    """
    if isinstance(A, FreeComplex) and isinstance(B, FreeComplex):
        return zmodules.tensor(A, B)
    return tuple(zmodules.tensor(a, b) for a in _blocks(A) for b in _blocks(B))


# ---------------------------------------------------------------------------
# stable Koszul models


@lru_cache(maxsize=None)
def cech_model(Z: ZSubset) -> FreeComplex:
    """The stable Koszul complex computing derived Z-torsion of the ring.

    A finite set of maximal ideals {(p_1), ..., (p_k)} is the vanishing
    locus of the single element p_1 * ... * p_k, so one inversion
    suffices: the model is Z -> Z[1/(p_1...p_k)].  (Tensoring one
    two-term factor per prime would instead compute torsion for the
    ideal generated by all the p_i together, which is the unit ideal as
    soon as there are two distinct primes.)  For a cofinite Z the model
    Z -> Z[1/Z] is the filtered colimit of those of its finite subsets.

    >>> cech_model(ZSubset.cofinite([5])).labels
    ((ZSubset.finite([]),), (ZSubset.cofinite([5]),))
    """
    if Z.is_whole:
        return FreeComplex.stalk_free(1)
    if Z.is_empty:
        return FreeComplex.zero()
    return FreeComplex(0, ((ZSubset.empty(),), (Z,)), (((1,),),))


@lru_cache(maxsize=None)
def rq_model_complex(Z: ZSubset) -> FreeComplex:
    """Chain model of the localization functor applied to the ring: the
    cone of the augmentation of ``cech_model(Z)``, Z in degree -1 mapped
    by (-1, 1) to Z[1/Z] (+) Z in degree 0."""
    if Z.is_whole:
        return FreeComplex.zero()
    if Z.is_empty:
        return FreeComplex.stalk_free(1)
    ring = ZSubset.empty()
    return FreeComplex(-1, ((ring,), (Z, ring)), (((-1,), (1,)),))


def _atom_models(degree: int, E: ElementaryModule):
    """Chain models (exact in lower degree) for the atoms of E at a
    degree: one rank-one block per copy, the same value repeated."""
    out = []
    if E.free_rank:
        out.extend([FreeComplex.stalk_free(1, degree)] * E.free_rank)
    for s, r in E.localized:
        out.extend([FreeComplex(degree, ((s,),), ())] * r)
    for p, e, m in E.torsion:
        out.extend([FreeComplex.cyclic_resolution(p**e, degree)] * m)
    # Z[1/S]/Z is the Pruefer sum over S: one block Z -> Z[1/S] per copy
    for s, m in E.prufer:
        out.extend([cech_model(s)._at(degree - 1)] * m)
    return out


@lru_cache(maxsize=None)
def formal_object_model(F: FormalObject) -> tuple:
    """An honest chain model with the homology the formal object claims:
    one block per atom."""
    return tuple(piece for d, E in F.graded for piece in _atom_models(d, E))


# ---------------------------------------------------------------------------
# observables


_ZERO_ROW = (0, ())


@dataclass(frozen=True)
class OracleReport:
    """Rational ranks plus exact p-local fingerprints, nonzero rows only.

    ``ranks`` maps a degree to its rational rank; ``rows`` maps
    ``(p, degree)`` to ``(growth, exponents)``: the growth count of the
    row and its p-torsion as sorted ``((e, multiplicity), ...)`` pairs,
    one per summand Z/p^e.
    """

    primes: tuple
    ranks: dict
    rows: dict

    def rank_at(self, d: int) -> int:
        return self.ranks.get(d, 0)

    def fingerprint(self, p: int, d: int) -> tuple:
        if p not in self.primes:
            raise ValueError(f"prime {p} was not observed")
        return self.rows.get((p, d), _ZERO_ROW)


def _mod_p_reduction(labels: tuple, diffs: tuple, p: int) -> tuple:
    """The ranks and differentials of K_p: drop the p-divisible summands
    of a block and integerize.  Reductions mod p^t of K_p and of the
    block agree for every t."""
    keep = [[j for j, lab in enumerate(row) if not lab.contains(p)] for row in labels]
    return (
        tuple(len(k) for k in keep),
        tuple(
            tuple(tuple(M[i][j] for j in keep[k]) for i in keep[k + 1])
            for k, M in enumerate(diffs)
        ),
    )


@lru_cache(maxsize=None)
def _integral_homology_mod(labels: tuple, diffs: tuple, p: int) -> tuple:
    """The nonzero p-local rows ``((k, growth, exponents), ...)`` of one
    block, k counted from the block's lowest degree."""
    rows = (
        (k, rank, _p_exponents(torsion, p))
        for k, rank, torsion in _reduced_homology(*_mod_p_reduction(labels, diffs, p))
    )
    return tuple(row for row in rows if row[1] or row[2])


@lru_cache(maxsize=None)
def _reduced_homology(ranks: tuple, diffs: tuple) -> tuple:
    """The integral homology ``((k, rank, torsion), ...)`` of a
    p-reduction, computed once however many blocks and primes share it."""
    return tuple(
        (k, M.free_rank, M.torsion)
        for k, M in homology(FreeComplex.free(0, ranks, diffs)).items()
    )


@lru_cache(maxsize=None)
def _rational_ranks(sizes: tuple, diffs: tuple) -> tuple:
    """The nonzero rational homology ranks ``((k, rank), ...)`` of one
    block with ``sizes[k]`` summands in degree k, counted from the
    block's lowest degree (over Q every Z[1/S] is Q: labels do not count)."""
    # rational ranks of the differentials into and out of each degree
    rk = [0] + [rank_rational([list(r) for r in M]) for M in diffs] + [0]
    ranks = ((k, n - rk[k] - rk[k + 1]) for k, n in enumerate(sizes))
    return tuple((k, r) for k, r in ranks if r)


def _p_exponents(torsion: tuple, p: int) -> tuple:
    """The ((e, multiplicity), ...) pairs of the p-power summands."""
    return tuple((e, m) for q, e, m in torsion if q == p)


def _merge_exponents(a: tuple, b: tuple) -> tuple:
    acc = dict(a)
    for e, m in b:
        acc[e] = acc.get(e, 0) + m
    return tuple(sorted(acc.items()))


def _observe(W, primes: tuple) -> tuple:
    """The ``(ranks, rows)`` dicts of a model at sorted primes: the sums
    of its blocks' rows (see ``fingerprints``)."""
    ranks: dict = {}
    rows: dict = {}
    for B in _blocks(W):
        base = B.min_degree
        for k, r in _rational_ranks(B.ranks, B.diffs):
            ranks[base + k] = ranks.get(base + k, 0) + r
        for p in primes:
            for k, growth, exps in _integral_homology_mod(B.labels, B.diffs, p):
                _add_row(rows, (p, base + k), growth, exps)
    return ranks, rows


def _add_row(rows: dict, key: tuple, growth: int, exps: tuple) -> None:
    """Add one row: growth counts add and exponent multisets merge."""
    if key in rows:
        g, x = rows[key]
        rows[key] = (g + growth, _merge_exponents(x, exps))
    else:
        rows[key] = (growth, exps)


def _tensor_rows(A, B, primes: tuple) -> tuple:
    """The ``(ranks, rows)`` dicts of the model A (x) B at sorted primes,
    read off the rows of the factors without building the product
    (``_kuenneth`` of their ``_observe`` tables).

    >>> Z4 = FreeComplex.cyclic_resolution(4)
    >>> _tensor_rows(Z4, FreeComplex.cyclic_resolution(2), (2,))
    ({}, {(2, 0): (0, ((1, 1),)), (2, -1): (0, ((1, 1),))})
    """
    return _kuenneth(_observe(A, primes), _by_prime(_observe(B, primes)))


def _by_prime(table: tuple) -> tuple:
    """A ``(ranks, rows)`` table as ``(ranks items, {p: ((d, growth,
    exponents), ...)})``: its rows grouped by prime, the right factor's
    form for ``_kuenneth``."""
    ranks, rows = table
    grouped: dict = {}
    for (p, d), (growth, exps) in rows.items():
        grouped.setdefault(p, []).append((d, growth, exps))
    return tuple(ranks.items()), {p: tuple(r) for p, r in grouped.items()}


def _kuenneth(a: tuple, b: tuple) -> tuple:
    """The ``(ranks, rows)`` dicts of A (x) B from the table ``a`` of A
    (``_observe``'s dicts) and the table ``b`` of B grouped by prime
    (``_by_prime``).

    Dropping the p-divisible summands commutes with (x), so the
    p-reduction of a product is the product of the p-reductions, a
    tensor of bounded free Z-complexes, and the Kuenneth formula (Weibel,
    *An Introduction to Homological Algebra*, 3.6.3) gives its homology:
    H^n = sum over i + j = n of H^i (x) H^j, plus Tor(H^i, H^j) over
    i + j = n + 1.  At p, growth counts multiply, a free row carries the
    other factor's exponents times its growth, and each pair Z/p^a,
    Z/p^b gives Z/p^min(a, b) in degree i + j and again, from Tor, in
    degree i + j - 1 (torsion at other primes meets nothing at p).  Over
    Q rational ranks multiply.  The formula is bilinear, so a table
    summed over many blocks gives the rows of the summed product.
    """
    ranks_a, rows_a = a
    ranks_b, rows_b = b
    ranks: dict = {}
    for i, r in ranks_a.items():
        for j, s in ranks_b:
            ranks[i + j] = ranks.get(i + j, 0) + r * s
    rows: dict = {}
    for (p, i), (growth_a, exps_a) in rows_a.items():
        for j, growth_b, exps_b in rows_b.get(p, ()):
            _add_kuenneth_pair(rows, p, i + j, growth_a, exps_a, growth_b, exps_b)
    return ranks, rows


def _add_kuenneth_pair(rows, p, d, growth_a, exps_a, growth_b, exps_b) -> None:
    """Add the Kuenneth rows of one pair of p-local rows in degree d: the
    tensor part in d and the Tor part in d - 1."""
    acc: dict = {}
    for exps, growth in ((exps_a, growth_b), (exps_b, growth_a)):
        if growth:
            for e, m in exps:
                acc[e] = acc.get(e, 0) + growth * m
    tor: dict = {}
    for e, m in exps_a:
        for f, n in exps_b:
            tor[min(e, f)] = tor.get(min(e, f), 0) + m * n
    for e, m in tor.items():
        acc[e] = acc.get(e, 0) + m
    if growth_a * growth_b or acc:
        _add_row(rows, (p, d), growth_a * growth_b, tuple(sorted(acc.items())))
    if tor:
        _add_row(rows, (p, d - 1), 0, tuple(sorted(tor.items())))


def fingerprints(W, primes) -> OracleReport:
    """Observe a model (a tuple of blocks, or one block): rational ranks
    and p-local fingerprints.

    The fingerprint at p comes from the integral homology of the
    p-reduction K_p, which fixes the homology of every reduction of W
    through universal coefficients:

        H^d(W (x) Z/p^t)  =  H^d(K_p)/p^t  (+)  H^{d+1}(K_p)[p^t].

    Homology is additive over blocks, so the rows of W are the sums of
    its blocks' rows: growth counts add and exponent multisets merge.

    >>> W = tensor(FreeComplex.stalk_free(1), cech_model(ZSubset.finite([2])))
    >>> r = fingerprints(W, (2,))
    >>> r.fingerprint(2, 0), r.rank_at(0), r.rank_at(1)
    ((1, ()), 0, 0)

    (The divisible 2-torsion sitting in degree 1 shows up as a summand
    of degree 0 that grows with t, against zero rational rank.)
    """
    primes = tuple(sorted(set(primes)))
    return OracleReport(primes, *_observe(W, primes))


def predicted_fingerprints(F: FormalObject, primes) -> OracleReport:
    """The fingerprints a formal object must show if it is the truth.

    At p, a free or untouched-localized summand grows in its own degree,
    a p-inverted localized summand vanishes, torsion Z/p^e keeps its
    exponent, and a Pruefer summand at p grows one degree below (its
    p^t-torsion subgroup).
    """
    primes = tuple(sorted(set(primes)))
    return OracleReport(primes, *_predict(F, primes))


def _predict(F: FormalObject, primes: tuple) -> tuple:
    """The ``(ranks, rows)`` dicts of ``predicted_fingerprints`` at
    sorted primes: each stalk's rows (``_stalk_prediction``) placed at
    its degree."""
    ranks: dict = {}
    rows: dict = {}
    # only a stalk's own degree brings torsion exponents to a row (the
    # stalk above adds Pruefer growth there), so exponents concatenate
    for d, E in F.graded:
        rank, stalk_rows = _stalk_prediction(E, primes)
        if rank:
            ranks[d] = rank
        for p, k, growth, exps in stalk_rows:
            g, x = rows.get((p, d + k), _ZERO_ROW)
            rows[(p, d + k)] = (g + growth, x + exps)
    return ranks, rows


@lru_cache(maxsize=None)
def _stalk_prediction(E: ElementaryModule, primes: tuple) -> tuple:
    """The rational rank of a stalk E and its nonzero predicted rows
    ``((p, k, growth, exponents), ...)`` at sorted primes, k the offset
    from the stalk's degree: at p, a free or untouched-localized summand
    grows in row k = 0, where torsion Z/p^e keeps its exponent, a
    p-inverted localized summand vanishes, and a Pruefer summand at p
    grows in row k = -1."""
    out = []
    for p in primes:
        growth = E.free_rank + sum(r for s, r in E.localized if not s.contains(p))
        exps = _p_exponents(E.torsion, p)
        if growth or exps:
            out.append((p, 0, growth, exps))
        below = sum(m for s, m in E.prufer if s.contains(p))
        if below:
            out.append((p, -1, below, ()))
    return E.rational_rank, tuple(out)


# ---------------------------------------------------------------------------
# validation of the engine


@dataclass(frozen=True)
class ValidationReport:
    """``mismatches`` holds one ``(kind, prime, degree, got, want)`` entry
    per differing row, sorted by (prime, degree).  ``kind`` is
    ``"rational-rank"`` (prime 0, the generic point) or ``"fingerprint"``;
    ``got`` is what the chain model shows, ``want`` what the claim
    predicts.  A truncation step whose rows all agree but whose upper
    vertex changes a stalk above the cut has one ``"stalk"`` entry
    (prime 0) at the lowest such degree: ``got`` the input's stalk there,
    ``want`` the claim's."""

    ok: bool
    mismatches: tuple

    def __bool__(self):
        return self.ok

    @staticmethod
    def of(mismatches) -> "ValidationReport":
        mism = tuple(sorted(mismatches, key=lambda m: m[1:3]))
        return ValidationReport(False, mism) if mism else _AGREE


_AGREE = ValidationReport(True, ())  # shared: most checks agree


def check_object(F: FormalObject, W, primes) -> ValidationReport:
    """Exact agreement of rational ranks and p-local fingerprints between
    a claimed object and a chain model, row by row, over every degree
    either side shows."""
    primes = tuple(sorted(set(primes)))
    return _compare(_observe(W, primes), F, primes)


def _compare(observed: tuple, F: FormalObject, primes: tuple) -> ValidationReport:
    """Compare observed ``(ranks, rows)`` dicts at sorted primes with the
    claim's predicted ones.

    Both sides keep nonzero rows only, so equal tables mean agreement
    and are the common case; only a disagreement builds the two reports
    and is scanned row by row.
    """
    predicted = _predict(F, primes)
    if observed == predicted:
        return _AGREE
    got = OracleReport(primes, *observed)
    want = OracleReport(primes, *predicted)
    mism = [
        ("rational-rank", 0, d, got.rank_at(d), want.rank_at(d))
        for d in got.ranks.keys() | want.ranks.keys()
        if got.rank_at(d) != want.rank_at(d)
    ]
    mism.extend(
        ("fingerprint", p, d, got.fingerprint(p, d), want.fingerprint(p, d))
        for p, d in got.rows.keys() | want.rows.keys()
        if got.fingerprint(p, d) != want.fingerprint(p, d)
    )
    return ValidationReport.of(mism)


def _relevant_primes(*sources, known=()) -> tuple:
    """The sorted primes named by the sources (levels and objects) and
    ``known``, or (2,), with the least prime named by none of them when
    a source names a cofinite set: every unnamed prime acts as that one."""
    out = set(known)
    cofinite = False
    for s in sources:
        if isinstance(s, ZSubset):
            out |= s.primes
            cofinite = cofinite or s.kind == "cofinite"
            continue
        for _, E in s.graded:
            out |= E.mentioned_primes()
            for t, _ in E.localized + E.prufer:
                cofinite = cofinite or t.kind == "cofinite"
    if cofinite:
        out.add(fresh_prime(out))
    return tuple(sorted(out)) or (2,)


def validate_rgamma(Z: ZSubset, X: FreeComplex) -> ValidationReport:
    """Engine rgamma versus the honest stable-Koszul tensor.

    >>> validate_rgamma(ZSubset.finite([2]), FreeComplex.stalk_free(1, 0)).ok
    True
    """
    return _validate_functor("rgamma", Z, X)


def validate_rq(Z: ZSubset, X: FreeComplex) -> ValidationReport:
    """Engine rq versus the cone of the stable-Koszul augmentation."""
    return _validate_functor("rq", Z, X)


def _validate_functor(kind: str, Z: ZSubset, X: FreeComplex) -> ValidationReport:
    """Check the engine's ``kind`` ("rgamma" or "rq") at Z of a complex."""
    F = from_free_complex(X)
    if kind == "rgamma":
        claim, C = rgamma(Z, F), cech_model(Z)
    else:
        claim, C = rq(Z, F), rq_model_complex(Z)
    return check_object(claim, tensor(X, C), _relevant_primes(Z, claim))


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


def _atoms(E: ElementaryModule):
    """The atoms of E as ``(key, multiplicity)`` pairs, one key per unit
    atom (one copy): ``(make, *args)`` names the module ``make(*args)``,
    free, each localized set, each ``(p, e)`` and each Pruefer set, and is
    hashed without building it."""
    if E.free_rank:
        yield (ElementaryModule.free, 1), E.free_rank
    for s, r in E.localized:
        yield (ElementaryModule.localized_free, s, 1), r
    for p, e, m in E.torsion:
        yield (ElementaryModule.cyclic_torsion, p, e), m
    for s, m in E.prufer:
        yield (ElementaryModule.prufer_sum, s), m


@lru_cache(maxsize=None)
def _atom_rows(atom_key: tuple, primes: tuple) -> tuple:
    """The observed rows of one unit atom's own model (``_atoms``) in
    degree 0 at sorted primes, as ``(ranks, rows)`` item tuples.  Rows of
    a block do not depend on its start degree, so they hold in every
    degree after a shift; the atom is built only on a miss."""
    atom = atom_key[0](*atom_key[1:])
    ranks, rows = _observe(formal_object_model(FormalObject.stalk(atom)), primes)
    return tuple(ranks.items()), tuple(rows.items())


@lru_cache(maxsize=None)
def _level_rows(Z: ZSubset, primes: tuple) -> tuple:
    """The observed rows of ``cech_model(Z)`` and of ``rq_model_complex(Z)``
    at sorted primes, each grouped by prime (``_by_prime``), the right
    factors of a step's Kuenneth products below the cut."""
    return tuple(_by_prime(_observe(build(Z), primes)) for build in (cech_model, rq_model_complex))


def _add_scaled(observed: tuple, ranks: tuple, rows: tuple, shift: int, m: int) -> None:
    """Add m copies of rows ``ranks = ((d, rank), ...)`` and ``rows =
    (((p, d), (growth, exponents)), ...)``, moved up by ``shift`` degrees,
    into the ``(ranks, rows)`` dicts of ``observed``: ranks and growth
    counts times m, exponent multiplicities times m."""
    acc_ranks, acc_rows = observed
    for d, r in ranks:
        acc_ranks[d + shift] = acc_ranks.get(d + shift, 0) + m * r
    for (p, d), (growth, exps) in rows:
        if m != 1:
            exps = tuple((e, m * k) for e, k in exps)
        _add_row(acc_rows, (p, d + shift), m * growth, exps)


def _add_atoms(observed: tuple, E: ElementaryModule, d: int, primes: tuple) -> None:
    """Add the rows of the stalk E in degree d into the ``(ranks, rows)``
    dicts of ``observed``: each unit atom's rows, m times over for m
    copies, moved up to d."""
    for key, m in _atoms(E):
        _add_scaled(observed, *_atom_rows(key, primes), d, m)


def _tau_step_rows(i: int, Z: ZSubset, F: FormalObject, primes: tuple) -> tuple:
    """The ``(ranks, rows)`` dicts, one pair per vertex, that the chain
    models of the one-level truncation of F at (i, Z) show at sorted
    primes.  The models are those of a split model of F, and homology is
    additive, so every row is a sum of unit atoms' rows (``_atom_rows``):

    * below the cut the stalks' rows are summed into one table, whose
      products with ``cech_model(Z)`` and ``rq_model_complex(Z)`` are the
      vertices' parts, one table-level ``_kuenneth`` each with the
      level's rows (``_level_rows``);
    * at the cut the stalk splits into its module-level Z-torsion
      (lower) and the quotient (upper);
    * above the cut each stalk passes to the upper vertex as it is.
    """
    below: tuple = ({}, {})
    for d, E in F.graded:
        if d >= i:
            break
        _add_atoms(below, E, d, primes)
    if below[0] or below[1]:
        lower, upper = (_kuenneth(below, table) for table in _level_rows(Z, primes))
    else:
        lower, upper = ({}, {}), ({}, {})
    for d, E in F.graded:
        if d == i:
            _add_atoms(lower, _gamma_module(Z, E), i, primes)
            _add_atoms(upper, _quotient_module(Z, E), i, primes)
        elif d > i:
            _add_atoms(upper, E, d, primes)
    return lower, upper


def _cut_index(G: FormalObject, i: int) -> int:
    """The number of stalks of G in degrees <= i."""
    return next((k for k, (d, _) in enumerate(G.graded) if d > i), len(G.graded))


def _step_mismatches(i: int, Z: ZSubset, F: FormalObject, claim, primes: tuple) -> tuple:
    """The row mismatches of the claimed vertices ``claim`` against the
    chain models of the step at (i, Z) on F, lower vertex first."""
    lower, upper = _tau_step_rows(i, Z, F, primes)
    return (
        _compare(lower, claim.lower, primes).mismatches
        + _compare(upper, claim.upper, primes).mismatches
    )


def _check_tau_step(i: int, Z: ZSubset, F: FormalObject, res, primes: tuple) -> ValidationReport:
    """Check a computed one-level truncation ``res`` of F against the
    chain models, both vertices, at sorted primes.

    A stalk in degree d > i is in the co-aisle already (its derived
    Z-torsion lives in degrees d and d + 1), so it passes to the upper
    vertex untouched, and the upper vertex's stalks above the cut are
    compared with the input's by identity.  When they agree, only the
    parts at or below the cut are observed and predicted: the rest adds
    the same rows to both sides.  A mismatch there, or stalks that
    differ, has the whole input observed, so the rows are reported as
    they are; and when stalks differ while every row agrees, the report
    holds one ``"stalk"`` entry at the lowest degree where they differ.
    """
    k, m = _cut_index(F, i), _cut_index(res.upper, i)
    above, claimed = F.graded[k:], res.upper.graded[m:]
    if above == claimed:
        head = TruncationResult(res.lower, FormalObject._canonical(res.upper.graded[:m]))
        if not _step_mismatches(i, Z, FormalObject._canonical(F.graded[:k]), head, primes):
            return _AGREE
    mism = _step_mismatches(i, Z, F, res, primes)
    if not mism and above != claimed:
        got, want = dict(above), dict(claimed)
        d = min(d for d in got.keys() | want.keys() if got.get(d) != want.get(d))
        zero = ElementaryModule.zero()
        mism = (("stalk", 0, d, got.get(d, zero), want.get(d, zero)),)
    return ValidationReport.of(mism)


def validate_tau_filtration(filtration: SpFiltration, F: FormalObject) -> ValidationReport:
    """Validate every one-level step of the composed truncation.

    Each step's vertices are checked against their chain models; the
    next step consumes the engine's (validated) upper vertex.  The steps
    come from the engine's memo, so after ``tau_filtration(filtration, F)``
    these are the very steps it composed.  Each step is checked at the
    primes of F and the filtration, found once, and at those its own
    vertices name, so a prime the engine invents is observed too.  Every
    step's input descends from F along the filtration, so a fresh prime
    is observed when F, the filtration or the step names a cofinite set.

    A step whose input is zero or lies in degrees above its cut leaves
    the input in the co-aisle: the claim ``(0, input)`` is accepted as it
    stands, with no primes or rows computed, and any other claim takes
    the full step check.

    A constant filtration at Z is one step whose cut lies above every
    degree of F: its claim is ``(rgamma(Z, F), rq(Z, F))``, checked at
    the primes of Z, F and both vertices.
    """
    if filtration.is_constant:
        Z = filtration.tail
        claim = TruncationResult(rgamma(Z, F), rq(Z, F))
        cut = max(F.degrees(), default=0) + 1
        return _check_tau_step(cut, Z, F, claim, _relevant_primes(Z, F, *claim))
    s, n = filtration.determined_interval()
    known = F.mentioned_primes() | filtration.mentioned_primes()
    named = filtration.all_level_values() + [t for _, _, t, _ in F.nonfg_atoms()]
    cofinite = [t for t in named if t.kind == "cofinite"]
    mism = []
    current = F
    for j in range(s, n + 1):
        Z = filtration.value(j)
        step = tau_single(j, Z, current)
        identity = current.is_zero or current.graded[0][0] > j
        if identity and step.lower.is_zero and step.upper == current:
            continue
        pr = _relevant_primes(Z, step.lower, step.upper, *cofinite, known=known)
        mism.extend(_check_tau_step(j, Z, current, step, pr).mismatches)
        current = step.upper
    return ValidationReport.of(mism)


def no_maps_into_nonpositive_shifts(X: FreeComplex, Y: FormalObject) -> bool:
    """No maps from the free complex X into Y[m] for any m <= 0, read off
    the chain complex Hom(X, Y) = X^v (x) Y of a model of Y, whose rows
    come by Kuenneth from those of X^v and of the model (``_tensor_rows``).

    Its homology H^m is Hom(X, Y[m]), an elementary module.  Its torsion
    lies at the torsion primes of X or at primes Y names; its Pruefer
    parts at primes Y names or, for a cofinite set, at the fresh prime
    that stands for the unnamed ones; one further fresh prime is observed
    too.  A Pruefer summand of H^m grows in row (p, m - 1), so H^m
    vanishes for every m <= 0 exactly when the rational ranks there are
    zero, every row (p, m <= -1) is zero and row (p, 0) has no torsion
    exponents (its growth is Pruefer from H^1).

    >>> no_maps_into_nonpositive_shifts(FreeComplex.cyclic_resolution(2, 0),
    ...                                 FormalObject.free_stalk(1, -1))
    False
    """
    primes = _relevant_primes(Y, from_free_complex(X))
    primes = tuple(sorted(primes + (fresh_prime(primes),)))
    ranks, rows = _tensor_rows(_dual(X), formal_object_model(Y), primes)
    return all(r == 0 for d, r in ranks.items() if d <= 0) and all(
        d > 0 or (d == 0 and not exps) for (_, d), (_, exps) in rows.items()
    )


def _dual(X: FreeComplex) -> FreeComplex:
    """X^v = Hom(X, Z) of a complex of free Z-modules: the dual of degree
    d sits in degree -d, differentials transposed."""
    ranks = X.ranks
    return FreeComplex.free(
        -X.max_degree,
        ranks[::-1],
        tuple(
            tuple(tuple(row[j] for row in X.diffs[k]) for j in range(ranks[k]))
            for k in reversed(range(len(X.diffs)))
        ),
    )


# the oracle's model and observation caches, which grow without bound
_CACHES = (
    cech_model,
    rq_model_complex,
    formal_object_model,
    _atom_rows,
    _level_rows,
    _stalk_prediction,
    _integral_homology_mod,
    _reduced_homology,
    _rational_ranks,
)


def clear_caches():
    """Empty every oracle cache, so that a caller can scope them to one run:
    the ones here and the per-shape block product of ``zmodules.tensor``."""
    zmodules.clear_caches()
    for cached in _CACHES:
        cached.cache_clear()
