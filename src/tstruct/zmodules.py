"""Exact linear algebra over Z.

Smith normal form with unimodular transforms, bounded complexes of
finite sums of localizations Z[1/S] (finite free Z-modules when nothing
is inverted) with their Koszul-sign tensor product, the homology of
complexes of finite free Z-modules as finitely generated elementary
modules (read off the invariant factors of the differentials, one Smith
normal form each), supports, and the Hom/Ext/Tor tables for elementary
modules.  All arithmetic is exact (Python integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .elementary import ElementaryModule
from .jsonio import integer
from .spectrum import ZSubset, factorint

Matrix = list  # list of rows, each a list of ints; shape (rows, cols)

NEG_INF = float("-inf")


class UnsupportedPairError(ValueError):
    """Hom/Ext requested for a pair outside the supported tables."""


# ---------------------------------------------------------------------------
# matrix utilities


def mat_shape(M: Matrix) -> tuple[int, int]:
    return len(M), len(M[0]) if M else 0


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def matmul(A: Matrix, B: Matrix) -> Matrix:
    ra, ca = mat_shape(A)
    rb, cb = mat_shape(B)
    if ca != rb:
        raise ValueError(f"shape mismatch {ra}x{ca} @ {rb}x{cb}")
    out = zeros(ra, cb)
    for i in range(ra):
        Ai = A[i]
        Oi = out[i]
        for k in range(ca):
            a = Ai[k]
            if a:
                Bk = B[k]
                for j in range(cb):
                    Oi[j] += a * Bk[j]
    return out


def mat_copy(M: Matrix) -> Matrix:
    return [row[:] for row in M]


def is_zero_matrix(M: Matrix) -> bool:
    return all(x == 0 for row in M for x in row)


def rank_mod_p(M: Matrix, p: int) -> int:
    """Rank of an integer matrix over the field Z/p."""
    rows = [[x % p for x in row] for row in M]
    m, n = mat_shape(rows)
    rank = 0
    col = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def rank_rational(M: Matrix) -> int:
    """Rank over Q, by fraction-free (Bareiss) elimination."""
    A = mat_copy(M)
    m, n = mat_shape(A)
    rank = 0
    prev = 1
    for col in range(n):
        piv = next((i for i in range(rank, m) if A[i][col] != 0), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                A[i][j] = (A[rank][col] * A[i][j] - A[i][col] * A[rank][j]) // prev
            A[i][col] = 0
        prev = A[rank][col]
        rank += 1
        if rank == m:
            break
    return rank


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Exact Smith normal form: returns (D, U, V) with D = U @ M @ V.

    U and V are unimodular, D is diagonal with d1 | d2 | ... and zeros
    last; diagonal entries are nonnegative.

    >>> D, U, V = smith_normal_form([[2, 0], [0, 3]])
    >>> [D[i][i] for i in range(2)]
    [1, 6]
    >>> matmul(matmul(U, [[2, 0], [0, 3]]), V) == D
    True
    """
    m, n = mat_shape(M)
    D = mat_copy(M)
    U = identity(m)
    V = identity(n)

    def row_gcd_step(i, j, col):
        # unimodular transform on rows (i, j) making D[i][col] = gcd, D[j][col] = 0
        a, b = D[i][col], D[j][col]
        if b == 0:
            return
        if a == 0:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]
            return
        if b % a == 0:
            q = b // a  # plain elimination keeps the pivot row clean
            D[j] = [s - q * r for r, s in zip(D[i], D[j])]
            U[j] = [s - q * r for r, s in zip(U[i], U[j])]
            return
        g, x, y = _xgcd(a, b)
        a_, b_ = a // g, b // g
        Di, Dj = D[i], D[j]
        Ui, Uj = U[i], U[j]
        D[i] = [x * r + y * s for r, s in zip(Di, Dj)]
        D[j] = [-b_ * r + a_ * s for r, s in zip(Di, Dj)]
        U[i] = [x * r + y * s for r, s in zip(Ui, Uj)]
        U[j] = [-b_ * r + a_ * s for r, s in zip(Ui, Uj)]

    def col_gcd_step(j, k, row):
        a, b = D[row][j], D[row][k]
        if b == 0:
            return
        if a == 0:
            for r in range(m):
                D[r][j], D[r][k] = D[r][k], D[r][j]
            for r in range(n):
                V[r][j], V[r][k] = V[r][k], V[r][j]
            return
        if b % a == 0:
            q = b // a
            for r in range(m):
                D[r][k] -= q * D[r][j]
            for r in range(n):
                V[r][k] -= q * V[r][j]
            return
        g, x, y = _xgcd(a, b)
        a_, b_ = a // g, b // g
        for r in range(m):
            rj, rk = D[r][j], D[r][k]
            D[r][j] = x * rj + y * rk
            D[r][k] = -b_ * rj + a_ * rk
        for r in range(n):
            rj, rk = V[r][j], V[r][k]
            V[r][j] = x * rj + y * rk
            V[r][k] = -b_ * rj + a_ * rk

    t = 0
    while t < min(m, n):
        # choose a pivot of minimal absolute value in the lower-right block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < best[0]):
                    best = (abs(D[i][j]), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            D[t], D[bi] = D[bi], D[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for r in range(m):
                D[r][t], D[r][bj] = D[r][bj], D[r][t]
            for r in range(n):
                V[r][t], V[r][bj] = V[r][bj], V[r][t]
        while True:
            for i in range(t + 1, m):
                row_gcd_step(t, i, t)
            for j in range(t + 1, n):
                col_gcd_step(t, j, t)
            if any(D[i][t] for i in range(t + 1, m)):
                continue
            # pivot must divide the whole remaining block
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            D[t] = [r + s for r, s in zip(D[t], D[offender])]
            U[t] = [r + s for r, s in zip(U[t], U[offender])]
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return D, U, V


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def snf_invariants(M: Matrix) -> list[int]:
    """The diagonal of the Smith normal form, zeros included.

    >>> snf_invariants([[2, 0], [0, 3]])
    [1, 6]
    """
    D, _, _ = smith_normal_form(M)
    m, n = mat_shape(D)
    return [D[i][i] for i in range(min(m, n))]


# ---------------------------------------------------------------------------
# finitely generated modules


def support(M: ElementaryModule) -> ZSubset:
    """Support of a finitely generated module in Spec(Z).

    >>> support(ElementaryModule.cyclic(12))
    ZSubset.finite([2, 3])
    >>> support(ElementaryModule.free(1))
    ZSubset.whole()
    """
    if not M.is_fg:
        # a localized or Pruefer module's support is no sp-subset
        raise ValueError("support of a module that is not finitely generated")
    if M.free_rank > 0:
        return ZSubset.whole()
    return ZSubset.finite(M.torsion_primes())


def tor(A: ElementaryModule, B: ElementaryModule) -> tuple[ElementaryModule, ElementaryModule]:
    """(Tor_0, Tor_1) = (A (x) B, Tor_1(A, B)) over the PID Z, for
    finitely generated A and B.

    Tor_0(Z/a, Z/b) = Tor_1(Z/a, Z/b) = Z/gcd(a, b), extended bilinearly;
    Tor_1 vanishes against free factors.

    >>> t0, t1 = tor(ElementaryModule.cyclic(4), ElementaryModule.cyclic(6))
    >>> str(t0), str(t1)
    ('Z/2', 'Z/2')
    """
    if not (A.is_fg and B.is_fg):
        # only the free and finite torsion atoms are read
        raise ValueError("tor of a module that is not finitely generated")
    tor0 = [(p, e, m) for p, e, m in A.torsion for _ in range(B.free_rank)]
    tor0 += [(p, e, m) for p, e, m in B.torsion for _ in range(A.free_rank)]
    tor1 = []
    for p, e, m in A.torsion:
        for q, f, mm in B.torsion:
            if p == q:
                tor0.append((p, min(e, f), m * mm))
                tor1.append((p, min(e, f), m * mm))
    return (
        ElementaryModule(A.free_rank * B.free_rank, torsion=tuple(tor0)),
        ElementaryModule(torsion=tuple(tor1)),
    )


# ---------------------------------------------------------------------------
# complexes of sums of localizations

_RING = ZSubset.empty()  # the label of a plain Z summand: nothing inverted


def _plain(labels: tuple) -> bool:
    """Whether every summand is Z itself.  ``tuple.count`` tries identity
    first, so rows of the shared ``_RING`` are read at C speed."""
    flat = sum(labels, ())
    return flat.count(_RING) == len(flat)


@dataclass(frozen=True)
class FreeComplex:
    """A bounded complex whose degree-d term is a finite sum of Z[1/S],
    differentials upward.

    ``labels[k]`` lists one ``ZSubset`` S of inverted primes, finite or
    cofinite, per summand Z[1/S] of degree ``min_degree + k``; the empty
    S labels Z itself, so a complex of finite free Z-modules has only
    empty labels (build one from its ranks with ``FreeComplex.free``).
    ``diffs[k]`` is the integer matrix of the map from degree
    ``min_degree + k`` to the next one acting on column vectors, so its
    shape is (len(labels[k+1]), len(labels[k])).  A nonzero entry
    requires the source label to be contained in the target label, so
    that multiplication lands where it should.  Composites must vanish.
    Empty degrees at either end are trimmed, and the zero complex starts
    in degree 0.
    """

    min_degree: int = 0
    labels: tuple = ()  # per degree: tuple of ZSubset
    diffs: tuple = ()  # tuple of matrices as tuples of tuples

    def __post_init__(self):
        labels = tuple(map(tuple, self.labels))
        diffs = tuple(tuple(tuple(map(int, row)) for row in M) for M in self.diffs)
        if len(diffs) != max(len(labels) - 1, 0):
            raise ValueError("need exactly one differential between consecutive terms")
        for k, M in enumerate(diffs):
            n = len(labels[k])
            if len(M) != len(labels[k + 1]) or any(len(row) != n for row in M):
                raise ValueError(f"differential {k} has wrong shape")
        if not all(isinstance(s, ZSubset) and not s.is_whole for r in labels for s in r):
            raise ValueError("a label must be a finite or cofinite ZSubset")
        for k, M in enumerate(diffs):
            for j, source in enumerate(labels[k]):
                if not source.is_empty and any(
                    row[j] and not source.issubset(target)
                    for row, target in zip(M, labels[k + 1])
                ):
                    raise ValueError(
                        "nonzero entry from a more-inverted into a less-inverted summand"
                    )
        # composites vanish over Q iff they vanish as integer products
        for k in range(len(diffs) - 1):
            A = [list(r) for r in diffs[k + 1]]
            B = [list(r) for r in diffs[k]]
            if A and B and A[0] and not is_zero_matrix(matmul(A, B)):
                raise ValueError("d o d != 0")
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

    # -- access ---------------------------------------------------------------

    @property
    def ranks(self) -> tuple:
        """The number of summands in each degree."""
        return tuple(map(len, self.labels))

    @property
    def max_degree(self) -> int:
        return self.min_degree + len(self.labels) - 1

    def degrees(self) -> range:
        return range(self.min_degree, self.min_degree + len(self.labels))

    def labels_at(self, d: int) -> tuple:
        k = d - self.min_degree
        if 0 <= k < len(self.labels):
            return self.labels[k]
        return ()

    def rank_at(self, d: int) -> int:
        k = d - self.min_degree
        if 0 <= k < len(self.labels):
            return len(self.labels[k])
        return 0

    def diff_at(self, d: int) -> Matrix:
        """Matrix of the differential leaving degree d (target x source)."""
        k = d - self.min_degree
        if 0 <= k < len(self.diffs):
            return [list(row) for row in self.diffs[k]]
        return zeros(self.rank_at(d + 1), self.rank_at(d))

    @property
    def is_zero(self) -> bool:
        # empty degrees are trimmed at both ends, so a zero complex has no rows
        return not self.labels

    def _require_integral(self, what: str) -> None:
        """Refuse a complex with an inverted summand where only complexes
        of free Z-modules make sense."""
        if not _plain(self.labels):
            raise ValueError(f"{what} of a complex with inverted summands")

    def _at(self, d: int) -> "FreeComplex":
        """The same complex starting in degree d, with the same (unsigned)
        differentials.  Its labels and differentials, all that validation
        reads, are reused unchecked."""
        if d == self.min_degree or self.is_zero:
            return self
        placed = object.__new__(FreeComplex)
        object.__setattr__(placed, "min_degree", d)
        object.__setattr__(placed, "labels", self.labels)
        object.__setattr__(placed, "diffs", self.diffs)
        return placed

    # -- builders -------------------------------------------------------------

    @staticmethod
    def free(min_degree: int, ranks, diffs=()) -> "FreeComplex":
        """The complex of finite free Z-modules with ``ranks[k]`` summands
        Z in degree ``min_degree + k``."""
        ranks = tuple(map(int, ranks))
        if ranks and min(ranks) < 0:
            raise ValueError("negative rank")
        # one row (_RING,) * r per degree
        return FreeComplex(min_degree, tuple(map((_RING,).__mul__, ranks)), diffs)

    @staticmethod
    def zero() -> "FreeComplex":
        return FreeComplex(0, (), ())

    @staticmethod
    def stalk_free(rank: int, degree: int = 0) -> "FreeComplex":
        return FreeComplex.free(degree, (rank,))

    @staticmethod
    def cyclic_resolution(n: int, degree: int = 0) -> "FreeComplex":
        """Two-term free resolution of Z/n sitting in homological degree
        ``degree`` (terms in degrees degree-1 and degree)."""
        return FreeComplex.free(degree - 1, (1, 1), (((n,),),))

    @staticmethod
    def koszul(elements) -> "FreeComplex":
        """The Koszul complex on a sequence of integers, in degrees [-r, 0].

        Built as the tensor product of the two-term complexes Z --a--> Z;
        its degree-0 homology is Z/(a_1, ..., a_r).

        >>> homology(FreeComplex.koszul([2]))[0]
        ElementaryModule(torsion=((2, 1, 1),))
        """
        out = FreeComplex.stalk_free(1, 0)
        for a in elements:
            out = tensor(out, FreeComplex.free(-1, (1, 1), (((int(a),),),)))
        return out

    def shift(self, k: int) -> "FreeComplex":
        """The translate X[k]; homology moves from degree d to d - k."""
        if k % 2:
            # odd translates negate the differential
            return FreeComplex(
                self.min_degree - k,
                self.labels,
                tuple(tuple(tuple(-x for x in row) for row in M) for M in self.diffs),
            )
        return self._at(self.min_degree - k)

    def to_json(self) -> dict:
        # the complex schema has ranks only, so a label cannot be written
        self._require_integral("to_json")
        return {
            "minDeg": self.min_degree,
            "ranks": list(self.ranks),
            "diffs": [[list(row) for row in M] for M in self.diffs],
        }

    @staticmethod
    def from_json(obj: dict) -> "FreeComplex":
        return FreeComplex.free(
            integer(obj.get("minDeg", 0), "minDeg"),
            tuple(integer(r, "rank") for r in obj.get("ranks", ())),
            tuple(
                tuple(tuple(integer(x, "matrix entry") for x in row) for row in M)
                for M in obj.get("diffs", ())
            ),
        )


def direct_sum(X: FreeComplex, Y: FreeComplex) -> FreeComplex:
    if X.is_zero:
        return Y
    if Y.is_zero:
        return X
    lo = min(X.min_degree, Y.min_degree)
    hi = max(X.max_degree, Y.max_degree)
    labels = [X.labels_at(d) + Y.labels_at(d) for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo, hi):
        A, B = X.diff_at(d), Y.diff_at(d)
        rows = X.rank_at(d + 1) + Y.rank_at(d + 1)
        cols = X.rank_at(d) + Y.rank_at(d)
        M = zeros(rows, cols)
        for i in range(X.rank_at(d + 1)):
            for j in range(X.rank_at(d)):
                M[i][j] = A[i][j]
        for i in range(Y.rank_at(d + 1)):
            for j in range(Y.rank_at(d)):
                M[X.rank_at(d + 1) + i][X.rank_at(d) + j] = B[i][j]
        diffs.append(M)
    return FreeComplex(lo, tuple(labels), tuple(tuple(tuple(r) for r in M) for M in diffs))


def tensor(A: FreeComplex, B: FreeComplex) -> FreeComplex:
    """Tensor product complex with the Koszul sign
    d(a@b) = da@b + (-1)^i a@db; labels of summands unite.

    Built once per shape: the signs read only the parity of A's degrees,
    so the product of A placed at that parity and B placed at 0 is placed
    at the sum of the start degrees.
    """
    if A.is_zero or B.is_zero:
        return FreeComplex.zero()
    product = _tensor_product(A._at(A.min_degree % 2), B._at(0))
    return product._at(A.min_degree + B.min_degree)


@lru_cache(maxsize=None)
def _tensor_product(A: FreeComplex, B: FreeComplex) -> FreeComplex:
    lo = A.min_degree + B.min_degree
    hi = A.max_degree + B.max_degree

    def layout(d):
        # the summands of degree d, block (i, j) = A^i (x) B^j at its offset
        labels = []
        offs = {}
        for i in A.degrees():
            j = d - i
            la, lb = A.labels_at(i), B.labels_at(j)
            if la and lb:
                offs[(i, j)] = len(labels)
                for x in la:
                    for y in lb:
                        # the right operand is reused when it is the union
                        labels.append(y if x.issubset(y) else x.join(y))
        return offs, labels

    layouts = [layout(d) for d in range(lo, hi + 1)]
    diffs = []
    for d in range(lo, hi):
        offs_s, lab_s = layouts[d - lo]
        offs_t, lab_t = layouts[d + 1 - lo]
        M = zeros(len(lab_t), len(lab_s))
        for (i, j), base_s in offs_s.items():
            ra, rb = A.rank_at(i), B.rank_at(j)
            # dA (x) 1 : block (i, j) -> (i+1, j)
            if (i + 1, j) in offs_t:
                base_t = offs_t[(i + 1, j)]
                DA = A.diff_at(i)
                for a in range(A.rank_at(i + 1)):
                    for b in range(ra):
                        if DA[a][b]:
                            for c in range(rb):
                                M[base_t + a * rb + c][base_s + b * rb + c] += DA[a][b]
            # (-1)^i 1 (x) dB : block (i, j) -> (i, j+1)
            if (i, j + 1) in offs_t:
                base_t = offs_t[(i, j + 1)]
                DB = B.diff_at(j)
                sgn = -1 if i % 2 else 1
                tb = B.rank_at(j + 1)
                for b in range(ra):
                    for a in range(tb):
                        for c in range(rb):
                            if DB[a][c]:
                                M[base_t + b * tb + a][base_s + b * rb + c] += sgn * DB[a][c]
        diffs.append(M)
    return FreeComplex(
        lo,
        tuple(tuple(lab) for _, lab in layouts),
        tuple(tuple(tuple(r) for r in M) for M in diffs),
    )


def clear_caches():
    """Empty the per-shape product cache of ``tensor``, which grows without
    bound, so that a caller can scope it to one run."""
    _tensor_product.cache_clear()


# ---------------------------------------------------------------------------
# homology


def homology(X: FreeComplex) -> dict[int, ElementaryModule]:
    """Degreewise homology ker d / im d, each a finitely generated
    elementary module.

    One Smith normal form per differential fixes every degree: H^d is
    free of rank ``n_d - rk d_d - rk d_{d-1}`` plus one ``Z/s`` per
    non-unit invariant factor ``s`` of ``d_{d-1}``.  The torsion of the
    cokernel of ``d_{d-1}`` lies in ``ker d_d``, because ``ker d_d`` is
    saturated (its quotient embeds in the free target of ``d_d``).

    >>> H = homology(FreeComplex.koszul([2]))
    >>> str(H.get(0, ElementaryModule.zero())), str(H.get(-1, ElementaryModule.zero()))
    ('Z/2', '0')
    """
    X._require_integral("homology")
    # nonzero invariant factors of the differential leaving each degree
    factors = {
        d: [f for f in snf_invariants(X.diff_at(d)) if f] for d in X.degrees()[:-1]
    }
    out: dict[int, ElementaryModule] = {}
    for d in X.degrees():
        into = factors.get(d - 1, ())
        rank = X.rank_at(d) - len(factors.get(d, ())) - len(into)
        tors = [(p, e, 1) for f in into if f != 1 for p, e in factorint(f).items()]
        if rank or tors:
            out[d] = ElementaryModule(rank, torsion=tuple(tors))
    return out


def top_indices(X: FreeComplex, p) -> tuple:
    """Top homological degree seen at a prime, two independent ways.

    ``m`` is the largest degree whose homology is supported at p (from
    the integral normal forms); ``h`` is the largest degree where the
    derived fiber at p is nonzero (ranks over Q for the generic point,
    ranks over F_p for a maximal ideal).  These always agree; a mismatch
    means a broken engine, so it raises.

    >>> K = FreeComplex.koszul([2])
    >>> top_indices(K, 2)
    (0, 0)
    >>> top_indices(K, 3)
    (-inf, -inf)
    """
    from .spectrum import zpoint

    pt = zpoint(p)
    H = homology(X)
    if pt.is_generic:
        m = max((d for d, M in H.items() if M.free_rank > 0), default=NEG_INF)
    else:
        m = max(
            (d for d, M in H.items() if M.free_rank > 0 or pt.p in M.torsion_primes()),
            default=NEG_INF,
        )
    h = NEG_INF
    for d in X.degrees():
        n = X.rank_at(d)
        if n == 0:
            continue
        if pt.is_generic:
            dim = n - rank_rational(X.diff_at(d)) - rank_rational(X.diff_at(d - 1))
        else:
            q = pt.p
            dim = n - rank_mod_p(X.diff_at(d), q) - rank_mod_p(X.diff_at(d - 1), q)
        if dim > 0:
            h = d
    if m != h:
        raise ArithmeticError(
            f"top-index disagreement at {pt}: homology says {m}, fibers say {h}"
        )
    return m, h


# ---------------------------------------------------------------------------
# Hom / Ext tables on elementary modules


def _hom_ext_atom(src_kind, src, tgt_kind, tgt):
    """Hom and Ext^1 for a single (source, target) atom pair.

    Sources must be finitely generated atoms (free or cyclic torsion);
    every elementary target is allowed.  Derived from the resolution
    0 -> Z -> Z -> Z/p^e -> 0 and divisibility of the targets.
    """
    zero = ElementaryModule.zero()
    if src_kind == "free":
        r = src
        if tgt_kind == "free":
            return ElementaryModule.free(tgt * r), zero
        if tgt_kind == "loc":
            s, rk = tgt
            return ElementaryModule.localized_free(s, rk * r), zero
        if tgt_kind == "tors":
            p, e, m = tgt
            return ElementaryModule.cyclic_torsion(p, e, m * r), zero
        s, m = tgt
        return ElementaryModule.prufer_sum(s, m * r), zero
    # torsion source Z/p^e with multiplicity m0
    p, e, m0 = src
    if tgt_kind == "free":
        return zero, ElementaryModule.cyclic_torsion(p, e, tgt * m0)
    if tgt_kind == "loc":
        s, rk = tgt
        if s.contains(p):
            return zero, zero  # p acts invertibly on the target
        return zero, ElementaryModule.cyclic_torsion(p, e, rk * m0)
    if tgt_kind == "tors":
        q, f, m1 = tgt
        if q != p:
            return zero, zero
        g = ElementaryModule.cyclic_torsion(p, min(e, f), m0 * m1)
        return g, g
    s, m1 = tgt
    if not s.contains(p):
        return zero, zero
    # Hom(Z/p^e, Z(p^oo)) = Z/p^e; Ext^1 into a divisible module vanishes
    return ElementaryModule.cyclic_torsion(p, e, m0 * m1), zero


def _require_fg_source(A: ElementaryModule):
    if A.localized:
        raise UnsupportedPairError("localized modules are not supported as Hom sources")
    if A.prufer:
        raise UnsupportedPairError("Pruefer modules are not supported as Hom sources")


def _atoms_of(E: ElementaryModule):
    if E.free_rank:
        yield ("free", E.free_rank)
    for s, r in E.localized:
        yield ("loc", (s, r))
    for p, e, m in E.torsion:
        yield ("tors", (p, e, m))
    for s, m in E.prufer:
        yield ("prufer", (s, m))


def hom_ext_tables(A: ElementaryModule, B: ElementaryModule):
    """(Hom(A, B), Ext^1(A, B)) as elementary modules.

    A must be finitely generated.  Hom and Ext^1 are additive in both
    arguments, so everything reduces to the atom table.

    >>> A = ElementaryModule.cyclic_torsion(2, 1)
    >>> L = ElementaryModule.localized_free(ZSubset.finite([2]), 1)
    >>> hom_ext_tables(A, L)
    (ElementaryModule.zero(), ElementaryModule.zero())
    >>> hom, ext = hom_ext_tables(ElementaryModule.cyclic_torsion(2, 3), ElementaryModule.free(1))
    >>> str(ext)
    'Z/8'
    """
    _require_fg_source(A)
    hom = ElementaryModule.zero()
    ext = ElementaryModule.zero()
    for sk, sd in _atoms_of(A):
        for tk, td in _atoms_of(B):
            h, x = _hom_ext_atom(sk, sd, tk, td)
            hom = hom + h
            ext = ext + x
    return hom, ext


def hom_ext_vanish(A: ElementaryModule, B: ElementaryModule) -> tuple[bool, bool]:
    """(Hom(A, B) is zero, Ext^1(A, B) is zero), without building either.

    Reads the atom table of ``_hom_ext_atom``: atom multiplicities are
    positive and atom prime sets nonempty, so an atom pair contributes a
    nonzero group exactly when its table entry is not zero.  A must be
    finitely generated, as for ``hom_ext_tables``.

    >>> hom_ext_vanish(ElementaryModule.cyclic_torsion(2, 3), ElementaryModule.free(1))
    (True, False)
    >>> hom_ext_vanish(ElementaryModule.free(1), ElementaryModule.zero())
    (True, True)
    """
    _require_fg_source(A)
    # a free source maps onto every nonzero target and has no Ext^1
    hom_zero = not A.free_rank or B.is_zero
    ext_zero = True
    for p, _, _ in A.torsion:
        if ext_zero:
            # Ext^1(Z/p^e, Z) = Z/p^e; Ext^1(Z/p^e, Z[S^-1]) = 0 iff p in S
            if B.free_rank or any(not s.contains(p) for s, _ in B.localized):
                ext_zero = False
        for q, _, _ in B.torsion:
            if q == p:
                # Hom = Ext^1 = Z/p^min(e, f)
                hom_zero = ext_zero = False
                break
        if hom_zero and any(s.contains(p) for s, _ in B.prufer):
            # Hom(Z/p^e, Z(p^oo)) = Z/p^e
            hom_zero = False
        if not hom_zero and not ext_zero:
            break
    return hom_zero, ext_zero
