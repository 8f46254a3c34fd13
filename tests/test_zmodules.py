from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tstruct.corpus import random_formal_object, random_free_complex, rng_from_seed
from tstruct.elementary import ElementaryModule
from tstruct.spectrum import ZSubset, factorint
from tstruct.zmodules import (
    FreeComplex,
    NEG_INF,
    UnsupportedPairError,
    direct_sum,
    hom_ext_tables,
    hom_ext_vanish,
    homology,
    identity,
    is_zero_matrix,
    mat_shape,
    matmul,
    smith_normal_form,
    snf_invariants,
    support,
    tensor,
    top_indices,
    tor,
    zeros,
)


# -- independent mini-oracles used to freeze expected values -----------------


def brute_hom_ext_cyclic(a: int, b: int):
    """Hom and Ext^1 between Z/a and Z/b by element counting from the
    resolution 0 -> Z --a--> Z -> Z/a -> 0."""
    hom_order = sum(1 for x in range(b) if (a * x) % b == 0)  # ker(a on Z/b)
    img = len({(a * x) % b for x in range(b)})
    ext_order = b // img  # coker(a on Z/b)
    return hom_order, ext_order


def brute_tor1_cyclic(a: int, b: int) -> int:
    # Tor_1(Z/a, Z/b) = ker(a on Z/b)
    return sum(1 for x in range(b) if (a * x) % b == 0)


def kernel_basis(A, ncols):
    """Columns spanning ker(A) inside Z^ncols: the last columns of V."""
    if not A or not A[0]:
        return identity(ncols)
    D, _, V = smith_normal_form(A)
    m, n = mat_shape(A)
    r = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    return [[V[i][j] for j in range(r, n)] for i in range(n)]


def solve_columns(K, B):
    """Solve K @ C = B exactly (raises if some column is not in the image)."""
    rows, k = mat_shape(K)
    if k == 0:
        if not is_zero_matrix(B):
            raise ArithmeticError("inconsistent system")
        return zeros(0, mat_shape(B)[1])
    D, U, V = smith_normal_form(K)
    UB = matmul(U, B)
    ncols = mat_shape(B)[1]
    Y = zeros(k, ncols)
    for i in range(rows):
        d = D[i][i] if i < k else 0
        for j in range(ncols):
            v = UB[i][j]
            if i < k and d != 0:
                if v % d:
                    raise ArithmeticError("inconsistent system")
                Y[i][j] = v // d
            elif v != 0:
                raise ArithmeticError("inconsistent system")
    return matmul(V, Y)


def reference_homology(X: FreeComplex) -> dict:
    """ker d_d / im d_{d-1} the long way: a kernel basis K, the incoming
    differential written in K's coordinates, and the Smith normal form
    of that presentation."""
    out = {}
    for d in X.degrees():
        n = X.rank_at(d)
        if n == 0:
            continue
        K = kernel_basis(X.diff_at(d), n)
        kdim = mat_shape(K)[1]
        if kdim == 0:
            continue
        facs = []
        if X.rank_at(d - 1):
            C = solve_columns(K, X.diff_at(d - 1))
            D, _, _ = smith_normal_form(C)
            facs = [D[i][i] for i in range(min(mat_shape(D)))]
        tors = [(p, e, 1) for f in facs if f > 1 for p, e in factorint(f).items()]
        H = ElementaryModule(kdim - sum(1 for f in facs if f), torsion=tuple(tors))
        if not H.is_zero:
            out[d] = H
    return out


def order(M: ElementaryModule) -> int:
    assert M.is_fg and M.free_rank == 0
    out = 1
    for p, e, m in M.torsion:
        out *= p ** (e * m)
    return out


# -- Smith normal form --------------------------------------------------------


def test_snf_frozen_values():
    M = [[2, 0], [0, 3]]
    D, U, V = smith_normal_form(M)
    assert [D[0][0], D[1][1]] == [1, 6]
    assert matmul(matmul(U, M), V) == D  # verified by direct multiplication
    assert snf_invariants([[0, 0], [0, 0]]) == [0, 0]
    assert snf_invariants([[1, 0], [0, 1]]) == [1, 1]


@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_snf_properties(m, n, data):
    M = [
        [data.draw(st.integers(-30, 30)) for _ in range(n)] for _ in range(m)
    ]
    D, U, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D
    diag = [D[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    assert snf_invariants(M) == diag


def test_snf_big_entries_stay_exact():
    M = [[2**40, 1], [0, 3**30]]
    D, U, V = smith_normal_form(M)
    assert matmul(matmul(U, M), V) == D
    prod = 1
    for i in range(2):
        prod *= D[i][i]
    assert prod == abs(2**40 * 3**30)  # |det| preserved by unimodular moves


# -- modules ------------------------------------------------------------------


def test_normal_form_equality_is_isomorphism():
    C = ElementaryModule.cyclic
    assert C(2) + C(6) != C(12)
    assert C(12) == C(4) + C(3)
    assert C(2) + C(6) == ElementaryModule(torsion=((2, 1, 2), (3, 1, 1)))
    assert C(6) == ElementaryModule(torsion=((2, 1, 1), (3, 1, 1)))
    assert C(8) != ElementaryModule(torsion=((2, 1, 3),))
    assert C(0) + C(4) + C(2) == ElementaryModule(1, torsion=((2, 1, 1), (2, 2, 1)))


def test_support():
    C = ElementaryModule.cyclic
    assert support(C(4) + C(3)) == ZSubset.finite([2, 3])
    assert support(ElementaryModule(1, torsion=((2, 1, 1),))) == ZSubset.whole()
    assert support(ElementaryModule.zero()) == ZSubset.empty()


@pytest.mark.parametrize("M", [
    ElementaryModule.localized_free(ZSubset.finite([2]), 1),
    ElementaryModule.localized_free(ZSubset.cofinite([3]), 1) + ElementaryModule.free(1),
    ElementaryModule.prufer_sum(ZSubset.finite([2]), 1),
    ElementaryModule.prufer_sum(ZSubset.cofinite([]), 1) + ElementaryModule.cyclic(6),
])
def test_support_rejects_non_fg_modules(M):
    with pytest.raises(ValueError):
        support(M)
    # so does tor, which reads only free and finite torsion atoms: on such
    # input it would miss Z[1/3] (x) Z/2 = Z/2 and Tor_1(Z(2^oo), Z/2) = Z/2
    for A, B in ((M, ElementaryModule.cyclic(2)), (ElementaryModule.cyclic(2), M)):
        with pytest.raises(ValueError):
            tor(A, B)


# -- homology -----------------------------------------------------------------


def test_homology_fixtures():
    K = FreeComplex.koszul([2])
    H = homology(K)
    assert H == {0: ElementaryModule.cyclic(2)}
    assert homology(FreeComplex.stalk_free(1, 0)) == {0: ElementaryModule.free(1)}
    X = FreeComplex.free(0, (1, 1), (((0,),),))
    assert homology(X) == {0: ElementaryModule.free(1), 1: ElementaryModule.free(1)}


def test_homology_vs_brute_force_kernel_image():
    # an explicit complex checked against hand linear algebra:
    #   Z^2 --[[2,0],[0,0]]--> Z^2 --[[0,0],[0,3]]--> Z^2
    X = FreeComplex.free(0, (2, 2, 2), (((2, 0), (0, 0)), ((0, 0), (0, 3))))
    H = homology(X)
    # middle degree: ker = <e1>, image = <2 e1>: Z/2
    assert H[1] == ElementaryModule.cyclic(2)
    # left: ker of the first map = <e2>: Z
    assert H[0] == ElementaryModule.free(1)
    # right: coker of [[0,0],[0,3]] restricted to kernel of 0: Z + Z/3
    assert H[2] == ElementaryModule(1, torsion=((3, 1, 1),))


seeded_complexes = st.integers(0, 2**32 - 1).map(
    lambda seed: random_free_complex(rng_from_seed(seed))
)
small_complexes = st.one_of(
    seeded_complexes,
    st.builds(FreeComplex.stalk_free, st.integers(0, 3), st.integers(-3, 3)),
    st.builds(FreeComplex.cyclic_resolution, st.integers(-12, 12), st.integers(-3, 3)),
    st.just(FreeComplex.zero()),
)


@given(small_complexes, small_complexes, st.integers(-2, 2))
@settings(max_examples=200, deadline=None)
def test_homology_matches_kernel_image_reference(A, B, k):
    # invariant factors of the differentials against kernel, solve and
    # Smith normal form, on sums and odd and even translates
    for X in (A, A.shift(k), direct_sum(A, B), direct_sum(A.shift(2 * k + 1), B)):
        assert homology(X) == reference_homology(X), X


@given(seeded_complexes)
@settings(max_examples=200, deadline=None)
def test_homology_values_are_canonical_fg_modules(X):
    # each value equals the public constructor on its own atoms, so its
    # torsion is merged and sorted and equality is isomorphism
    for M in homology(X).values():
        assert M.is_fg and not M.is_zero
        assert M == ElementaryModule(M.free_rank, torsion=M.torsion), X


def test_dd_zero_enforced():
    with pytest.raises(ValueError):
        FreeComplex.free(0, (1, 1, 1), (((1,),), ((1,),)))


def test_every_row_of_a_differential_is_checked():
    # a short or a long row after a first row of the right length
    for rows in (((1, 0), (1,)), ((1, 0), (0, 1, 5))):
        with pytest.raises(ValueError, match="wrong shape"):
            FreeComplex.free(0, (2, 2), (rows,))
    assert FreeComplex.free(0, (2, 2), (((1, 0), (0, 1)),)).ranks == (2, 2)


def test_inverted_labels_are_refused_where_only_free_complexes_make_sense():
    # Z -> Z[1/2]: its homology is not finitely generated, and the complex
    # schema has ranks only
    X = FreeComplex(0, ((ZSubset.empty(),), (ZSubset.finite([2]),)), (((1,),),))
    for read in (homology, lambda X: top_indices(X, 2), FreeComplex.to_json):
        with pytest.raises(ValueError, match="inverted summands"):
            read(X)


def test_tensor_koszul():
    K = tensor(FreeComplex.koszul([2]), FreeComplex.koszul([3]))
    assert homology(K) == homology(FreeComplex.koszul([2, 3]))
    assert homology(FreeComplex.koszul([2, 3])) == {}
    assert homology(FreeComplex.koszul([4, 6]))[0] == ElementaryModule.cyclic(2)


def test_rank_nullity():
    X = direct_sum(FreeComplex.koszul([4, 6]), FreeComplex.stalk_free(2, 1))
    H = homology(X)
    lhs = sum((1 if d % 2 == 0 else -1) * X.rank_at(d) for d in X.degrees())
    rhs = sum((1 if d % 2 == 0 else -1) * M.free_rank for d, M in H.items())
    assert lhs == rhs


# -- Hom / Ext / Tor ----------------------------------------------------------


def test_hom_ext_vs_brute_force_cyclic():
    values = [p**e for p in (2, 3, 5, 7) for e in range(1, 11) if p**e <= 1024]
    for a in values[::3] + [1024, 2, 3]:
        for b in values[::4] + [8, 9, 625]:
            hom, ext = hom_ext_tables(ElementaryModule.cyclic(a), ElementaryModule.cyclic(b))
            bh, bx = brute_hom_ext_cyclic(a, b)
            assert order(hom) == bh
            assert order(ext) == bx


def test_hom_ext_frozen_values():
    Z2 = ElementaryModule.cyclic_torsion(2, 1)
    half = ElementaryModule.localized_free(ZSubset.finite([2]), 1)
    assert hom_ext_tables(Z2, half) == (ElementaryModule.zero(), ElementaryModule.zero())
    for k in (1, 3, 7):
        hom, ext = hom_ext_tables(
            ElementaryModule.cyclic_torsion(2, k), ElementaryModule.free(1)
        )
        assert hom.is_zero
        assert ext == ElementaryModule.cyclic_torsion(2, k)
    B = ElementaryModule.prufer_sum(ZSubset.finite([3]), 2) + ElementaryModule.free(1)
    hom, ext = hom_ext_tables(ElementaryModule.free(1), B)
    assert hom == B and ext.is_zero
    # Ext into a divisible target vanishes
    _, ext = hom_ext_tables(
        ElementaryModule.cyclic_torsion(3, 2),
        ElementaryModule.prufer_sum(ZSubset.finite([3]), 1),
    )
    assert ext.is_zero
    with pytest.raises(ValueError):
        hom_ext_tables(half, ElementaryModule.free(1))


PRIMES = (2, 3, 5)

fg_sources = st.builds(
    lambda r, tors: ElementaryModule(free_rank=r, torsion=tuple((p, e, 1) for p, e in tors)),
    st.integers(0, 2),
    st.lists(st.tuples(st.sampled_from(PRIMES), st.integers(1, 3)), max_size=3),
)
# localized and Pruefer atoms over cofinite prime sets, which the corpus
# generator does not draw
cofinite_atoms = st.builds(
    lambda loc, pru: (
        (ElementaryModule.localized_free(ZSubset.cofinite(loc), 1) if loc is not None
         else ElementaryModule.zero())
        + (ElementaryModule.prufer_sum(ZSubset.cofinite(pru), 1) if pru is not None
           else ElementaryModule.zero())
    ),
    st.none() | st.lists(st.sampled_from(PRIMES), unique=True),
    st.none() | st.lists(st.sampled_from(PRIMES), unique=True),
)


@given(fg_sources, st.integers(0, 2**32 - 1), cofinite_atoms)
@settings(max_examples=300, deadline=None)
def test_hom_ext_vanish_matches_tables(A, seed, extra):
    F = random_formal_object(rng_from_seed(seed))
    targets = [ElementaryModule.zero(), extra]
    for _, E in F.graded:
        targets += [E, E + extra]
    for B in targets:
        hom, ext = hom_ext_tables(A, B)
        assert hom_ext_vanish(A, B) == (hom.is_zero, ext.is_zero), (A, B)


def test_hom_ext_vanish_rejects_non_fg_sources():
    two = ZSubset.finite([2])
    sources = [
        ElementaryModule.localized_free(two, 1),
        ElementaryModule.localized_free(ZSubset.cofinite([3]), 1),
        ElementaryModule.prufer_sum(two, 1),
        ElementaryModule.prufer_sum(ZSubset.cofinite([]), 1) + ElementaryModule.free(1),
        ElementaryModule.cyclic_torsion(2, 1) + ElementaryModule.localized_free(two, 1),
    ]
    for A in sources:
        for B in (ElementaryModule.zero(), ElementaryModule.free(1)):
            with pytest.raises(UnsupportedPairError):
                hom_ext_vanish(A, B)
            with pytest.raises(UnsupportedPairError):
                hom_ext_tables(A, B)


def test_tor():
    C = ElementaryModule.cyclic
    t0, t1 = tor(C(4), C(6))
    assert t0 == C(2) and t1 == C(2)
    assert order(t1) == brute_tor1_cyclic(4, 6)
    M = ElementaryModule(2, torsion=((5, 1, 1),))
    assert tor(ElementaryModule.free(1), M) == (M, ElementaryModule.zero())
    assert tor(C(2), C(3)) == (ElementaryModule.zero(), ElementaryModule.zero())


@given(st.integers(2, 200), st.integers(2, 200))
@settings(max_examples=80, deadline=None)
def test_tor_cyclic_matches_brute_force(a, b):
    t0, t1 = tor(ElementaryModule.cyclic(a), ElementaryModule.cyclic(b))
    assert order(t0) == gcd(a, b) == order(t1)


# -- top indices ---------------------------------------------------------------


def test_top_indices_fixtures():
    X = FreeComplex.cyclic_resolution(2, 0)  # Z --2--> Z in degrees -1, 0
    assert top_indices(X, 2) == (0, 0)
    assert top_indices(X, 3) == (NEG_INF, NEG_INF)
    assert top_indices(X, 0) == (NEG_INF, NEG_INF)
    Y = direct_sum(X, FreeComplex.stalk_free(1, -2))
    assert top_indices(Y, 0) == (-2, -2)
    assert top_indices(Y, 2) == (0, 0)
