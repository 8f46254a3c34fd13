import itertools

import pytest

from tstruct.duality import DUALIZING
from tstruct.filtration import (
    CousinReport,
    SpFiltration,
    bousfield_class,
    canonical_filtration,
    cm_filtration,
    constant_filtration,
    dual_filtration,
    enumerate_census_class,
    enumerate_weak_cousin,
    from_values,
    localize,
    meet,
    read_back,
    stabilization_report,
    stalk_in_aisle,
    step_filtration,
    strong_cousin,
    weak_cousin,
)
from tstruct.spectrum import (
    SPEC_Z,
    CodimFn,
    FinPoset,
    PosetSubset,
    SpecZPoint,
    ZSubset,
    all_up_sets,
    specialization_closure,
)

TWO_CHAIN = FinPoset(["p", "m"], [("p", "m")])
W = ZSubset.whole()
E = ZSubset.empty()


def zf(*ps):
    return ZSubset.finite(ps)


def test_make_and_canonicalize():
    f = canonical_filtration(SPEC_Z)
    assert f.value(0) == W and f.value(1) == E and f.value(-100) == W
    assert f.length() == 1 and f.determined_interval() == (0, 0)
    const = constant_filtration(SPEC_Z, W)
    assert const.is_constant and const.length() == 0
    with pytest.raises(ValueError):
        SpFiltration(SPEC_Z, E, 0, (W,), E)  # not decreasing
    # redundant window entries collapse
    g = SpFiltration(SPEC_Z, W, 0, (W, W, zf(2), E, E), E)
    assert g.start == 2 and g.levels == (zf(2),)
    assert g == from_values(SPEC_Z, {2: zf(2)}, W, E)


def test_cousin_fixtures():
    f = from_values(SPEC_Z, {1: zf(2, 3)}, W, E)
    assert weak_cousin(f).holds
    g = from_values(SPEC_Z, {0: zf(2), 1: zf(2)}, zf(2), E)
    rep = weak_cousin(g)
    assert not rep.holds
    assert rep.witnesses[0] == (0, SpecZPoint(2), SpecZPoint(0)) or (
        1,
        SpecZPoint(2),
        SpecZPoint(0),
    ) in rep.witnesses
    cm = cm_filtration(DUALIZING.codim)
    assert weak_cousin(cm).holds and strong_cousin(cm).holds
    # weak holds but strong fails when a whole level repeats above a gap
    h = from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)
    assert weak_cousin(h).holds and not strong_cousin(h).holds


def test_spec_z_cousin_witnesses_keep_sample_order():
    # the named primes in order, then the fresh prime, not sorted in
    f = from_values(SPEC_Z, {0: zf(3, 5)}, ZSubset.cofinite([]), E)
    assert weak_cousin(f).witnesses[:3] == (
        (-1, SpecZPoint(3), SpecZPoint(0)),
        (-1, SpecZPoint(5), SpecZPoint(0)),
        (-1, SpecZPoint(2), SpecZPoint(0)),
    )


def test_localize_spec_z_exactly():
    f = from_values(SPEC_Z, {0: ZSubset.cofinite([3]), 1: zf(2)}, W, E)

    def pts(*names):
        return {"kind": "points", "points": sorted(names)}

    for generic in (0, "0", "(0)", SpecZPoint(0)):
        assert localize(f, generic).to_json() == {
            "spectrum": {"points": [{"id": "0"}], "covers": []},
            "tail": pts("0"),
            "window": {"start": 0, "end": -1},
            "levels": [],
            "head": pts(),
        }
    for two in (2, "(2)", SpecZPoint(2)):
        assert localize(f, two).to_json() == {
            "spectrum": {"points": [{"id": "0"}, {"id": "(2)"}], "covers": [["0", "(2)"]]},
            "tail": pts("0", "(2)"),
            "window": {"start": 0, "end": 1},
            "levels": [pts("(2)"), pts("(2)")],
            "head": pts(),
        }


def test_localize_fixtures():
    f = canonical_filtration(SPEC_Z)
    g = localize(f, 2)
    assert sorted(g.value(0).points) == ["(2)", "0"]
    assert g.value(1).is_empty
    const = constant_filtration(SPEC_Z, W)
    loc = localize(const, 5)
    assert loc.is_constant and loc.tail.points == frozenset({"0", "(5)"})
    h = from_values(SPEC_Z, {1: zf(3)}, W, E)
    assert localize(h, 2).value(1).is_empty
    # poset localization keeps induced covers
    vee = FinPoset("abc", [("a", "c"), ("b", "c")])
    f2 = constant_filtration(vee, PosetSubset(vee, frozenset("abc")))
    loc2 = localize(f2, "c")
    assert set(loc2.spectrum.points) == {"a", "b", "c"}
    loc3 = localize(f2, "a")
    assert set(loc3.spectrum.points) == {"a"}


def test_cm_filtration_values():
    cm = cm_filtration(DUALIZING.codim)
    assert cm.value(-1) == W
    assert cm.value(0) == ZSubset.cofinite([])
    assert cm.value(1) == E
    two = cm_filtration(CodimFn.for_poset(TWO_CHAIN, {"p": 0, "m": 1}))
    assert two.value(-1).points == frozenset("pm")
    assert two.value(0).points == frozenset("m")
    assert two.value(1).is_empty
    single = FinPoset(["x"], [])
    f = cm_filtration(CodimFn.for_poset(single, {"x": 5}))
    for i in range(0, 10):
        assert f.value(i).contains("x") == (i < 5)
    with pytest.raises(ValueError):
        cm_filtration(CodimFn.for_specz(0, 5))


def test_dual_filtration_canonical_is_cm():
    codim = DUALIZING.codim
    assert dual_filtration(canonical_filtration(SPEC_Z), codim) == cm_filtration(codim)


def test_dual_filtration_single_level_formula():
    # one-level filtration: the dual level k must be exactly
    # {q : V(q) /\ Z contained in CM(k + n)}
    codim = DUALIZING.codim
    cm = cm_filtration(codim)
    n, Z = 1, zf(2, 3)
    f = step_filtration(SPEC_Z, n, Z)
    dual = dual_filtration(f, codim)
    for k in range(-4, 4):
        for q in (SpecZPoint(0), SpecZPoint(2), SpecZPoint(3), SpecZPoint(7)):
            closure = specialization_closure([q], SPEC_Z)
            want = closure.meet(Z).issubset(cm.value(k + n))
            assert dual.value(k).contains(q) == want, (k, str(q))


def test_dual_of_constant():
    codim = DUALIZING.codim
    dual = dual_filtration(constant_filtration(SPEC_Z, E), codim)
    assert dual.is_constant and dual.tail == W
    dual2 = dual_filtration(constant_filtration(SPEC_Z, zf(2)), codim)
    assert dual2.is_constant
    assert not dual2.tail.contains(2) and dual2.tail.contains(3)
    with pytest.raises(ValueError):
        dual_filtration(
            SpFiltration(SPEC_Z, W, 0, (), ZSubset.cofinite([2])), codim
        )


def test_stabilization_fixtures():
    f = from_values(SPEC_Z, {1: zf(2, 3)}, W, E)
    rep = stabilization_report(f)
    assert rep.bottom_value == W and rep.eventually_empty and rep.separated
    g = constant_filtration(SPEC_Z, zf(2))
    rep = stabilization_report(g)
    assert rep.intersection == zf(2)
    assert not rep.intersection_open_closed and not rep.weak_cousin_holds
    h = constant_filtration(SPEC_Z, W)
    rep = stabilization_report(h)
    assert rep.bottom_open_closed and not rep.separated


def test_bousfield_class():
    assert bousfield_class(constant_filtration(SPEC_Z, W)) == (W, True)
    assert bousfield_class(constant_filtration(SPEC_Z, zf(2))) == (zf(2), False)
    assert bousfield_class(canonical_filtration(SPEC_Z)) is None


def test_meet():
    f = canonical_filtration(SPEC_Z)
    assert meet(f, f) == f
    assert meet(f, f.shift(-1)) == f.shift(-1)
    a = from_values(SPEC_Z, {0: zf(2)}, zf(2), E)
    b = from_values(SPEC_Z, {0: zf(3)}, zf(3), E)
    assert meet(a, b).value(0).is_empty
    with pytest.raises(ValueError):
        meet(f, constant_filtration(TWO_CHAIN, PosetSubset(TWO_CHAIN, frozenset())))


def test_shift_bookkeeping():
    f = from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)
    for k in (-2, 0, 3):
        g = f.shift(k)
        for j in range(-4, 6):
            assert g.value(j) == f.value(j - k)


def test_read_back_round_trip():
    for f in enumerate_weak_cousin(TWO_CHAIN, (0, 1)):
        assert read_back(f)
    for f in enumerate_weak_cousin(SPEC_Z, (-1, 1), universe=(2, 3)):
        assert read_back(f)
    assert stalk_in_aisle(canonical_filtration(SPEC_Z), 0, 0)
    assert not stalk_in_aisle(canonical_filtration(SPEC_Z), 0, 1)


# -- census against an independent brute-force enumerator ---------------------


def brute_census(P: FinPoset, window):
    a, b = window
    ups = all_up_sets(P)
    found = {}

    def cousin_ok(f):
        for j in range(a - 2, b + 3):
            lvl, prev = f.value(j), f.value(j - 1)
            for (p, q) in P.covers:
                if lvl.contains(q) and not prev.contains(p):
                    return False
        return True

    for U in ups:
        f = constant_filtration(P, U)
        if cousin_ok(f):
            found[str(f.to_json())] = f
    for chain in itertools.product(ups, repeat=b - a + 1):
        if any(not chain[i + 1].issubset(chain[i]) for i in range(len(chain) - 1)):
            continue
        f = from_values(
            P, {a + i: chain[i] for i in range(len(chain))}, chain[0], P.empty()
        )
        if cousin_ok(f):
            found[str(f.to_json())] = f
    return found


@pytest.mark.parametrize(
    "poset,window",
    [
        (FinPoset(["x"], []), (0, 0)),
        (TWO_CHAIN, (0, 1)),
        (FinPoset("abc", [("a", "c"), ("b", "c")]), (0, 2)),
        (FinPoset("abcd", [("a", "b"), ("c", "d")]), (0, 1)),
        (FinPoset("wxyz", [("w", "x"), ("x", "y"), ("y", "z")]), (0, 2)),
    ],
)
def test_census_sound_and_complete(poset, window):
    fast = {str(f.to_json()): f for f in enumerate_weak_cousin(poset, window)}
    brute = brute_census(poset, window)
    assert set(fast) == set(brute)
    for f in fast.values():
        assert weak_cousin(f).holds


def test_census_two_chain_excludes_constant_m():
    census = enumerate_weak_cousin(TWO_CHAIN, (0, 1))
    bad = constant_filtration(TWO_CHAIN, PosetSubset(TWO_CHAIN, frozenset("m")))
    assert bad not in census
    assert not weak_cousin(bad).holds


def test_census_cap():
    with pytest.raises(ValueError):
        enumerate_weak_cousin(SPEC_Z, (-3, 3), universe=(2, 3, 5), cap=100)


def test_census_class_contains_violators():
    allf = enumerate_census_class(SPEC_Z, (-1, 1), universe=(2,))
    census = enumerate_weak_cousin(SPEC_Z, (-1, 1), universe=(2,))
    keys = {str(f.to_json()) for f in census}
    violating = [f for f in allf if str(f.to_json()) not in keys]
    assert violating and all(not weak_cousin(f).holds for f in violating)


def test_meet_aisle_is_intersection_of_aisles():
    from tstruct.derived import FormalObject, in_aisle

    f = from_values(SPEC_Z, {0: W, 1: zf(2)}, W, E)
    g = canonical_filtration(SPEC_Z)
    both = meet(f, g)
    objects = [
        FormalObject.cyclic_stalk(2, 1),
        FormalObject.cyclic_stalk(3, 1),
        FormalObject.free_stalk(1, 0),
        FormalObject.free_stalk(1, 1),
        FormalObject.cyclic_stalk(2, 1) + FormalObject.free_stalk(1, 0),
    ]
    for X in objects:
        assert in_aisle(both, X) == (in_aisle(f, X) and in_aisle(g, X))
