"""Acceptance gate: one test per criterion, exact (zero-tolerance) checks.

Each test runs the corresponding verification suite at the default seed,
prints a single pass/fail line, and enforces the stated wall-clock
budget where one applies.  The same suites back ``tstruct verify``.
"""

import json

import pytest

from conftest import record
from tstruct import cech, cli, derived, suites
from tstruct.elementary import ElementaryModule
from tstruct.spectrum import ZSubset
from tstruct.zmodules import hom_ext_vanish

BUDGETS = {
    "classification-round-trip": 10.0,
    "weak-cousin-necessity": 30.0,
    "weak-cousin-sufficiency": 300.0,
}


def _run(name):
    report = suites.ACCEPTANCE[name](suites.DEFAULT_SEED)
    verdict = "PASS" if report["ok"] else "FAIL"
    line = f"[acceptance] {name}: {verdict} ({report.get('seconds', 0)}s)"
    print(line)
    record(line)
    assert report["ok"], report
    budget = BUDGETS.get(name)
    if budget is not None:
        assert report["seconds"] < budget, (
            f"{name} exceeded its {budget}s budget: {report['seconds']}s"
        )
    return report


def test_criterion_1_classification_round_trip():
    report = _run("classification-round-trip")
    assert report["poset_census"] > 0 and report["z_census"] > 0


def test_criterion_2_weak_cousin_necessity():
    report = _run("weak-cousin-necessity")
    assert report["violating"] > 0


def test_truncation_memo_lives_for_one_criterion():
    suites.criterion_cousin_necessity(suites.DEFAULT_SEED)
    assert derived.tau_single.cache_info().currsize > 0
    seen = []

    @suites._timed("next-criterion", {})
    def next_criterion(seed):
        seen.append(derived.tau_single.cache_info().currsize)
        return [], {}

    next_criterion()
    assert seen == [0]


def test_an_engine_error_fails_its_suite_with_a_report(monkeypatch, capsys):
    # a Z(7^oo) too many in the first local cohomology: tau_filtration
    # sees an intermediate lower vertex leave its degree and raises
    honest = derived.gamma_and_r1

    def extra_pruefer(Z, E):
        g, r1 = honest(Z, E)
        return g, r1 + ElementaryModule.prufer_sum(ZSubset.finite([7]), 1)

    monkeypatch.setattr(derived, "gamma_and_r1", extra_pruefer)
    try:
        report = suites.run_suite("weak-cousin-necessity")
        assert report["suite"] == "weak-cousin-necessity" and not report["ok"]
        assert [f[0] for f in report["failures"]] == ["engine-error"]
        assert "engine bug" in report["failures"][0][1]
        code = cli.main(["verify", "--suite", "weak-cousin-necessity", "--quiet"])
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["suite"] == "weak-cousin-necessity" and out["ok"] is False
        assert out["failures"][0][0] == "engine-error"
    finally:
        # the mutant's memoized steps and models must not reach later tests
        derived.tau_single.cache_clear()
        cech.clear_caches()


def test_criterion_3_weak_cousin_sufficiency():
    report = _run("weak-cousin-sufficiency")
    assert report["distinct"] == report["complexes"] >= 500
    assert report["pairs"] == report["census"] * report["complexes"]


def test_criterion_4_engine_oracle_agreement():
    report = _run("engine-oracle-agreement")
    assert report["distinct"] == report["complexes"] >= 500
    assert report["violating"] > 0
    assert report["formal_objects"] == suites.NONFG_OBJECTS
    assert report["formal_cases"] == suites.NONFG_OBJECTS * len(suites._census_z())
    assert report["nonfg_cut_steps"] > 0


def test_criterion_4_catches_a_doubled_pruefer_multiplicity(monkeypatch):
    # the Pruefer part of local cohomology counted twice: criterion 2
    # checks the engine only and still passes, the witness loop of
    # criterion 4 observes the truncations and does not
    honest = derived.gamma_and_r1

    def doubled(Z, E):
        g, r1 = honest(Z, E)
        return g, r1 + r1

    monkeypatch.setattr(derived, "gamma_and_r1", doubled)
    monkeypatch.setattr(suites, "SUFFICIENCY_COMPLEXES", 0)
    try:
        report = suites.criterion_oracle_agreement(suites.DEFAULT_SEED)
        assert not report["ok"]
        assert report["failures"] and all(f[-1] == "tau-witness" for f in report["failures"])
        assert suites.criterion_cousin_necessity(suites.DEFAULT_SEED)["ok"]
    finally:
        # the mutant's memoized steps and models must not reach later tests
        derived.tau_single.cache_clear()
        cech.clear_caches()


def test_criterion_4_catches_pruefer_kept_at_the_cut(monkeypatch):
    # the quotient at the cut keeps the Z-part of every Pruefer sum: free
    # complexes never bring a Pruefer atom to the cut, the formal-object
    # corpus does
    def keeps_pruefer(Z, E):
        if Z.is_whole:
            return ElementaryModule.zero()
        out = ElementaryModule.free(E.free_rank)
        for s, r in E.localized:
            out = out + ElementaryModule.localized_free(s, r)
        for p, e, m in E.torsion:
            if not Z.contains(p):
                out = out + ElementaryModule.cyclic_torsion(p, e, m)
        for s, m in E.prufer:
            out = out + ElementaryModule.prufer_sum(s, m)
        return out

    monkeypatch.setattr(derived, "torsion_quotient", keeps_pruefer)
    monkeypatch.setattr(suites, "SUFFICIENCY_COMPLEXES", 0)
    try:
        report = suites.criterion_oracle_agreement(suites.DEFAULT_SEED)
        assert not report["ok"]
        assert report["failures"] and all(f[-1] == "tau-nonfg" for f in report["failures"])
    finally:
        derived.tau_single.cache_clear()
        cech.clear_caches()


def test_criterion_5_generator_reduction():
    report = _run("generator-reduction")
    assert report["pairs"] == 200


def test_criterion_5_catches_a_misplaced_ext_degree(monkeypatch):
    # Ext^1 demanded from the degree of the source on: both engine routes
    # share the stalk rule and still agree, the chain route does not
    def misplaced(A, a, Y):
        for b, E in Y.graded:
            if b > a:
                break
            hom_zero, ext_zero = hom_ext_vanish(A, E)
            if not hom_zero or (b - a <= 0 and not ext_zero):
                return False
        return True

    monkeypatch.setattr(derived, "stalk_maps_vanish", misplaced)
    # and so do the radical-invariance check of the truncation suite and
    # Cohen-Macaulay membership, whose Hom route reads the stalk rule and
    # then disagrees with its supports route
    for suite in (suites.criterion_generator_reduction, suites.suite_truncation):
        assert not suite(suites.DEFAULT_SEED)["ok"]
    report = suites.criterion_duality(suites.DEFAULT_SEED)
    assert not report["ok"]
    assert [f[0] for f in report["failures"]] == ["cm-membership"] * len(report["failures"])


def test_criterion_6_top_index():
    report = _run("top-index")
    assert report["pairs"] == 200


def test_criterion_7_duality_suite():
    report = _run("duality")
    assert report["samples"] == 200


def test_criterion_8_dual_filtration():
    _run("dual-filtration")


def test_criterion_9_discreteness():
    _run("discreteness")


@pytest.mark.parametrize("name", ["spectrum", "zmodules", "filtration",
                                  "truncation", "orthogonality"])
def test_module_invariant_suites(name):
    report = suites.run_suite(name)
    verdict = "PASS" if report["ok"] else "FAIL"
    line = f"[invariants] {name}: {verdict} ({report['seconds']}s)"
    print(line)
    record(line)
    assert report["ok"], report
