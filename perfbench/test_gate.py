"""The correctness gate flags what it should.

Run with: python3 -m pytest perfbench
"""

import random

import pytest

import digenergy
from digenergy import Digraph, from_graph, Graph
from digenergy.cli import build_analysis_document

from gate import Tally, analyze_failures, verify_failures

K3 = Digraph(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
DIGON_PLUS_TAIL = Digraph(3, [(0, 1), (1, 0), (1, 2)])


def _random_digraph(n, p, seed):
    rng = random.Random(seed)
    return Digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p])


def _doc(d):
    return build_analysis_document(d, 1e-8).to_dict()


def _failures(d):
    return analyze_failures(_doc(d), d.n, d.arcs)


@pytest.mark.parametrize("d", [K3, DIGON_PLUS_TAIL, _random_digraph(8, 0.3, 1), _random_digraph(12, 0.5, 2),
                               from_graph(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]))])
def test_analyze_document_passes(d):
    assert _failures(d) == []


@pytest.mark.parametrize("fault", ["energy_upper_walk_ratio", "rho_lower_walk_ratio"])
def test_analyze_checker_flags_drifted_bound(fault):
    with digenergy.inject_fault(fault, 1.0):
        bad = _failures(K3)
    assert "bound_formula" in bad


def test_analyze_checker_flags_bound_above_rho():
    with digenergy.inject_fault("rho_lower_walk_ratio", 1.0):
        assert "rho_lower_bound" in _failures(DIGON_PLUS_TAIL)


def test_analyze_checker_flags_wrong_profile_and_spectrum():
    doc = _doc(K3)
    doc["profile"]["c2_seq"][0] += 1
    doc["spectrum"]["eigenvalues"][0][0] += 0.5
    bad = analyze_failures(doc, K3.n, K3.arcs)
    assert {"profile", "eigenvalue_sum", "moment_identity", "spectrum_summary"} <= set(bad)


def test_null_coulson_fails_only_on_symmetric_input():
    doc = _doc(K3)
    doc["coulson_energy"] = None
    assert analyze_failures(doc, K3.n, K3.arcs) == ["coulson_false_pole"]
    doc = _doc(DIGON_PLUS_TAIL)
    doc["coulson_energy"] = None
    assert analyze_failures(doc, DIGON_PLUS_TAIL.n, DIGON_PLUS_TAIL.arcs) == []


@pytest.mark.parametrize("gap, cls", [(3e-6, "coulson_quadrature_miss"), (5e-5, "coulson_mismatch")])
def test_coulson_gap_classes_match_verify_path(gap, cls):
    doc = _doc(K3)
    doc["coulson_energy"] += gap * max(1.0, doc["spectrum"]["energy"])
    assert analyze_failures(doc, K3.n, K3.arcs) == [cls]


@pytest.mark.parametrize("key", ["rho_lower_walk_mean", "energy_upper_walk_ratio", "energy_upper_mcclelland"])
def test_null_bound_where_applicable_fails(key):
    doc = _doc(DIGON_PLUS_TAIL)
    doc["bounds"][key] = None
    assert analyze_failures(doc, DIGON_PLUS_TAIL.n, DIGON_PLUS_TAIL.arcs) == ["bound_applicability"]


@pytest.mark.parametrize("mangle", [
    lambda doc: doc.pop("bounds"),
    lambda doc: doc["spectrum"].update(eigenvalues=[1.0, 2.0, 3.0]),
    lambda doc: doc["spectrum"].update(rho=None),
])
def test_document_of_wrong_shape_is_one_failure(mangle):
    doc = _doc(K3)
    mangle(doc)
    assert analyze_failures(doc, K3.n, K3.arcs) == ["bad_document"]


def test_verify_violations_count_as_failed_operations():
    checks = ["energy_bounds", "rho_chain"]
    with digenergy.inject_fault("energy_upper_walk_ratio", 1.0):
        report = digenergy.verify_all(3, checks=checks).to_dict()
    failures, problems = verify_failures(report, 64, checks)
    assert problems == []
    assert len(failures) == report["checks"]["energy_bounds"]["failed"] > 0
    tally = Tally()
    tally.add(64 * len(checks), failures, problems)
    assert tally.failed == len(failures)
    assert not tally.correct


def test_known_defect_counts_but_keeps_verdict():
    # The n=5 counterexample of the walk-ratio radius recognizer: a digon
    # plus a disjoint directed 3-cycle, rho = ratio = 1 but verdict NONE.
    report = {
        "digraphs_checked": 1,
        "checks": {"equality_iff_rho": {"passed": 0, "failed": 1, "skipped": 0}},
        "violations": [{"digraph": "5\n0 1\n1 0\n2 3\n3 4\n4 2\n", "check": "equality_iff_rho",
                        "lhs": 0.0, "rhs": 1.0, "gap": 0.0}],
        "bound_inapplicable": [],
    }
    failures, problems = verify_failures(report, 1, ["equality_iff_rho"])
    assert failures == [["equality_iff_rho_false_negative"]] and problems == []
    tally = Tally()
    tally.add(1, failures, problems)
    assert tally.failed == 1 and tally.correct


@pytest.mark.parametrize("gap, cls", [(2.3e-6, "coulson_quadrature_miss"), (5e-5, "violation:coulson_match"),
                                      (0.5, "violation:coulson_match")])
def test_coulson_match_violation_classes(gap, cls):
    report = {
        "digraphs_checked": 1,
        "checks": {"coulson_match": {"passed": 0, "failed": 1, "skipped": 0}},
        "violations": [{"digraph": "2\n", "check": "coulson_match", "lhs": 1.0, "rhs": 1.0 + gap, "gap": gap}],
        "bound_inapplicable": [],
    }
    assert verify_failures(report, 1, ["coulson_match"]) == ([[cls]], [])


def test_bookkeeping_mismatch_is_a_problem():
    report = digenergy.verify_all(2).to_dict()
    report["checks"]["walk_rowsum"]["passed"] -= 1
    report["bound_inapplicable"] = ["2\n"]
    _, problems = verify_failures(report, 4, digenergy.CHECK_NAMES)
    assert len(problems) == 2
