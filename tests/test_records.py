"""The package's records are plain classes and ``NamedTuple`` types, not
dataclasses, whose decorator compiles generated methods with ``exec`` at
import.  They keep what they had as dataclasses: the repr (each written
here as the literal the dataclass printed), equality with a record of the
same class, a hash of the field values, and refused assignment, except
that the mutable ``CheckStats`` takes assignment and has no hash."""

import os
import pathlib
import subprocess
import sys

import pytest

import digenergy
from digenergy import (BoundReport, CharPoly, ClosedWalkProfile, Digraph, Graph, SccPartition, Spectrum,
                       StructureVerdict, VerificationReport, Violation)
from digenergy.oracle import CheckStats

POLY = CharPoly((0, -1, 0, 1))
SPECTRUM = Spectrum(((1 + 0j), 0j, (-1 + 0j)), 1.0, 2.0, 2.0, 0.0, POLY)
BOUND_VALUES = (3, 2, 2, 1.0, 2.0, 0.6666666666666666, 0.816496580927726, 1.0, 2.449489742783178, None,
                2.4305008740430605, 2.449489742783178, 2.414213562373095, False, True, ("a note",))
BOUNDS = BoundReport(*BOUND_VALUES)
VIOLATION = Violation("2\n", "walk_rowsum", 1.0, 2.0, 1.0)

# (record, the same record built again, the tuple its hash is the hash of,
# the dataclass repr)
FROZEN = {
    "Digraph": (Digraph(3, [(0, 1), (1, 0)]), Digraph(3, [(1, 0), (0, 1), (0, 1)]),
                (3, frozenset({(0, 1), (1, 0)})), "Digraph(n=3, arcs=frozenset({(0, 1), (1, 0)}))"),
    "Graph": (Graph(3, [(1, 0)]), Graph(3, [(0, 1)]), (3, frozenset({(0, 1)})),
              "Graph(n=3, edges=frozenset({(0, 1)}))"),
    "CharPoly": (POLY, CharPoly((0, -1, 0, 1)), ((0, -1, 0, 1),), "CharPoly(coeffs=(0, -1, 0, 1))"),
    "Spectrum": (SPECTRUM, Spectrum(((1 + 0j), 0j, (-1 + 0j)), 1.0, 2.0, 2.0, 0.0, CharPoly((0, -1, 0, 1))),
                 (((1 + 0j), 0j, (-1 + 0j)), 1.0, 2.0, 2.0, 0.0, POLY),
                 "Spectrum(eigenvalues=((1+0j), 0j, (-1+0j)), rho=1.0, energy=2.0, sum_re_sq=2.0, sum_im_sq=0.0, "
                 "charpoly=CharPoly(coeffs=(0, -1, 0, 1)))"),
    "ClosedWalkProfile": (ClosedWalkProfile((1, 1, 0), (1, 1, 0), 2, 2, 2, 2),
                          ClosedWalkProfile((1, 1, 0), (1, 1, 0), 2, 2, 2, 2), ((1, 1, 0), (1, 1, 0), 2, 2, 2, 2),
                          "ClosedWalkProfile(c2_seq=(1, 1, 0), t2_seq=(1, 1, 0), a=2, c2_total=2, sum_c2_sq=2, "
                          "sum_t2_sq=2)"),
    "SccPartition": (SccPartition((0, 0, 1), 2), SccPartition((0, 0, 1), 2), ((0, 0, 1), 2),
                     "SccPartition(component_id=(0, 0, 1), component_count=2)"),
    "BoundReport": (BOUNDS, BoundReport(*BOUND_VALUES[:-1], ("a note",)), BOUND_VALUES,
                    "BoundReport(n=3, arc_count=2, c2_total=2, rho=1.0, energy=2.0, "
                    "rho_lower_walk_mean=0.6666666666666666, rho_lower_walk_rms=0.816496580927726, "
                    "rho_lower_walk_ratio=1.0, energy_upper_mcclelland=2.449489742783178, energy_upper_radius=None, "
                    "energy_upper_walk_mean=2.4305008740430605, energy_upper_walk_rms=2.449489742783178, "
                    "energy_upper_walk_ratio=2.414213562373095, walk_dominated=False, chain_ok=True, "
                    "notes=('a note',))"),
    "StructureVerdict": (StructureVerdict("R_REGULAR", (1,), True), StructureVerdict("R_REGULAR", (1,), True, ()),
                         ("R_REGULAR", (1,), True, ()),
                         "StructureVerdict(kind='R_REGULAR', params=(1,), predicted_equality=True, "
                         "extra_noncycle_arcs=())"),
    "Violation": (VIOLATION, Violation("2\n", "walk_rowsum", 1.0, 2.0, 1.0), ("2\n", "walk_rowsum", 1.0, 2.0, 1.0),
                  "Violation(digraph_text='2\\n', check='walk_rowsum', lhs=1.0, rhs=2.0, gap=1.0)"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record_repr_equality_hash_and_assignment(name):
    record, again, values, text = FROZEN[name]
    assert repr(record) == text
    assert record == again and not record != again
    assert hash(record) == hash(again) == hash(values)
    field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert repr(record) == text


def test_records_of_two_classes_are_unequal():
    assert Digraph(2, [(0, 1)]) != Graph(2, [(0, 1)])
    assert Graph(2, [(0, 1)]) != Digraph(2, [(0, 1)])
    assert Digraph(2, [(0, 1)]) != (2, frozenset({(0, 1)}))
    assert Digraph(2, [(0, 1)]) != Digraph(2, [(1, 0)])
    assert CharPoly((0, 1)) != CharPoly((1, 1))


def test_check_stats_is_a_mutable_tally():
    stats = CheckStats(1, 2, 3)
    assert repr(stats) == "CheckStats(passed=1, failed=2, skipped=3)"
    assert repr(CheckStats()) == "CheckStats(passed=0, failed=0, skipped=0)"
    assert stats == CheckStats(passed=1, failed=2, skipped=3) and stats != CheckStats(1, 2, 4)
    assert stats != (1, 2, 3)
    stats.failed += 1
    assert stats == CheckStats(1, 3, 3)
    with pytest.raises(TypeError):
        hash(stats)


def test_verification_report_repr_holds_check_stats():
    report = VerificationReport(2, "exhaustive", 4, {"walk_rowsum": CheckStats(4, 0, 0)}, (VIOLATION,), (), 0.25)
    assert repr(report) == (
        "VerificationReport(n=2, mode='exhaustive', digraphs_checked=4, "
        "checks_run={'walk_rowsum': CheckStats(passed=4, failed=0, skipped=0)}, "
        "violations=(Violation(digraph_text='2\\n', check='walk_rowsum', lhs=1.0, rhs=2.0, gap=1.0),), "
        "bound_inapplicable=(), elapsed=0.25)")
    assert not report.ok and report.to_dict()["checks"] == {"walk_rowsum": {"passed": 4, "failed": 0, "skipped": 0}}


def test_bound_report_to_dict_lists_its_notes():
    doc = BOUNDS.to_dict()
    assert list(doc) == ["n", "arc_count", "c2_total", "rho", "energy", "rho_lower_walk_mean", "rho_lower_walk_rms",
                         "rho_lower_walk_ratio", "energy_upper_mcclelland", "energy_upper_radius",
                         "energy_upper_walk_mean", "energy_upper_walk_rms", "energy_upper_walk_ratio",
                         "walk_dominated", "chain_ok", "notes"]
    assert doc["notes"] == ["a note"] and doc["energy_upper_radius"] is None and doc["n"] == 3


def test_import_compiles_no_dataclass():
    # After numpy, importing the command line loads no dataclasses module,
    # and no class that a digenergy module holds is a dataclass.
    code = ("import sys, numpy; before = set(sys.modules); import digenergy.cli; "
            "added = 'dataclasses' in set(sys.modules) - before; "
            "import dataclasses, inspect; "
            "found = sorted(f'{m}.{n}' for m in sys.modules if m.startswith('digenergy') "
            "for n, c in inspect.getmembers(sys.modules[m], inspect.isclass) if dataclasses.is_dataclass(c)); "
            "print(added, found)")
    src = str(pathlib.Path(digenergy.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, "False []"), proc.stderr
