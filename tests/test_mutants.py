"""The harness's own power: a table of in-process mutants of the library,
each applied by monkeypatching, and the outcome each has today on one
corpus.

A row names its mutant, the corpus it runs (``verify_all`` on every
digraph of order 4, or on random n = 8 x 300 or n = 10 x 1,000 at
p = 0.3, seed 0) and the outcome: ``EIGENSOLVER`` when the run ends in an
EigensolverError, else the checks whose report entries differ from the
clean run of the corpus, each with its failed count and its number of
violations under the mutant.  A mutant that nothing catches has no such
check, and its row names the ROADMAP item that will catch it; that item
moves the row to the caught ones.
"""

import functools
import inspect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from digenergy import Analysis, Digraph, EigensolverError, adjacency_matrix, verify_all
from digenergy import kernels as kernels_mod
from digenergy import oracle as oracle_mod
from digenergy import spectrum as spectrum_mod
from digenergy import structure as structure_mod

CORPORA = {
    "exhaustive-n4": lambda: verify_all(4),
    "random-n8": lambda: verify_all(8, mode="random", count=300, p=0.3, seed=0),
    "random-n10": lambda: verify_all(10, mode="random", count=1000, p=0.3, seed=0),
}

EIGENSOLVER = "EigensolverError"


@functools.cache
def _clean(corpus: str):
    return CORPORA[corpus]()


def _entries(report) -> dict:
    """Each check's failed count and violations."""
    return {name: (stats.failed, [v for v in report.violations if v.check == name])
            for name, stats in report.checks_run.items()}


def _outcome(corpus: str):
    try:
        report = CORPORA[corpus]()
    except EigensolverError:
        return EIGENSOLVER
    clean = _entries(_clean(corpus))
    return {name: (failed, len(violations)) for name, (failed, violations) in _entries(report).items()
            if (failed, violations) != clean[name]}


# --- the mutants ---------------------------------------------------------------

def _neighbour_poly_index(monkeypatch):
    # The last member of each block reads the table row of the member
    # before it.
    def poly_index(block):
        rows = block._poly_table[1].copy()
        rows[-1] = rows[-2]
        return rows

    monkeypatch.setattr(oracle_mod._Block, "poly_index", property(poly_index))


def _drift_kernel(monkeypatch, rows: Callable[[np.ndarray, np.ndarray], np.ndarray]):
    """Add 1 to the constant coefficient of the kernel's rows that
    ``rows(stack, coeffs)`` selects."""
    kernel = kernels_mod.charpoly_from_masks

    def drifted(stack):
        coeffs = kernel(stack)
        coeffs[rows(stack, coeffs), 0] += 1
        return coeffs

    monkeypatch.setattr(kernels_mod, "charpoly_from_masks", drifted)


def _square_free(coeffs: np.ndarray) -> np.ndarray:
    polys = [tuple(c) for c in coeffs.tolist()]
    return np.array([dec == [(c, 1)] for c, dec in zip(polys, kernels_mod.square_free_decompositions(polys))],
                    dtype=bool)


def _drift_one_row(monkeypatch):
    # The row of the digraph with the one arc 0 -> 1, a member of the first
    # block of order 4 and no member's reduction: x^4 becomes x^4 + 1.
    target = adjacency_matrix(Digraph(4, [(0, 1)]))
    _drift_kernel(monkeypatch, lambda stack, coeffs: (stack == target).all(axis=(1, 2)))


def _drift_square_free_rows(monkeypatch):
    _drift_kernel(monkeypatch, lambda stack, coeffs: _square_free(coeffs))


def _drift_rows_that_stay_square_free(monkeypatch):
    def rows(stack, coeffs):
        drifted = coeffs.copy()
        drifted[:, 0] += 1
        return _square_free(coeffs) & _square_free(drifted)

    _drift_kernel(monkeypatch, rows)


def _source_mutant(monkeypatch, module, name: str, old: str, new: str):
    """Replace ``module.name`` with a copy compiled from its source with the
    one occurrence of ``old`` made ``new``; the source file is not touched."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1, old
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), f"<mutant of {name}>", "exec"), namespace)
    monkeypatch.setattr(module, name, namespace[name])


def _keep_outcomes_only_when_all_fail(monkeypatch):
    _source_mutant(monkeypatch, oracle_mod, "_verify_block", "if failed.any():", "if failed.all():")


def _transposed_arc_stack(monkeypatch):
    arc_stack = oracle_mod._arc_stack
    monkeypatch.setattr(oracle_mod, "_arc_stack", lambda n, arcs: arc_stack(n, arcs).swapaxes(1, 2))


def _drift_first_row(monkeypatch):
    # Row 0 of every kernel call: the first member of each block; in the
    # first block of order 4 the empty digraph, whose x^4 becomes x^4 + 1,
    # with rho 1 above sqrt(a) = 0.
    _drift_kernel(monkeypatch, lambda stack, coeffs: np.arange(len(coeffs)) == 0)


def _energy_as_sum_of_re(monkeypatch):
    _source_mutant(monkeypatch, spectrum_mod, "certify_spectra", "np.abs(at.real)", "at.real")
    monkeypatch.setattr(oracle_mod, "certify_spectra", spectrum_mod.certify_spectra)


def _coulson_sign_flipped(monkeypatch):
    _source_mutant(monkeypatch, spectrum_mod, "_level_synchronous_gl",
                   "2.0 * float(total) / math.pi if", "-2.0 * float(total) / math.pi if")


def _walk_ratio_attained_negated(monkeypatch):
    attained = oracle_mod.walk_ratio_attained
    monkeypatch.setattr(oracle_mod, "walk_ratio_attained", lambda reduced, profile: ~attained(reduced, profile))


def _degree_edge_test(monkeypatch):
    # The paper's regular / semiregular shape: c2_i c2_j = q on every arc.
    _source_mutant(monkeypatch, structure_mod, "walk_ratio_attained",
                   "t2[..., :, None] * t2[..., None, :] * sum_c2_sq == c2[..., :, None] * c2[..., None, :] * sum_t2_sq",
                   "c2[..., :, None] * c2[..., None, :] * sum_c2_sq == sum_t2_sq")
    monkeypatch.setattr(oracle_mod, "walk_ratio_attained", structure_mod.walk_ratio_attained)


def _no_aberth_sweep(monkeypatch):
    monkeypatch.setattr(spectrum_mod, "_ABERTH_SWEEPS", 0)


def _shifted_qr_values(monkeypatch):
    qr_values = spectrum_mod.qr_values
    monkeypatch.setattr(spectrum_mod, "qr_values", lambda a: qr_values(a) + 0.5)


def _energy_bound_attained_negated(monkeypatch):
    attained = oracle_mod.energy_bound_attained
    monkeypatch.setattr(oracle_mod, "energy_bound_attained", lambda bits: ~attained(bits))


def _symmetrization_radii_swapped(monkeypatch):
    radii = oracle_mod._Block.symmetrization_radii.func
    monkeypatch.setattr(oracle_mod._Block, "symmetrization_radii", property(lambda block: radii(block)[::-1]))


def _off_by_one_walk_profile(monkeypatch):
    # c2_i counts vertex i too, the row sums of S + I; the aggregates
    # follow from the shifted counts, and t2 and a are left as they are.
    profile = oracle_mod._Block.profile.func

    def shifted(block):
        p = profile(block)
        c2 = p.c2_seq + 1
        return p._replace(c2_seq=c2, c2_total=c2.sum(axis=1), sum_c2_sq=(c2 * c2).sum(axis=1))

    monkeypatch.setattr(oracle_mod._Block, "profile", property(shifted))


@dataclass(frozen=True)
class Mutant:
    name: str
    apply: Callable
    corpus: str
    outcome: object  # EIGENSOLVER, or {check: (failed, violations)} of the checks that catch it
    item: Optional[str] = None  # the ROADMAP item that will catch an uncaught mutant
    why: str = ""


MUTANTS = [
    Mutant("neighbour-poly-index", _neighbour_poly_index, "random-n8",
           {"moment_difference": (1, 1), "charpoly_reduction_invariance": (1, 1)},
           why="the member's spectrum is its neighbour's, and its reduction keeps its own row"),
    Mutant("kernel-drift-one-row", _drift_one_row, "exhaustive-n4",
           {"moment_total": (1, 1), "energy_bounds": (1, 5), "charpoly_reduction_invariance": (1, 1),
            "equality_iff_rho": (1, 1)},
           why="x^4 + 1 has |lambda| = 1 on a digraph with one arc and an empty reduction"),
    Mutant("kernel-drift-square-free-rows", _drift_square_free_rows, "random-n10", EIGENSOLVER,
           why="a few drifted rows gain a repeated root, and their members' QR values miss it; "
               "the run ends there"),
    Mutant("kernel-drift-rows-that-stay-square-free", _drift_rows_that_stay_square_free, "random-n10", {},
           item="item 22",
           why="a square-free member takes no QR values, the reduction drifts with the member, and the "
               "moments read only the two top coefficients"),
    Mutant("keep-outcomes-only-when-all-fail", _keep_outcomes_only_when_all_fail, "random-n8",
           {"equality_iff_rho": (5, 0)},
           why="the 5 known false negatives are counted but no longer reported"),
    Mutant("transposed-arc-stack", _transposed_arc_stack, "exhaustive-n4", {"walk_rowsum": (4032, 4032)},
           why="a transposed stack keeps every charpoly, profile, S and verdict; walk_rowsum's "
               "entry-by-entry slot fails exactly the 4,096 - 2^6 non-symmetric digraphs"),
    Mutant("kernel-drift-first-row", _drift_first_row, "exhaustive-n4",
           {"moment_total": (4, 4), "energy_bounds": (4, 21), "charpoly_reduction_invariance": (3, 3),
            "equality_iff_rho": (4, 4), "equality_iff_energy": (1, 1)},
           why="the empty digraph gets rho 1 above sqrt(a) = 0, which fails energy_bounds' own slot "
               "instead of ending the run"),
    Mutant("energy-as-sum-of-re", _energy_as_sum_of_re, "exhaustive-n4",
           {"coulson_match": (3499, 3499), "equality_iff_energy": (4, 4)},
           why="sum Re is the trace, 0: every upper bound holds, but the integrals and the four "
               "predicted energy equalities miss it"),
    Mutant("coulson-sign-flipped", _coulson_sign_flipped, "exhaustive-n4", {"coulson_match": (3499, 3499)},
           why="every integral that is not 0 and meets no pole misses the energy"),
    Mutant("walk-ratio-attained-negated", _walk_ratio_attained_negated, "exhaustive-n4",
           {"equality_iff_rho": (4096, 4096)},
           why="every radius-equality prediction is flipped"),
    Mutant("degree-edge-test", _degree_edge_test, "random-n10", {"equality_iff_rho": (1, 1)},
           why="a P5 with one-way arcs on no cycle is pseudo-semiregular, not semiregular, and attains "
               "the radius bound"),
    Mutant("no-aberth-sweep", _no_aberth_sweep, "exhaustive-n4", {}, item="item 20",
           why="the np.roots starts of the exact square-free factors move rho and the energy by at most "
               "4.4e-15 at n = 4 (1.7e-14 at random n = 10), below every tolerance"),
    Mutant("shifted-qr-values", _shifted_qr_values, "exhaustive-n4", EIGENSOLVER,
           why="a repeated-root member's QR values miss its roots by more than 1e-2 (1 + rho), and the "
               "run ends there; a shift below that tolerance is not seen, by design"),
    Mutant("energy-bound-attained-negated", _energy_bound_attained_negated, "exhaustive-n4",
           {"equality_iff_energy": (4096, 4096)},
           why="every energy-equality prediction is flipped"),
    Mutant("symmetrization-radii-swapped", _symmetrization_radii_swapped, "exhaustive-n4",
           {"symmetrization_radius": (1666, 3284)},
           why="rho(S^2) = rho(S)^2 stands in for rho(S): it misses the root of the other radius unless "
               "rho(S) is 0 or 1, and rho(A) often lies below it"),
    Mutant("off-by-one-walk-profile", _off_by_one_walk_profile, "random-n8",
           {"walk_rowsum": (300, 2400), "walk_sum_identity": (300, 300), "moment_difference": (300, 300),
            "rho_chain": (300, 405), "dominance_chain": (214, 280), "equality_iff_rho": (0, 0)},
           why="every c2 misses the row sums of S and Re - Im of the spectrum; the radius verdicts read the "
               "shifted profile, and the 5 known false negatives are no longer reported"),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant(monkeypatch, mutant):
    _clean(mutant.corpus)  # taken before the mutant is applied
    mutant.apply(monkeypatch)
    assert _outcome(mutant.corpus) == mutant.outcome, mutant.why
    assert (mutant.outcome == {}) == (mutant.item is not None)


def test_transposed_stack_violations_print_the_transposed_rows(monkeypatch):
    _transposed_arc_stack(monkeypatch)
    report = verify_all(4)
    assert report.violations[0].digraph_text == "4\n1 0\n"


def test_rho_above_root_a_fails_a_slot_of_energy_bounds(monkeypatch):
    # The empty digraph of order 4 with x^4 + 1: rho 1 against sqrt(a) = 0.
    # energy_upper_radius is undefined there, so it is neither evaluated
    # nor pinned on that member, and the run goes on.
    _drift_first_row(monkeypatch)
    report = verify_all(4)
    assert report.digraphs_checked == 4096
    first = [v for v in report.violations if (v.digraph_text, v.check) == ("4\n", "energy_bounds")][0]
    assert (first.lhs, first.rhs, first.gap) == (1.0, 0.0, 1.0)


def test_walk_counts_above_root_a_fail_slots_of_energy_bounds(monkeypatch):
    # Every c2 one too high: the empty digraph of order 4 gets c2 / n and
    # an rms walk count of 1 against sqrt(a) = 0, where the walk-mean and
    # walk-rms energy bounds are undefined.  Neither is evaluated nor pinned
    # on that member, each fails a slot of its own, and the run goes on.
    _off_by_one_walk_profile(monkeypatch)
    report = verify_all(4)
    assert report.digraphs_checked == 4096 and report.checks_run["energy_bounds"].failed > 0
    empty = [(v.lhs, v.rhs, v.gap) for v in report.violations if (v.digraph_text, v.check) == ("4\n", "energy_bounds")]
    assert empty == [(1.0, 0.0, 1.0), (1.0, 0.0, 1.0)]


def test_analysis_notes_rho_above_root_a(monkeypatch):
    _drift_first_row(monkeypatch)
    bounds = Analysis(Digraph(4)).to_dict()["bounds"]
    assert bounds["energy_upper_radius"] is None and not bounds["chain_ok"]
    assert bounds["notes"] == ["energy_upper_radius: negative radicand -3.000e+00 in energy bound "
                               "(x=1.0, n=4, a=0)"]
