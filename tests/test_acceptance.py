"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import math
import time

import pytest

from digenergy import (
    Analysis,
    Digraph,
    PurelyImaginaryEigenvalueError,
    coulson_energy,
    energy_upper_mcclelland,
    energy_upper_radius,
    energy_upper_walk_mean,
    energy_upper_walk_ratio,
    energy_upper_walk_rms,
    enumerate_digraphs,
    inject_fault,
    is_strongly_regular,
    rho_lower_walk_mean,
    rho_lower_walk_ratio,
    rho_lower_walk_rms,
    verify_all,
    walk_profile,
    walk_ratio,
)

from families import (
    all_regular_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    directed_cycle,
    matching_graph,
    petersen_graph,
    star_graph,
    spectrum_of,
    sym,
)

CORE_CHECKS = [
    "walk_rowsum",
    "walk_sum_identity",
    "symmetrization_radius",
    "moment_difference",
    "moment_total",
    "rho_chain",
    "energy_bounds",
    "charpoly_reduction_invariance",
    "equality_iff_rho",
    "equality_iff_energy",
]

BOUND_NAMES = [
    "rho_lower_walk_mean",
    "rho_lower_walk_rms",
    "rho_lower_walk_ratio",
    "energy_upper_mcclelland",
    "energy_upper_radius",
    "energy_upper_walk_mean",
    "energy_upper_walk_rms",
    "energy_upper_walk_ratio",
]


def _report(num: int, ok: bool, detail: str = ""):
    print(f"\nacceptance criterion {num}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_exhaustive_small_orders():
    started = time.monotonic()
    rep3 = verify_all(3, checks=CORE_CHECKS)
    rep4 = verify_all(4, checks=CORE_CHECKS)
    elapsed = time.monotonic() - started
    ok = (
        rep3.digraphs_checked == 64
        and rep4.digraphs_checked == 4096
        and not rep3.violations
        and not rep4.violations
        and elapsed < 60.0
    )
    _report(1, ok, f"4160 digraphs, {len(rep3.violations) + len(rep4.violations)} violations, "
                   f"{elapsed:.1f}s")


def test_criterion_2_fixtures_exact():
    failures = []

    k3 = sym(complete_graph(3))
    prof3 = walk_profile(k3)
    spec3 = spectrum_of(k3)
    if abs(spec3.energy - 4.0) > 1e-9:
        failures.append("triangle energy")
    if abs(spec3.rho - 2.0) > 1e-9:
        failures.append("triangle radius")
    if abs(walk_ratio(prof3) - 4.0) > 1e-9:
        failures.append("triangle walk ratio")
    for fn, args in (
        (energy_upper_radius, (prof3, 3, spec3.rho)),
        (energy_upper_walk_mean, (prof3, 3)),
        (energy_upper_walk_rms, (prof3, 3)),
        (energy_upper_walk_ratio, (prof3, 3)),
    ):
        if abs(fn(*args) - 4.0) > 1e-9:
            failures.append(f"triangle {fn.__name__}")

    k2 = sym(complete_graph(2))
    prof2 = walk_profile(k2)
    if abs(spectrum_of(k2).energy - 2.0) > 1e-9:
        failures.append("edge energy")
    if abs(energy_upper_mcclelland(prof2, 2) - 2.0) > 1e-9:
        failures.append("edge mcclelland equality")

    star = sym(star_graph(2))
    profs = walk_profile(star)
    spec_s = spectrum_of(star)
    if abs(spec_s.rho - math.sqrt(2)) > 1e-9:
        failures.append("star radius")
    if abs(rho_lower_walk_ratio(profs) - spec_s.rho) > 1e-9:
        failures.append("star ratio equality")
    verdict = Analysis(star).verdict_rho
    if not (verdict.kind == "SEMIREGULAR_BIPARTITE" and verdict.params == (2, 1)
            and verdict.predicted_equality):
        failures.append("star verdict")

    c3 = directed_cycle(3)
    profc = walk_profile(c3)
    if abs(spectrum_of(c3).energy - 2.0) > 1e-9:
        failures.append("directed triangle energy")
    if any(abs(v) > 1e-9 for v in (rho_lower_walk_mean(profc, 3),
                                   rho_lower_walk_rms(profc, 3),
                                   rho_lower_walk_ratio(profc))):
        failures.append("directed triangle lower bounds")

    _report(2, not failures, ", ".join(failures) if failures else "all fixtures exact")


def test_criterion_3_ordering_chains():
    bad_rms_ratio = 0
    bad_dominated = 0
    checked_dominated = 0
    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            prof = walk_profile(d)
            if prof.c2_total > 0:
                rms = math.sqrt(prof.sum_c2_sq / n)
                ratio = math.sqrt(prof.sum_t2_sq / prof.sum_c2_sq)
                if rms > ratio + 1e-8:
                    bad_rms_ratio += 1
            if prof.a * n < prof.c2_total ** 2:
                checked_dominated += 1
                e_ratio = energy_upper_walk_ratio(prof, n)
                e_rms = energy_upper_walk_rms(prof, n)
                e_mean = energy_upper_walk_mean(prof, n)
                if e_ratio > e_rms + 1e-8 or e_rms > e_mean + 1e-8:
                    bad_dominated += 1
    ok = bad_rms_ratio == 0 and bad_dominated == 0 and checked_dominated > 0
    _report(3, ok, f"{checked_dominated} walk-dominated digraphs, "
                   f"{bad_rms_ratio + bad_dominated} ordering failures")


def test_criterion_4_coulson_integral():
    violations = 0
    skipped = 0
    for n in range(1, 5):
        rep = verify_all(n, checks=["coulson_match"])
        violations += len(rep.violations)
        skipped += rep.checks_run["coulson_match"].skipped
    raised = False
    try:
        coulson_energy(spectrum_of(directed_cycle(4)))
    except PurelyImaginaryEigenvalueError:
        raised = True
    ok = violations == 0 and raised
    _report(4, ok, f"{violations} mismatches, {skipped} pole-adjacent skips, "
                   f"4-cycle raises: {raised}")


def _radius_equality_holds(d, tol=1e-7):
    prof = walk_profile(d)
    gap = abs(rho_lower_walk_ratio(prof) - spectrum_of(d).rho)
    verdict = Analysis(d).verdict_rho
    return gap <= tol and verdict.predicted_equality


def _energy_equality_holds(d, tol=1e-7):
    prof = walk_profile(d)
    gap = abs(energy_upper_walk_ratio(prof, d.n) - spectrum_of(d).energy) if d.n else 0.0
    verdict = Analysis(d).verdict_energy
    return gap <= tol and verdict.predicted_equality


def _with_pendant_arc(d):
    return Digraph(d.n + 1, set(d.arcs) | {(0, d.n)})


def test_criterion_5_equality_families():
    failures = []

    regular_count = 0
    for n in range(1, 7):
        for g in all_regular_graphs(n):
            regular_count += 1
            d = sym(g)
            if not _radius_equality_holds(d):
                failures.append(f"regular n={n} {sorted(g.edges)}")
            if n >= 1 and not _radius_equality_holds(_with_pendant_arc(d)):
                failures.append(f"regular+arc n={n} {sorted(g.edges)}")

    for r1 in range(1, 4):
        for r2 in range(1, r1 + 1):
            d = sym(complete_bipartite(r1, r2))
            if not _radius_equality_holds(d):
                failures.append(f"bipartite {r1},{r2}")
            v = Analysis(_with_pendant_arc(d)).verdict_rho
            if not (v.predicted_equality and v.extra_noncycle_arcs):
                failures.append(f"bipartite+arc {r1},{r2}")
            if not _radius_equality_holds(_with_pendant_arc(d)):
                failures.append(f"bipartite+arc gap {r1},{r2}")

    for n in range(1, 7):
        if not _energy_equality_holds(sym(complete_graph(n))):
            failures.append(f"complete n={n}")
    for n in (2, 4, 6):
        if not _energy_equality_holds(sym(matching_graph(n // 2))):
            failures.append(f"matching n={n}")
    for n in (0, 1, 3, 5):
        if not _energy_equality_holds(Digraph(n)):
            failures.append(f"empty n={n}")

    for name, g, params in (("pentagon", cycle_graph(5), (5, 2, 0, 1)),
                            ("petersen", petersen_graph(), (10, 3, 0, 1))):
        d = sym(g)
        prof = walk_profile(d)
        gap = energy_upper_walk_ratio(prof, d.n) - spectrum_of(d).energy
        verdict = Analysis(d).verdict_energy
        if is_strongly_regular(g) != params:
            failures.append(f"{name} srg params")
        if verdict.predicted_equality or gap <= 1e-7:
            failures.append(f"{name} should be strict")
        if verdict.kind != "STRONGLY_REGULAR":
            failures.append(f"{name} verdict kind")

    _report(5, not failures,
            f"{regular_count} regular graphs; " + (", ".join(failures) if failures else "all equal"))


@pytest.mark.parametrize("name", BOUND_NAMES)
def test_criterion_6_fault_injection(name):
    with inject_fault(name, 1e-3):
        rep = verify_all(3, checks=["rho_chain", "energy_bounds"])
    _report(6, len(rep.violations) >= 1, f"{name}: {len(rep.violations)} violations")


def test_criterion_7_randomized_extension():
    started = time.monotonic()
    total_violations = 0
    for k, p in enumerate((0.2, 0.5, 0.8)):
        rep = verify_all(
            8,
            checks=["moment_difference", "moment_total", "rho_chain", "energy_bounds"],
            mode="random",
            count=1000,
            p=p,
            seed=101 + k,
        )
        total_violations += len(rep.violations)
    elapsed = time.monotonic() - started
    ok = total_violations == 0 and elapsed < 120.0
    _report(7, ok, f"3000 digraphs at n=8, {total_violations} violations, {elapsed:.1f}s")
