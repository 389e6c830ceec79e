"""Correctness gate: independent checks on what digenergy returns.

Every failed operation is counted and classified.  Three classes are known
defects of the program at the time the benchmark was written; they are
counted in ``failed`` like any other failure, and only the verdict
(``Tally.correct``) tells them apart from a new failure, so that a fix
shows as fewer failures and a regression shows as a false verdict.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

KNOWN_DEFECTS = {
    "equality_iff_rho_false_negative":
        "equality_verdict_rho_lower says NONE where the walk-ratio radius bound is attained",
    "coulson_false_pole":
        "coulson_energy reports an integrand pole on a symmetric digraph, whose spectrum is real",
    "coulson_quadrature_miss":
        "coulson_energy(rel_tol=1e-6) misses the spectral energy by slightly more than 1e-6 "
        "(2.3e-6 on a 10-vertex random digraph with a zero eigenvalue)",
}
# The Coulson integral is asked for rel_tol 1e-6, and both the harness's
# coulson_match check and the CLI check measure the gap as
# |integral - energy| / max(1, energy).  A gap above COULSON_TOL up to
# COULSON_MISS_MAX is the known quadrature miss: the largest miss seen was
# 2.3e-6, so the band allows about four times that and no more.  A larger
# gap is a new failure, on either path.
COULSON_TOL = 1e-6
COULSON_MISS_MAX = 1e-5

# Relative tolerance for float facts (same normalisation as bounds.leq_tol).
FLOAT_TOL = 1e-8


@dataclass
class Tally:
    """Operations attempted and failed, failures by class, and bookkeeping
    problems (a report that does not account for what was asked)."""

    attempted: int = 0
    failed: int = 0
    by_class: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    def absorb(self, other: dict) -> None:
        """Add the counts of another tally, given as its ``to_dict()``."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.by_class.update(other["failures_by_class"])
        self.problems.extend(other["problems"])

    def add(self, attempted: int, failures: list, problems: list = ()) -> None:
        """``failures`` holds one list of failure classes per failed operation."""
        self.attempted += attempted
        self.failed += len(failures)
        for classes in failures:
            self.by_class.update(classes)
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return not self.problems and set(self.by_class) <= set(KNOWN_DEFECTS)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures_by_class": dict(sorted(self.by_class.items())),
            "known_defects": sorted(set(self.by_class) & set(KNOWN_DEFECTS)),
            "problems": self.problems[:20],
            "correct": self.correct,
        }


def report_digest(report: dict) -> str:
    """sha256 of a verify report without its elapsed time."""
    body = {k: v for k, v in report.items() if k != "elapsed_seconds"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def verify_failures(report: dict, requested: int, checks) -> tuple[list, list]:
    """Failed (digraph, check) evaluations of a ``VerificationReport.to_dict()``.

    Returns one list of failure classes per failed evaluation, and the
    bookkeeping problems: every check must account for every requested
    digraph, and no digraph may make the walk-ratio bound inapplicable.
    """
    problems = []
    if report["digraphs_checked"] != requested:
        problems.append(f"digraphs_checked {report['digraphs_checked']} != {requested}")
    if list(report["checks"]) != list(checks):
        problems.append(f"checks run {list(report['checks'])} != {list(checks)}")
    for name, s in report["checks"].items():
        total = s["passed"] + s["failed"] + s["skipped"]
        if total != requested:
            problems.append(f"{name}: passed+failed+skipped {total} != {requested}")
    if report["bound_inapplicable"]:
        problems.append(f"walk-ratio bound inapplicable on {len(report['bound_inapplicable'])} digraph(s)")

    by_op: dict = {}
    for v in report["violations"]:
        by_op.setdefault((v["digraph"], v["check"]), []).append(v)
    failures = [[_violation_class(check, vs)] for (_, check), vs in by_op.items()]
    n_failed = sum(s["failed"] for s in report["checks"].values())
    if n_failed != len(failures):
        problems.append(f"{n_failed} failed evaluations but {len(failures)} with violations")
        failures.extend([["unexplained_failed_count"]] * max(0, n_failed - len(failures)))
    return failures, problems


def _violation_class(check: str, violations: list) -> str:
    if check == "equality_iff_rho" and all(v["lhs"] == 0.0 and v["rhs"] == 1.0 for v in violations):
        return "equality_iff_rho_false_negative"
    if check == "coulson_match" and all(v["gap"] <= COULSON_MISS_MAX for v in violations):
        return "coulson_quadrature_miss"
    return f"violation:{check}"


def _leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + FLOAT_TOL * max(1.0, abs(lhs), abs(rhs))


def _close(lhs: float, rhs: float) -> bool:
    return abs(lhs - rhs) <= FLOAT_TOL * max(1.0, abs(lhs), abs(rhs))


def _energy_bound(x, n: int, a: int, in_domain: bool = True):
    """f(x) = x + sqrt((n-1)(a - x^2)), or None where bounds.py finds the
    bound inapplicable: no vertices, x out of the bound's domain, or a
    negative radicand."""
    if not n or not in_domain or (n - 1) * (a - x * x) < -1e-9 * max(1.0, abs(a)):
        return None
    return x + math.sqrt(max(0.0, (n - 1) * (a - x * x)))


def analyze_failures(doc: dict, n: int, arcs) -> list:
    """Failure classes of one ``analyze --json`` document for the digraph
    (n, arcs); empty when every recomputed fact holds, ``["bad_document"]``
    when the document does not have the expected shape."""
    try:
        return _analyze_failures(doc, n, arcs)
    except (KeyError, TypeError, ValueError, IndexError):
        return ["bad_document"]


def _analyze_failures(doc: dict, n: int, arcs) -> list:
    bad = []
    arcs = sorted({(int(i), int(j)) for i, j in arcs})
    if doc["digraph"]["n"] != n or [tuple(a) for a in doc["digraph"]["arcs"]] != arcs:
        return ["digraph_echo"]

    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in arcs:
        adj[i, j] = 1
    sym = adj * adj.T
    c2 = sym.sum(axis=1)
    t2 = sym @ c2
    want = {
        "c2_seq": [int(x) for x in c2],
        "t2_seq": [int(x) for x in t2],
        "c2_total": int(c2.sum()),
        "sum_c2_sq": int((c2 * c2).sum()),
        "sum_t2_sq": int((t2 * t2).sum()),
        "arc_count": len(arcs),
    }
    if doc["profile"] != want:
        bad.append("profile")
    a, c2_total, sum_c2_sq, sum_t2_sq = len(arcs), want["c2_total"], want["sum_c2_sq"], want["sum_t2_sq"]

    spec = doc["spectrum"]
    zs = [complex(re, im) for re, im in spec["eigenvalues"]]
    rho, energy = spec["rho"], spec["energy"]
    if len(zs) != n:
        bad.append("eigenvalue_count")
    scale = 1.0 + max((abs(z) for z in zs), default=0.0)
    if abs(sum(zs)) > FLOAT_TOL * max(1, n) * scale:
        bad.append("eigenvalue_sum")
    if not _close(sum(z.real ** 2 for z in zs) - sum(z.imag ** 2 for z in zs), float(c2_total)):
        bad.append("moment_identity")
    if not (_close(rho, max((abs(z) for z in zs), default=0.0))
            and _close(energy, sum(abs(z.real) for z in zs))):
        bad.append("spectrum_summary")

    # Bound values recomputed from the profile integers, with the cases
    # where bounds.py reports a bound as null; then the orderings.
    b = doc["bounds"]
    mean = c2_total / n if n else None
    rms = math.sqrt(sum_c2_sq / n) if n else None
    ratio = math.sqrt(sum_t2_sq / sum_c2_sq) if sum_c2_sq else 0.0
    lowers = {"rho_lower_walk_mean": mean, "rho_lower_walk_rms": rms, "rho_lower_walk_ratio": ratio}
    uppers = {
        "energy_upper_mcclelland": math.sqrt(n * (a + c2_total) / 2.0) if n else None,
        "energy_upper_radius": _energy_bound(rho, n, a),
        "energy_upper_walk_mean": _energy_bound(mean, n, a, c2_total ** 2 <= a * n * n),
        "energy_upper_walk_rms": _energy_bound(rms, n, a, sum_c2_sq <= a * n),
        "energy_upper_walk_ratio": _energy_bound(ratio, n, a, sum_t2_sq <= a * sum_c2_sq),
    }
    expected = {**lowers, **uppers}
    if any((value is None) != (b[key] is None) for key, value in expected.items()):
        bad.append("bound_applicability")
    if any(value is not None and b[key] is not None and not _close(b[key], value)
           for key, value in expected.items()):
        bad.append("bound_formula")
    if any(b[k] is not None and not _leq(b[k], rho) for k in lowers):
        bad.append("rho_lower_bound")
    if any(b[k] is not None and not _leq(energy, b[k]) for k in uppers):
        bad.append("energy_upper_bound")

    coulson = doc["coulson_energy"]
    if coulson is None:
        if set(arcs) == {(j, i) for i, j in arcs}:
            bad.append("coulson_false_pole")
    else:
        gap = abs(coulson - energy) / max(1.0, energy)
        if gap > COULSON_TOL:
            bad.append("coulson_quadrature_miss" if gap <= COULSON_MISS_MAX else "coulson_mismatch")
    return bad
