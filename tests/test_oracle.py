import gc
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import digenergy
from digenergy import (
    CHECK_NAMES,
    MAX_VERTICES,
    Analysis,
    Digraph,
    EigensolverError,
    PurelyImaginaryEigenvalueError,
    UnknownCheckError,
    adjacency_matrix,
    bound_chain_report,
    characteristic_polynomial,
    coulson_energy,
    cycle_arc_reduction,
    eigenvalues,
    enumerate_digraphs,
    equality_verdict_energy_upper,
    equality_verdict_rho_lower,
    geometric_symmetrization,
    inject_fault,
    qr_values,
    random_digraph,
    serialize_edge_list,
    verify_all,
    walk_profile,
)
from digenergy.bounds import DEFAULT_TOL
from digenergy import kernels as kernels_mod
from digenergy import oracle as oracle_mod
from digenergy import spectrum as spectrum_mod
from digenergy.spectrum import Memo, Spectrum, unwrap
from digenergy.structure import KIND_EMPTY

from families import complete_graph, directed_cycle, outcomes, path_graph, spectrum_of, sym


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 4), (3, 64)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_digraphs(n)) == count

    def test_distinct_and_first_last(self):
        seen = list(enumerate_digraphs(2))
        assert len(set(seen)) == 4
        assert seen[0].arc_count == 0
        assert seen[-1] == sym(complete_graph(2))

    @pytest.mark.parametrize("n", [0, 6])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError):
            list(enumerate_digraphs(n))


def _splitmix64_stream(seed, count):
    """The first ``count`` words of the SplitMix64 stream seeded with
    ``seed``, drawn one at a time: the reference for ``random_digraph``."""
    mask = (1 << 64) - 1
    state = seed & mask
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    return words


class TestRandomDigraph:
    def test_p_zero_empty(self):
        assert random_digraph(3, 0.0, 99).arc_count == 0

    def test_p_one_complete(self):
        assert random_digraph(3, 1.0, 99) == sym(complete_graph(3))

    def test_deterministic(self):
        a = random_digraph(4, 0.5, 42)
        b = random_digraph(4, 0.5, 42)
        assert a == b

    def test_seed_changes_result(self):
        draws = {random_digraph(6, 0.5, seed) for seed in range(8)}
        assert len(draws) > 1

    def test_known_stream(self):
        # frozen output of the SplitMix64 arc stream for (3, 0.5, 0)
        d = random_digraph(3, 0.5, 0)
        assert d == random_digraph(3, 0.5, 0)
        assert 0 <= d.arc_count <= 6

    def test_counter_form_matches_stream(self):
        # Every seed's stream is one sequence of words whatever n is, so it
        # is drawn once, for the most pairs, and each (n, p) reads a prefix.
        # n = 128 takes every twentieth seed, as its stream is slow in Python.
        edge_seeds = [2 ** 64 - 1, 2 ** 64 - 5, -3, 2 ** 70 + 9]
        orders = (1, 2, 5, 10, 12, 32, 128)
        pairs = {n: [(i, j) for i in range(n) for j in range(n) if i != j] for n in orders}
        for seed in list(range(200)) + edge_seeds:
            drawn = orders if seed % 20 == 0 or seed in edge_seeds else orders[:-1]
            words = _splitmix64_stream(seed, len(pairs[drawn[-1]]))
            for n in drawn:
                for p in (0.0, 0.1, 0.3, 0.5, 1.0):
                    threshold = int(p * (1 << 64))
                    want = {pair for pair, word in zip(pairs[n], words) if word < threshold}
                    assert random_digraph(n, p, seed).arcs == want, (n, p, seed)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_digraph(0, 0.5, 1)
        with pytest.raises(ValueError):
            random_digraph(3, 1.5, 1)

    def test_vertex_cap(self):
        assert random_digraph(MAX_VERTICES, 0.0, 1).n == MAX_VERTICES
        with pytest.raises(ValueError):
            random_digraph(MAX_VERTICES + 1, 0.5, 1)


class TestVerifyAll:
    def test_exhaustive_n2_all_clean(self):
        rep = verify_all(2)
        assert rep.ok and rep.digraphs_checked == 4
        assert not rep.bound_inapplicable

    def test_subset_of_checks(self):
        rep = verify_all(3, checks=["rho_chain"])
        assert list(rep.checks_run) == ["rho_chain"]
        assert rep.checks_run["rho_chain"].passed == 64

    @pytest.mark.parametrize("n,checks,kwargs", [
        (3, ["rho_chain"], {}),
        (8, ["equality_iff_rho"], dict(mode="random", count=300, p=0.3, seed=0)),
    ])
    def test_check_named_twice_runs_once(self, n, checks, kwargs):
        # A doubled name must not count a digraph twice or repeat its
        # violations (random n = 8 holds five).
        def body(names):
            report = verify_all(n, checks=names, **kwargs)
            return {k: v for k, v in report.to_dict().items() if k != "elapsed_seconds"}

        assert body(checks * 2) == body(checks)

    def test_unknown_check(self):
        with pytest.raises(UnknownCheckError):
            verify_all(3, checks=["no_such_check"])

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            verify_all(6, mode="exhaustive")

    def test_random_cap(self):
        with pytest.raises(ValueError):
            verify_all(13, mode="random", count=1)

    @pytest.mark.parametrize("p", [-0.5, 1.5, float("nan")])
    def test_p_outside_the_unit_interval_builds_no_block(self, monkeypatch, p):
        monkeypatch.setattr(oracle_mod, "_random_blocks", lambda *args: pytest.fail("blocks were asked for"))
        with pytest.raises(ValueError, match=r"need 0 <= p <= 1"):
            verify_all(3, mode="random", count=3, p=p)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            verify_all(3, mode="sideways")

    def test_random_mode_clean(self):
        rep = verify_all(6, checks=["moment_difference", "moment_total"],
                         mode="random", count=50, p=0.4, seed=11)
        assert rep.ok and rep.digraphs_checked == 50

    def test_deterministic_reports(self):
        kwargs = dict(checks=["rho_chain", "energy_bounds"], mode="random",
                      count=30, p=0.6, seed=5)
        a = verify_all(5, **kwargs)
        b = verify_all(5, **kwargs)
        assert a.to_dict()["checks"] == b.to_dict()["checks"]
        assert [v.to_dict() for v in a.violations] == [v.to_dict() for v in b.violations]

    def test_violations_carry_serialized_digraph(self):
        with inject_fault("rho_lower_walk_mean", 1e-3):
            rep = verify_all(2, checks=["rho_chain"])
        assert not rep.ok
        v = rep.violations[0]
        assert v.check == "rho_chain"
        # the embedded text parses back to a digraph of the right order
        from digenergy import parse_edge_list

        assert parse_edge_list(v.digraph_text).n == 2

    def test_report_json_serializable(self):
        rep = verify_all(2)
        blob = json.dumps(rep.to_dict())
        parsed = json.loads(blob)
        assert parsed["digraphs_checked"] == 4
        assert set(parsed["checks"]) == set(CHECK_NAMES)

    def test_coulson_skip_counting(self):
        rep = verify_all(4, checks=["coulson_match"], mode="random",
                         count=40, p=0.5, seed=2)
        stats = rep.checks_run["coulson_match"]
        assert stats.passed + stats.failed + stats.skipped == 40

    # Both report pins hold at every block size: a block's per-polynomial
    # tables and stacked checks give each member the bits it gets alone.
    @pytest.mark.parametrize("block_size", [7, 64, 256, 4096])
    def test_exhaustive_n4_report_is_byte_stable(self, monkeypatch, block_size):
        # Pinned so that memoizing or batching the harness cannot change
        # the report silently; the elapsed time is the one varying field.
        monkeypatch.setattr(oracle_mod, "BLOCK_SIZE", block_size)
        body = {k: v for k, v in verify_all(4).to_dict().items() if k != "elapsed_seconds"}
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
        assert digest == "72725c05134611eeb06497a84e4da536f9373538810de387eb9cb398b8de77a2"

    @pytest.mark.parametrize("block_size", [7, 64, 256, 4096])
    def test_random_n10_report_is_byte_stable(self, monkeypatch, block_size):
        # Almost every charpoly of this corpus is distinct, so it pins the
        # spectra certified per digraph, where the n = 4 pin mostly pins
        # shared ones.
        monkeypatch.setattr(oracle_mod, "BLOCK_SIZE", block_size)
        body = {k: v for k, v in verify_all(10, mode="random", count=200, p=0.3,
                                            seed=1000000).to_dict().items()
                if k != "elapsed_seconds"}
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
        assert digest == "20db5d51a57424dc8c0c559a03058abb965f56dc344b5d46368850d6adf0a5aa"

    def test_random_n10_analysis_documents_are_byte_stable(self):
        # The two report pins hold counts and violations only; this one pins
        # the values: every spectrum, bound and Coulson integral of the same
        # corpus, each a lone Analysis, as ``analyze`` takes it.  A spectrum
        # is its polynomial's in any block, so the same digest held over
        # blocks that share one Memo.
        ds = [random_digraph(10, 0.3, 1_000_000 + k) for k in range(200)]
        docs = [Analysis(d, DEFAULT_TOL).to_dict() for d in ds]
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "b15a5cad9d57798bee47258accb6a191b1b869aae08dbf6e7fff63030cfd5bcc"

    def test_verify_loads_no_module_after_import(self):
        # Each benchmark round is a fresh process, so a module that a run
        # imports lazily is paid on every round.
        src = str(pathlib.Path(digenergy.__file__).resolve().parent.parent)
        code = ("import sys, digenergy; before = set(sys.modules); digenergy.verify_all(4); "
                "digenergy.verify_all(10, mode='random', p=0.3, count=200); "
                "print(sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr

    def test_a_run_leaves_nothing_behind(self, monkeypatch):
        # A second run in the same process does the same exact work and
        # reports the same: nothing outlives a verify_all call.
        calls = []

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(kernels_mod, "square_free_decompositions")
        counting(spectrum_mod, "_level_synchronous_gl")
        runs = []
        for _ in range(2):
            calls.clear()
            body = _report_text(verify_all(4))
            runs.append((body, calls.count("square_free_decompositions"),
                         calls.count("_level_synchronous_gl")))
        assert runs[0] == runs[1]
        assert runs[0][1] and runs[0][2]


class TestAnalysis:
    """``Analysis`` is a memo: its document equals the one built from
    independently computed pieces, and each piece is computed once however
    often it is read."""

    CORPUS = (list(enumerate_digraphs(3))
              + [random_digraph(6, p, seed) for p in (0.3, 0.6) for seed in range(10)]
              + [directed_cycle(4)])
    TOL = 1e-8

    def _cold_document(self, d):
        profile = walk_profile(d)
        spec = spectrum_of(d)
        report = bound_chain_report(profile, spec, self.TOL)
        warnings = list(report.notes)
        try:
            coulson = coulson_energy(spec, spectrum_mod.REL_TOL_FLOOR)
        except PurelyImaginaryEigenvalueError as exc:
            coulson = None
            warnings.append(f"coulson integral skipped: {exc}")
        else:
            gap = abs(coulson - spec.energy) / max(1.0, spec.energy)
            if gap > oracle_mod.ENERGY_GAP_TOL:
                warnings.append(f"coulson integral differs from the energy by {gap:.3e} relative")
        return {
            "digraph": {"n": d.n, "arc_count": d.arc_count,
                        "arcs": [list(a) for a in sorted(d.arcs)]},
            "profile": {"c2_seq": list(profile.c2_seq), "t2_seq": list(profile.t2_seq),
                        "c2_total": profile.c2_total, "sum_c2_sq": profile.sum_c2_sq,
                        "sum_t2_sq": profile.sum_t2_sq, "arc_count": profile.a},
            "spectrum": {"eigenvalues": [[z.real, z.imag] for z in spec.eigenvalues],
                         "rho": spec.rho, "energy": spec.energy},
            "bounds": report.to_dict(),
            "verdicts": {
                "radius_lower": equality_verdict_rho_lower(
                    adjacency_matrix(d), profile, adjacency_matrix(cycle_arc_reduction(d))).to_dict(),
                "energy_upper": equality_verdict_energy_upper(adjacency_matrix(d)).to_dict(),
            },
            "coulson_energy": coulson,
            "warnings": warnings,
        }

    def test_document_equals_cold_calls(self):
        for d in self.CORPUS:
            assert Analysis(d, self.TOL).to_dict() == self._cold_document(d)

    def test_coulson_quadrature_miss_digraph(self):
        # From a random n = 10 benchmark round, where a quadrature over
        # (-pi/2, pi/2) from two start panels missed the energy by 2.3e-6.
        d = Digraph(10, [(0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (1, 6), (1, 7), (2, 4), (2, 5),
                         (2, 6), (2, 7), (3, 0), (3, 4), (3, 5), (4, 0), (4, 3), (5, 0), (5, 4),
                         (5, 9), (7, 2), (7, 6), (7, 8), (8, 1), (8, 6), (8, 9), (9, 1), (9, 5),
                         (9, 6), (9, 7), (9, 8)])
        analysis = Analysis(d)
        assert analysis.coulson == pytest.approx(analysis.spectrum.energy, rel=1e-10)

    def test_energy_gap_at_n128_is_flagged(self):
        # The Cartesian product G □ H has the eigenvalues lambda_i + mu_j, so
        # its energy is composed from the spectra of its factors, which are
        # accurate to about 1e-15.  At n = 128 the certified energy misses it
        # by 1.46e-8 relative, and the integral at REL_TOL_FLOOR meets it;
        # the document carries the gap as a warning and exits as before.
        g, h = random_digraph(4, 0.5, 2), random_digraph(32, 0.3, 1)
        product = Digraph(128, [(u * 32 + v, w * 32 + v) for u, w in g.arcs for v in range(32)]
                          + [(u * 32 + v, u * 32 + x) for v, x in h.arcs for u in range(4)])
        lam, mu = (np.array(Analysis(f).spectrum.eigenvalues) for f in (g, h))
        composed = float(np.abs((lam[:, None] + mu).real).sum())
        doc = Analysis(product).to_dict()
        energy, coulson = doc["spectrum"]["energy"], doc["coulson_energy"]
        assert abs(coulson - composed) <= 1e-13 * composed
        assert 1e-8 < abs(energy - composed) / composed < 2e-8
        assert doc["warnings"] == ["coulson integral differs from the energy by 1.460e-08 relative"]

    def test_energy_gap_of_the_8_by_16_product(self):
        # A second n = 128 Cartesian product.  Its certified energy misses
        # the composed one by 1.35e-4 (7.8e-7 relative), the integral meets
        # it, and the note says so; the roots' accuracy at n = 128 will move
        # this miss to a few ulps.
        g, h = random_digraph(8, 0.4, 3), random_digraph(16, 0.3, 7)
        product = Digraph(128, [(u * 16 + v, w * 16 + v) for u, w in g.arcs for v in range(16)]
                          + [(u * 16 + v, u * 16 + x) for v, x in h.arcs for u in range(8)])
        lam, mu = (np.array(Analysis(f).spectrum.eigenvalues) for f in (g, h))
        composed = float(np.abs((lam[:, None] + mu).real).sum())
        doc = Analysis(product).to_dict()
        energy, coulson = doc["spectrum"]["energy"], doc["coulson_energy"]
        assert abs(coulson - composed) <= 1e-13 * composed
        assert 1.3e-4 < energy - composed < 1.4e-4
        assert doc["warnings"] == ["coulson integral differs from the energy by 7.783e-07 relative"]

    def test_energy_gap_note_is_the_rule(self, monkeypatch):
        # A note exactly when |coulson - energy| / max(1, energy) > 1e-9.
        d = random_digraph(10, 0.3, 7)
        energy = Analysis(d).spectrum.energy
        for shift, noted in ((0.0, False), (0.9e-9, False), (1.1e-9, True)):
            monkeypatch.setattr(oracle_mod, "coulson_energy", lambda spec, rel_tol: energy * (1 + shift))
            assert bool(Analysis(d).warnings) == noted, shift

    def test_charpoly_and_spectrum_computed_once(self, monkeypatch):
        # A lone analysis is a block of one: one kernel call computes the
        # charpolys of the digraph and of its cycle-arc reduction, and one
        # ``certify_spectra`` call takes that charpoly as it is.
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kernels_mod, "charpoly_from_masks", counting(kernels_mod.charpoly_from_masks))
        monkeypatch.setattr(oracle_mod, "certify_spectra", counting(spectrum_mod.certify_spectra))
        for d in self.CORPUS:
            calls.clear()
            analysis = Analysis(d, self.TOL)
            first = analysis.to_dict()
            assert analysis.to_dict() == first
            # Row 0 of the block's table is the digraph's polynomial, and
            # its reduction's (the same polynomial) shares that row.
            block = analysis._block
            assert analysis.spectrum.charpoly is block.polys[0]
            assert block.poly_index[0] == block.reduced_index[0] == 0
            assert sorted(calls) == ["certify_spectra", "charpoly_from_masks"]

    def test_one_kernel_call_per_block(self, monkeypatch):
        rows = []
        kernel = kernels_mod.charpoly_from_masks

        def counting(stack):
            rows.append(len(stack))
            return kernel(stack)

        monkeypatch.setattr(kernels_mod, "charpoly_from_masks", counting)
        block = oracle_mod.BLOCK_SIZE
        verify_all(3, mode="random", count=2 * block + 1, p=0.5, seed=1)
        assert len(rows) == 3
        # Each block holds its digraphs, then the reductions that drop an arc.
        assert all(block <= r <= 2 * block for r in rows[:2]) and rows[-1] in (1, 2)


def _shared_spectrum(d, memo):
    """The spectrum of ``d`` as a block of one that shares ``memo``."""
    return unwrap(oracle_mod._Block.from_digraphs([d], memo).outcome(0))


class TestSharedSpectra:
    """Blocks that share a ``Memo``, as the blocks of one ``verify_all``
    call do, certify each characteristic polynomial once."""

    def test_exhaustive_n4_matches_cold_calls(self):
        # A shared spectrum is the polynomial's, so every digraph gets the
        # bits of its own cold call, not only the first with its polynomial.
        memo = Memo()
        for d in enumerate_digraphs(4):
            spec = _shared_spectrum(d, memo)
            assert spec.charpoly == characteristic_polynomial(d)
            assert repr(spec) == repr(spectrum_of(d))
        assert len(memo.spectra) == 46

    def test_hit_returns_the_certified_spectrum(self):
        memo = Memo()
        # x^3 (repeated root) and x^3 - 1 (square-free), two digraphs each.
        pairs = [(Digraph(3), Digraph(3, [(0, 1)])),
                 (directed_cycle(3), Digraph(3, [(1, 0), (0, 2), (2, 1)]))]
        for first, second in pairs:
            spec = _shared_spectrum(first, memo)
            assert _shared_spectrum(second, memo) is spec

    def test_square_free_hit_does_no_refinement(self, monkeypatch):
        memo = Memo()
        _shared_spectrum(directed_cycle(3), memo)

        def forbidden(*args):
            raise AssertionError("refinement on a square-free hit")

        monkeypatch.setattr(spectrum_mod, "_aberth_refine", forbidden)
        monkeypatch.setattr(spectrum_mod, "qr_values", forbidden)
        relabeled = Digraph(3, [(1, 0), (0, 2), (2, 1)])
        assert _shared_spectrum(relabeled, memo).charpoly.coeffs == (-1, 0, 0, 1)

    def test_repeated_root_hit_checks_its_own_qr_values(self, monkeypatch):
        # Both digraphs have x^3; the second one's QR values are moved far
        # from 0, so the shared spectrum must be rejected for it.
        memo = Memo()
        _shared_spectrum(Digraph(3), memo)
        monkeypatch.setattr(spectrum_mod, "qr_values", lambda a: qr_values(a) + 100.0)
        with pytest.raises(EigensolverError, match="disagree"):
            _shared_spectrum(Digraph(3, [(0, 1)]), memo)

    @pytest.mark.parametrize("block_size", [oracle_mod.BLOCK_SIZE, 4096], ids=["default", "4096"])
    def test_each_polynomial_is_refined_once_per_run(self, monkeypatch, block_size):
        # Each distinct square-free factor is refined once per run: the
        # degree-4 rows are the square-free polynomials, each its own one
        # factor, and the degree-1 and 2 rows the factors of the
        # repeated-root polynomials, so the counts do not depend on the
        # block size, and the report does not change.
        rows = []
        refine = spectrum_mod._aberth_refine

        def counting(polys, roots):
            rows.extend(len(p) - 1 for p in polys)
            return refine(polys, roots)

        monkeypatch.setattr(spectrum_mod, "_aberth_refine", counting)
        monkeypatch.setattr(oracle_mod, "BLOCK_SIZE", block_size)
        body = _report_text(verify_all(4))
        polys = list({characteristic_polynomial(d).coeffs for d in enumerate_digraphs(4)})
        decomps = kernels_mod.square_free_decompositions(polys)
        square_free = [c for c, dec in zip(polys, decomps) if dec == [(c, 1)]]
        factors = {f for dec in decomps if len(dec) > 1 or dec[0][1] > 1 for f, _ in dec}
        assert rows.count(4) == len(square_free) == 36
        assert (rows.count(1), rows.count(2), len(rows)) == (3, 7, 46)
        assert sorted(len(f) - 1 for f in factors) == [1] * 3 + [2] * 7
        assert hashlib.sha256(body.encode()).hexdigest().startswith("72725c05")

    def test_default_is_not_shared(self):
        d = directed_cycle(3)
        assert Analysis(d).spectrum is not Analysis(d).spectrum


def _report_text(report) -> str:
    return json.dumps({k: v for k, v in report.to_dict().items() if k != "elapsed_seconds"},
                      sort_keys=True)


def _first_difference(a, b) -> str:
    """Where two reports first differ: their first differing violation, or
    else the rest of their bodies."""
    texts = [[json.dumps(v.to_dict()) for v in r.violations] for r in (a, b)]
    for k, (x, y) in enumerate(itertools.zip_longest(*texts)):
        if x != y:
            return f"violation {k} differs: {x} against {y}"
    rest = [{k: v for k, v in r.to_dict().items() if k not in ("violations", "elapsed_seconds")} for r in (a, b)]
    return f"the violations are equal, the rest differs: {rest[0]} against {rest[1]}"


BLOCK = oracle_mod.BLOCK_SIZE


class TestBlocks:
    """The harness takes its corpus in blocks of ``BLOCK_SIZE`` digraphs and
    computes their numeric layers as stacks; its reports equal those of a
    per-digraph run (blocks of one), across every block boundary."""

    def _assert_equals_per_digraph_run(self, monkeypatch, n, **kwargs):
        blocked = verify_all(n, **kwargs)
        with monkeypatch.context() as m:
            m.setattr(oracle_mod, "BLOCK_SIZE", 1)
            reference = verify_all(n, **kwargs)
        # Digests, not the texts: pytest's diff of two ~100 KB report texts
        # runs for minutes, so a difference names its first violation instead.
        digests = [hashlib.sha256(_report_text(r).encode()).hexdigest() for r in (blocked, reference)]
        assert digests[0] == digests[1], _first_difference(blocked, reference)
        for stats in blocked.checks_run.values():
            assert stats.passed + stats.failed + stats.skipped == blocked.digraphs_checked
        return blocked

    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1],
                             ids=["1", "block-1", "block", "block+1", "2block+1"])
    def test_random_mode(self, monkeypatch, count):
        report = self._assert_equals_per_digraph_run(monkeypatch, 4, mode="random", count=count,
                                                     p=0.5, seed=7)
        assert report.digraphs_checked == count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_smaller_than_one_block(self, monkeypatch, n):
        report = self._assert_equals_per_digraph_run(monkeypatch, n)
        assert report.digraphs_checked == 2 ** (n * (n - 1))

    # With every check on random n = 8, a block holds a check that every
    # member fails (rho_chain, under the fault), one that a few fail (the
    # known equality_iff_rho false negatives) and checks that none fails,
    # whose outcome arrays the harness does not keep.
    @pytest.mark.parametrize("n,p,seed,checks", [(3, 0.5, 3, ["rho_chain"]), (8, 0.3, 0, None)],
                             ids=["rho_chain", "all"])
    def test_violation_order_across_blocks(self, monkeypatch, n, p, seed, checks):
        with inject_fault("rho_lower_walk_mean", 1e-3):
            report = self._assert_equals_per_digraph_run(
                monkeypatch, n, checks=checks, mode="random", count=BLOCK + 1, p=p, seed=seed)
        assert len(report.violations) >= BLOCK + 1
        if checks is None:
            failed = [stats.failed for stats in report.checks_run.values()]
            assert 0 in failed and any(0 < f < BLOCK for f in failed)

    def test_one_block_alive_at_a_time(self, monkeypatch):
        # Each block, with its pieces and outcomes, dies before the next
        # slice of the corpus is pulled.
        built = []

        class Tracked(oracle_mod._Block):
            def __init__(self, digraphs, bits, memo):
                super().__init__(digraphs, bits, memo)
                built.append(weakref.ref(self))

        def corpus(n):
            for d in enumerate_digraphs(n):
                assert all(ref() is None for ref in built), "a block is alive while the next slice is pulled"
                yield d

        monkeypatch.setattr(oracle_mod, "_Block", Tracked)
        monkeypatch.setattr(oracle_mod, "enumerate_digraphs", corpus)
        gc.disable()  # a block must die by its reference count, not at a collection
        try:
            report = verify_all(4)
        finally:
            gc.enable()
        assert report.digraphs_checked == 4096 and len(built) == -(-4096 // BLOCK) > 1

    # The radii are computed once per distinct S of a block: the first
    # block of n = 5 has 8 distinct S in 1,024 members, the four blocks of
    # n = 4 16 to 64, and random n = 10 nearly one per member.
    @pytest.mark.parametrize("corpus", ["n4", "n5-first-block", "n10"])
    def test_symmetrization_radii_equal_per_matrix_calls(self, corpus):
        ds = {"n4": lambda: list(enumerate_digraphs(4)),
              "n5-first-block": lambda: list(itertools.islice(enumerate_digraphs(5), BLOCK)),
              "n10": lambda: [random_digraph(10, 0.3, seed) for seed in range(400)]}[corpus]()
        for start in range(0, len(ds), BLOCK):
            block = oracle_mod._Block.from_digraphs(ds[start:start + BLOCK], Memo())
            if corpus == "n5-first-block":
                assert len({s.tobytes() for s in block.digons}) == 8
            rho_s, rho_s2 = block.symmetrization_radii
            want_s, want_s2 = [], []
            for d in block.digraphs:
                s = geometric_symmetrization(adjacency_matrix(d)).astype(float)
                want_s.append(float(np.max(np.abs(np.linalg.eigvalsh(s)))))
                want_s2.append(float(np.max(np.abs(np.linalg.eigvalsh(s @ s)))))
            assert np.array_equal(rho_s, want_s) and np.array_equal(rho_s2, want_s2)

    def test_block_pieces_equal_lone_pieces(self):
        ds = [random_digraph(10, 0.3, seed) for seed in range(50)] + [Digraph(10)]
        block = oracle_mod._Block.from_digraphs(ds, Memo())
        for k, d in enumerate(ds):
            assert block.polys[block.poly_index[k]] == characteristic_polynomial(d)
            assert block.polys[block.reduced_index[k]] == characteristic_polynomial(cycle_arc_reduction(d))
            assert np.array_equal(block.digons[k], geometric_symmetrization(adjacency_matrix(d)))
            assert repr(unwrap(block.outcome(k))) == repr(spectrum_of(d))

    @pytest.mark.parametrize("corpus", ["n4", "n10"])
    def test_spectra_and_integrals_equal_blocks_of_one(self, corpus):
        # Each member's certified spectrum and Coulson outcome, from blocks
        # and from blocks of one that share one Memo in the same order.
        ds = (list(enumerate_digraphs(4)) if corpus == "n4"
              else [random_digraph(10, 0.3, 1_000_000 + k) for k in range(600)])

        def text(outcome):
            return f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else repr(outcome)

        def per_member(size):
            memo, out = Memo(), []
            for start in range(0, len(ds), size):
                block = oracle_mod._Block.from_digraphs(ds[start:start + size], memo)
                out += [(text(spec), text(spec if isinstance(spec, Exception) else block.integrals[p]))
                        for spec, p in zip(outcomes(block), block.poly_index.tolist())]
            return out

        blocked = per_member(BLOCK)
        assert blocked == per_member(1)
        assert any("Error" in c for _, c in blocked)

    @pytest.mark.parametrize("rejected", [0, 1])
    def test_exception_is_raised_by_its_own_member_only(self, monkeypatch, rejected):
        # Members 0 and 1 have x^3, and only they take QR values; those of
        # one of them are moved far from 0, so it alone is rejected, and a
        # check that reads it, such as the integral's, raises its error;
        # the other certifies x^3 for the run.
        ds = [Digraph(3), Digraph(3, [(0, 1)]), directed_cycle(3)]
        shift = np.zeros((2, 1))
        shift[rejected] = 100.0
        monkeypatch.setattr(spectrum_mod, "qr_values", lambda a: qr_values(a) + shift)
        memo = Memo()
        block = oracle_mod._Block.from_digraphs(ds, memo)
        with pytest.raises(EigensolverError, match="disagree"):
            unwrap(block.outcome(rejected))
        with pytest.raises(EigensolverError, match="disagree"):
            oracle_mod._CHECKS["coulson_match"](block, 1e-8)
        good, third = unwrap(block.outcome(1 - rejected)), unwrap(block.outcome(2))
        integral = [block.integrals[p] for p in block.poly_index.tolist()]
        assert good.energy == 0.0 and integral[1 - rejected] == 0.0
        assert memo.spectra[(0, 0, 0, 1)] is good
        assert third.energy == pytest.approx(2.0)
        assert integral[2] == pytest.approx(2.0, rel=1e-6)

    def test_qr_values_only_for_members_with_a_repeated_root(self, monkeypatch):
        # QR values serve the spread check alone, so a block whose
        # polynomials are all square-free never computes them, and a mixed
        # block computes them for its repeated-root members only.
        ds = [random_digraph(10, 0.3, 1_000_000 + k) for k in range(60)]
        polys = [characteristic_polynomial(d).coeffs for d in ds]
        square_free = [dec == [(c, 1)] for c, dec in zip(polys, kernels_mod.square_free_decompositions(polys))]
        assert 20 <= sum(square_free) <= 40

        def forbidden(a):
            raise AssertionError("QR values of a square-free polynomial")

        with monkeypatch.context() as m:
            m.setattr(spectrum_mod, "qr_values", forbidden)
            block = oracle_mod._Block.from_digraphs([d for d, sf in zip(ds, square_free) if sf], Memo())
            assert all(isinstance(s, Spectrum) for s in outcomes(block))
        taken = []
        monkeypatch.setattr(spectrum_mod, "qr_values", lambda a: taken.append(a.copy()) or qr_values(a))
        spectra = outcomes(oracle_mod._Block.from_digraphs(ds[:20], Memo()))
        assert not any(isinstance(s, Exception) for s in spectra)
        want = [adjacency_matrix(d) for d, sf in zip(ds[:20], square_free) if not sf]
        assert len(taken) == 1 and np.array_equal(taken[0], np.array(want))

    def test_spread_gate_takes_exactly_the_repeated_root_members(self, monkeypatch):
        # The repeated-root decision is taken once per table row: over
        # verify_all(4) the rows that reach qr_values are exactly the 1,862
        # members whose polynomial has a repeated root, in corpus order, and
        # a block of the square-free members hands it none.
        ds = list(enumerate_digraphs(4))
        polys = [characteristic_polynomial(d).coeffs for d in ds]
        distinct = list(dict.fromkeys(polys))
        decomps = dict(zip(distinct, kernels_mod.square_free_decompositions(distinct)))
        repeated = [decomps[c] != [(c, 1)] for c in polys]
        taken = []
        with monkeypatch.context() as m:
            m.setattr(spectrum_mod, "qr_values", lambda a: taken.append(a.copy()) or qr_values(a))
            assert hashlib.sha256(_report_text(verify_all(4)).encode()).hexdigest().startswith("72725c05")
        want = [adjacency_matrix(d) for d, r in zip(ds, repeated) if r]
        assert len(want) == 1862 and np.array_equal(np.concatenate(taken), np.array(want))

        def forbidden(a):
            raise AssertionError("QR values of a square-free polynomial")

        monkeypatch.setattr(spectrum_mod, "qr_values", forbidden)
        block = oracle_mod._Block.from_digraphs([d for d, r in zip(ds, repeated) if not r], Memo())
        for name in CHECK_NAMES:
            oracle_mod._CHECKS[name](block, DEFAULT_TOL)
        assert not block.rejected.any() and block.spread_errors == {}

    def test_one_order_per_block(self):
        with pytest.raises(ValueError, match="one order"):
            oracle_mod._Block.from_digraphs([Digraph(2), Digraph(3)], Memo())
        rho_s, rho_s2 = oracle_mod._Block.from_digraphs([Digraph(0)], Memo()).symmetrization_radii
        assert rho_s.tolist() == rho_s2.tolist() == [0.0]


def _assert_stacks_equal_digraphs(blocks):
    """Each member's ``bits``, from the corpus's arithmetic, are its own
    adjacency matrix, from its arcs; returns the members seen."""
    seen = []
    for block in blocks:
        for k, d in enumerate(block.digraphs):
            assert np.array_equal(block.bits[k], adjacency_matrix(d)), d
        seen += block.digraphs
    return seen


class TestCorpusStacks:
    """``verify_all``'s block sources compute each block's ``bits`` from the
    corpus's own arithmetic while the digraphs come one at a time from
    ``enumerate_digraphs`` and ``random_digraph``; ``walk_rowsum``, the one
    reader of the digraphs' arcs, catches a handed-over digraph that differs
    from its row of the stack, and a violation prints that row."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive(self, n):
        seen = _assert_stacks_equal_digraphs(oracle_mod._exhaustive_blocks(n, Memo()))
        assert seen == list(enumerate_digraphs(n))

    def test_exhaustive_n5_first_and_last_block(self, monkeypatch):
        # Building all 2^20 digraphs of n = 5 takes seconds, so the corpus
        # hands over one shared empty digraph up to the last block, whose
        # members are built as the enumeration builds them, from their
        # masks; the first block is the enumeration's own.
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j]
        total = 1 << len(pairs)
        first = next(oracle_mod._exhaustive_blocks(5, Memo()))
        assert _assert_stacks_equal_digraphs([first]) == list(itertools.islice(enumerate_digraphs(5), BLOCK))
        last = [Digraph(5, [pair for k, pair in enumerate(pairs) if mask >> k & 1])
                for mask in range(total - BLOCK, total)]
        monkeypatch.setattr(oracle_mod, "enumerate_digraphs",
                            lambda n: itertools.chain(itertools.repeat(Digraph(5), total - BLOCK), last))
        *_, block = oracle_mod._exhaustive_blocks(5, Memo())
        assert _assert_stacks_equal_digraphs([block]) == last
        assert last[-1].arc_count == len(pairs)

    # p = 1.0 puts floor(p 2^64) = 2^64 out of uint64's range, and the seeds
    # from 2^64 - 6 wrap past 2^64 inside the second block of 5.
    @pytest.mark.parametrize("n", [1, 2, 8, 12])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", [0, -7, 2 ** 64 - 6])
    def test_random(self, monkeypatch, n, p, seed):
        monkeypatch.setattr(oracle_mod, "BLOCK_SIZE", 5)
        seen = _assert_stacks_equal_digraphs(oracle_mod._random_blocks(n, p, seed, 12, Memo()))
        assert seen == [random_digraph(n, p, seed + k) for k in range(12)]

    @staticmethod
    def _hand_over_one_arc_more(monkeypatch):
        # The corpus hands over {(0, 1), (1, 2)} where the stack holds
        # {(0, 1)}: a one-way arc, so S and every row sum agree.
        stacked, handed = Digraph(3, [(0, 1)]), Digraph(3, [(0, 1), (1, 2)])
        enumerate_3 = oracle_mod.enumerate_digraphs
        monkeypatch.setattr(oracle_mod, "enumerate_digraphs",
                            lambda n: (handed if d == stacked else d for d in enumerate_3(n)))
        return serialize_edge_list(stacked)

    def test_a_digraph_that_differs_from_its_stack_fails_walk_rowsum(self, monkeypatch):
        # Only the slot that compares the two stacks fails, for that member
        # alone, and the violation prints the stack's row.
        text = self._hand_over_one_arc_more(monkeypatch)
        report = verify_all(3, checks=["walk_rowsum"])
        assert report.checks_run["walk_rowsum"].failed == 1
        assert [v.to_dict() for v in report.violations] == [
            {"digraph": text, "check": "walk_rowsum", "lhs": 1.0, "rhs": 2.0, "gap": 1.0}]
        assert text == "3\n0 1\n"

    def test_violations_print_the_checked_stack_without_walk_rowsum(self, monkeypatch):
        # Every member fails rho_chain under the fault, and each member's
        # violations carry its row of the stack, the matrix its checks read:
        # the member handed over one arc off its stack too.
        want = [serialize_edge_list(d) for d in enumerate_digraphs(3)]
        text = self._hand_over_one_arc_more(monkeypatch)
        with inject_fault("rho_lower_walk_mean", 1.0):
            report = verify_all(3, checks=[c for c in CHECK_NAMES if c != "walk_rowsum"])
        assert report.checks_run["rho_chain"].failed == 64
        assert list(dict.fromkeys(v.digraph_text for v in report.violations)) == want
        assert want[1] == text

    def test_only_walk_rowsum_reads_the_arcs(self, monkeypatch):
        # An Analysis builds its one stack from the arcs, with one call.
        arc_route, calls = oracle_mod.adjacency_matrices, []
        monkeypatch.setattr(oracle_mod, "adjacency_matrices", lambda ds: calls.append(list(ds)) or arc_route(ds))
        two_digons = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])  # x^4 - 2x^2 + 1, repeated roots
        assert Analysis(two_digons).to_dict()["spectrum"]["rho"] == 1.0
        assert calls == [[two_digons]]

        def forbidden(digraphs):
            raise AssertionError("the arcs read outside walk_rowsum")

        monkeypatch.setattr(oracle_mod, "adjacency_matrices", forbidden)
        others = [c for c in CHECK_NAMES if c != "walk_rowsum"]
        report = verify_all(4, checks=others)
        assert report.ok and report.digraphs_checked == 4096
        with pytest.raises(AssertionError, match="outside walk_rowsum"):
            verify_all(3, checks=["walk_rowsum"])


def _blocks(ds):
    """``ds`` in blocks of ``BLOCK_SIZE``, with one ``Memo``, as verify_all
    takes a corpus."""
    memo = Memo()
    for start in range(0, len(ds), BLOCK):
        yield oracle_mod._Block.from_digraphs(ds[start:start + BLOCK], memo)


# Each corpus as groups of digraphs of one order; random n = 8 holds the
# five known equality_iff_rho false negatives.
_CORPORA = {
    "exhaustive-n1-4": lambda: [list(enumerate_digraphs(n)) for n in range(1, 5)],
    "random-n8": lambda: [[random_digraph(8, 0.3, seed) for seed in range(300)]],
    "random-n10": lambda: [[random_digraph(10, 0.3, seed) for seed in range(1000)]],
}


class TestStackedPieces:
    """The pieces a block stacks equal the per-digraph routes they replace."""

    @pytest.mark.parametrize("corpus", list(_CORPORA))
    def test_verdict_prefilters_never_reject_an_equality(self, corpus):
        # The radius prediction of a block is the verdict's own edge test on
        # stacked arrays, so it equals the verdict of every member, blocks
        # of order 0 and 1 included; a passing member without a digon has an
        # empty reduction.  The energy prediction is likewise the verdict's
        # own identity on the stacked adjacencies.
        groups = _CORPORA[corpus]()
        if corpus.startswith("exhaustive"):
            groups = [[Digraph(0)] * 3, [Digraph(1)] * 2] + groups
        for block in (b for ds in groups for b in _blocks(ds)):
            rho = [equality_verdict_rho_lower(adjacency_matrix(d), walk_profile(d),
                                              adjacency_matrix(cycle_arc_reduction(d)))
                   for d in block.digraphs]
            energy = [equality_verdict_energy_upper(adjacency_matrix(d)) for d in block.digraphs]
            no_digon = ~block.digons.any(axis=(1, 2))
            assert block.predicted_rho.tolist() == [v.predicted_equality for v in rho]
            for k, v in enumerate(rho):
                if v.predicted_equality and no_digon[k]:
                    assert v.kind == KIND_EMPTY
            assert block.predicted_energy.tolist() == [v.predicted_equality for v in energy]

    @pytest.mark.parametrize("corpus", ["exhaustive-n0-4", "random-n10", "random-n12"])
    def test_closure_reductions_equal_scc_reductions(self, corpus):
        if corpus == "exhaustive-n0-4":
            groups = [[Digraph(0)] * 3] + [list(enumerate_digraphs(n)) for n in range(1, 5)]
        else:
            n = int(corpus.split("n")[-1])
            groups = [[random_digraph(n, p, seed) for p in (0.15, 0.3) for seed in range(150)]]
        for ds in groups:
            for block in _blocks(ds):
                for k, d in enumerate(block.digraphs):
                    want = cycle_arc_reduction(d)
                    assert np.array_equal(block.reduced_bits[k], adjacency_matrix(want))
                    assert block.polys[block.reduced_index[k]] == characteristic_polynomial(want)

    def test_walk_rowsum_compares_two_routes(self, monkeypatch):
        # The profile comes from the bit rows and S from the arcs: an arc
        # lost from one member's arc stack shows in that member alone.
        target = Digraph(3, [(0, 1), (1, 0), (1, 2)])
        arc_route = oracle_mod.adjacency_matrices

        def dropping(ds):
            a = arc_route(ds)
            for k, d in enumerate(ds):
                if d == target:
                    a[k, 0, 1] = 0
            return a

        monkeypatch.setattr(oracle_mod, "adjacency_matrices", dropping)
        report = verify_all(3, checks=["walk_rowsum"])
        assert report.checks_run["walk_rowsum"].failed == 1
        assert {v.digraph_text for v in report.violations} == {serialize_edge_list(target)}

    def test_reduction_invariance_fails_the_members_of_a_drifted_row(self, monkeypatch):
        # A kernel that gets the empty digraph's charpoly wrong (x^3 + 1)
        # fails exactly the acyclic members with an arc, whose reduction is
        # the empty digraph; the empty digraph is its own reduction.
        kernel = kernels_mod.charpoly_from_masks

        def drifted(stack):
            coeffs = kernel(stack)
            coeffs[~stack.any(axis=(1, 2)), 0] += 1
            return coeffs

        monkeypatch.setattr(kernels_mod, "charpoly_from_masks", drifted)
        report = verify_all(3, checks=["charpoly_reduction_invariance"])
        want = [serialize_edge_list(d) for d in enumerate_digraphs(3)
                if d.arcs and cycle_arc_reduction(d) == Digraph(3)]
        assert [v.digraph_text for v in report.violations] == want
        assert {(v.lhs, v.rhs, v.gap) for v in report.violations} == {(0.0, 1.0, 1.0)}

    def test_rejected_spectrum_raises_only_when_a_check_reads_it(self, monkeypatch):
        monkeypatch.setattr(spectrum_mod, "qr_values", lambda a: qr_values(a) + 100.0)
        report = verify_all(3, checks=["walk_rowsum", "walk_sum_identity", "charpoly_reduction_invariance"])
        assert report.ok and report.digraphs_checked == 64
        with pytest.raises(EigensolverError):
            verify_all(3)


def _tuple_dict_table(block):
    """The table of ``block`` as a dict keyed by coefficient tuples builds
    it from the same kernel call: the distinct rows in order of first use,
    and each member's row for itself and for its reduction."""
    size, drops = len(block.bits), np.flatnonzero((block.reduced_bits != block.bits).any(axis=(1, 2)))
    coeffs = kernels_mod.charpoly_from_masks(np.concatenate([block.bits, block.reduced_bits[drops]])).tolist()
    table = {}
    rows = [table.setdefault(tuple(c), len(table)) for c in coeffs]
    reduced = rows[:size]
    for k, row in zip(drops.tolist(), rows[size:]):
        reduced[k] = row
    return list(table), rows[:size], reduced


@st.composite
def _table_rows(draw):
    """A 2-D int64, object or packed uint8 array of few distinct values,
    repeated rows likely, width 0 included: the object rows hold integers
    beyond int64, and the uint8 rows are 0-1 rows packed by
    ``np.packbits``, as ``symmetrization_radii`` keys the S."""
    width, size = draw(st.integers(0, 4)), draw(st.integers(1, 40))
    values = draw(st.lists(st.integers(-2, 2), min_size=width * size, max_size=width * size))
    rows = np.array(values, dtype=np.int64).reshape(size, width)
    kind = draw(st.sampled_from(["int64", "object", "packed"]))
    if kind == "object":
        rows = rows.astype(object) * 2 ** 70
    elif kind == "packed":
        rows = np.packbits(np.repeat(rows & 1, 3, axis=1), axis=1)
    return rows


class TestPolyTable:
    """A block's table of distinct polynomials is built by sorting the
    kernel's coefficient rows (``_first_use_rows``), and equals the one a
    dict keyed by coefficient tuples builds: the same rows, in the same
    order of first use, on int64 and object rows alike, each coefficient a
    Python int.  The same helper finds a block's distinct S among their
    packed bit rows."""

    @staticmethod
    def _assert_equals_tuple_dict(block):
        table, rows, reduced = _tuple_dict_table(block)
        assert [p.coeffs for p in block.polys] == table
        assert block.poly_index.tolist() == rows and block.reduced_index.tolist() == reduced
        assert all(type(c) is int for p in block.polys for c in p.coeffs)

    @given(_table_rows())
    @example(np.zeros((3, 0), dtype=np.uint8))  # the S of order 0: one group
    @settings(max_examples=100, deadline=None)
    def test_first_use_rows_equal_a_tuple_dict(self, rows):
        table = {}
        want = [table.setdefault(tuple(r), len(table)) for r in rows.tolist()]
        first, index = oracle_mod._first_use_rows(rows)
        assert [tuple(r) for r in rows[first].tolist()] == list(table)
        assert index.tolist() == want

    def test_exhaustive_n4_blocks(self):
        blocks = list(oracle_mod._exhaustive_blocks(4, Memo()))
        assert len(blocks) == 4
        for block in blocks:
            self._assert_equals_tuple_dict(block)

    def test_random_n12_block(self):
        (block,) = oracle_mod._random_blocks(12, 0.3, 0, 1024, Memo())
        self._assert_equals_tuple_dict(block)
        assert len(block.polys) > 1000

    def test_object_block(self, monkeypatch):
        # At n = 48 the kernel combines residues into Python ints, so every
        # row of the block is an object row: the digraph, a sparse digraph, the
        # digraph again and the sparse digraph's reduction, which drops an
        # arc and repeats its polynomial.
        d = random_digraph(48, 0.5, 1)
        sparse = Digraph(48, [(0, 1), (1, 0), (2, 3)])
        kernel, dtypes = kernels_mod.charpoly_from_masks, []

        def recording(a):
            coeffs = kernel(a)
            dtypes.append(coeffs.dtype)
            return coeffs

        monkeypatch.setattr(kernels_mod, "charpoly_from_masks", recording)
        block = oracle_mod._Block.from_digraphs([d, sparse, d], Memo())
        self._assert_equals_tuple_dict(block)
        assert dtypes == [np.dtype(object)] * 2
        assert block.poly_index.tolist() == block.reduced_index.tolist() == [0, 1, 0]
        assert [p.coeffs for p in block.polys[1:]] == [(0,) * 46 + (-1, 0, 1)]


class TestCoulsonMatch:
    """``coulson_match`` skips exactly the members whose Coulson integral
    has a pole on its path, as ``coulson_energies`` decides it: it reads
    no eigenvalue of its own."""

    @pytest.mark.parametrize("corpus", ["exhaustive-n1-4", "random-n10"])
    def test_skips_exactly_the_poles(self, corpus):
        skipped = checked = 0
        for block in (b for ds in _CORPORA[corpus]() for b in _blocks(ds)):
            skip, _ = oracle_mod._CHECKS["coulson_match"](block, DEFAULT_TOL)
            poles = [isinstance(block.integrals[p], PurelyImaginaryEigenvalueError)
                     for p in block.poly_index.tolist()]
            assert skip.tolist() == poles
            skipped += sum(poles)
            checked += len(poles) - sum(poles)
        assert skipped and checked

    def test_eigenvalue_near_the_axis_without_a_pole_is_checked(self):
        # The symmetric path on 3 vertices (x^3 - 2x), with a certified
        # spectrum planted in the memo whose eigenvalues hold the pair
        # 1e-7 +- 0.5i, off the axis by more than the pole guard's
        # 1e-9 (1 + rho); its rho, energy and sums are kept, so the
        # integral of its polynomial matches the energy, and the member is
        # checked and passes.
        d = sym(path_graph(3))
        memo = Memo()
        spec = unwrap(oracle_mod._Block.from_digraphs([d], memo).outcome(0))
        planted = spec._replace(eigenvalues=(spec.eigenvalues[0], 1e-7 + 0.5j, 1e-7 - 0.5j))
        memo.spectra[spec.charpoly.coeffs] = planted
        block = oracle_mod._Block.from_digraphs([d], memo)
        assert block.outcome(0) is planted
        skip, slots = oracle_mod._CHECKS["coulson_match"](block, DEFAULT_TOL)
        assert not skip[0] and not any(fail[0] for fail, *_ in slots)
        assert block.integrals[0] == pytest.approx(planted.energy, rel=1e-6)


K3 = sym(complete_graph(3))
# The checks that read no spectrum.
_SPECTRUM_FREE = {"walk_rowsum", "walk_sum_identity", "charpoly_reduction_invariance"}


def _reject(monkeypatch, *targets):
    """Move the QR values of the members equal to one of ``targets`` far
    from their exact roots, so that those members alone are rejected; each
    target has a repeated root (x^3, or (x - 2)(x + 1)^2 for K3), whose
    spread check reads the member's own QR values."""
    shapes = [adjacency_matrix(t) for t in targets]

    def shifted(a):
        out = qr_values(a)
        for k, m in enumerate(a):
            if any(np.array_equal(m, s) for s in shapes):
                out[k] += 100.0
        return out

    monkeypatch.setattr(spectrum_mod, "qr_values", shifted)


class TestRaiseWhereRead:
    """A check raises where it reads a rejected spectrum: the
    EigensolverError of the first rejected member among the members it
    reads.  ``EigensolverError.partial`` holds the member's exact roots and
    tells the members apart."""

    def test_spectral_raises_the_first_rejected_member_it_reads(self, monkeypatch):
        _reject(monkeypatch, Digraph(3), K3)
        block = oracle_mod._Block.from_digraphs([directed_cycle(3), Digraph(3), K3], Memo())
        assert block.spectral(np.array([True, False, False]))[1].tolist()[0] == pytest.approx(2.0)
        for rows, roots in (([True, True, True], (0, 0, 0)), ([False, False, True], (2, -1, -1))):
            with pytest.raises(EigensolverError) as info:
                block.spectral(np.array(rows))
            assert info.value.partial == roots

    @pytest.mark.parametrize("checks,roots", [(["dominance_chain", "moment_total"], (2, -1, -1)),
                                              (["moment_total", "dominance_chain"], (0, 0, 0))])
    def test_first_reading_check_picks_the_member(self, monkeypatch, checks, roots):
        # dominance_chain skips the empty digraph and reads K3 only.  The
        # two-member corpus is one block, its stack packed from the digraphs.
        monkeypatch.setattr(oracle_mod, "_exhaustive_blocks",
                            lambda n, memo: iter([oracle_mod._Block.from_digraphs([Digraph(3), K3], memo)]))
        _reject(monkeypatch, Digraph(3), K3)
        with pytest.raises(EigensolverError) as info:
            verify_all(3, checks=checks)
        assert info.value.partial == roots

    def test_a_skipped_rejected_member_is_not_read(self, monkeypatch):
        _reject(monkeypatch, Digraph(3))
        report = verify_all(3, checks=["dominance_chain"])
        assert report.ok and report.checks_run["dominance_chain"].skipped >= 1
        with pytest.raises(EigensolverError) as info:
            verify_all(3, checks=["moment_total"])
        assert info.value.partial == (0, 0, 0)

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_every_check_that_reads_spectra_raises(self, monkeypatch, name):
        _reject(monkeypatch, K3)
        if name in _SPECTRUM_FREE:
            assert verify_all(3, checks=[name]).ok
            return
        with pytest.raises(EigensolverError) as info:
            verify_all(3, checks=[name])
        assert info.value.partial == (2, -1, -1)
