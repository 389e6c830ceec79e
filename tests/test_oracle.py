import hashlib
import json

import numpy as np
import pytest

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

from families import complete_graph, directed_cycle, spectrum_of, sym


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

    def test_unknown_check(self):
        with pytest.raises(UnknownCheckError):
            verify_all(3, checks=["no_such_check"])

    def test_exhaustive_cap(self):
        with pytest.raises(ValueError):
            verify_all(6, mode="exhaustive")

    def test_random_cap(self):
        with pytest.raises(ValueError):
            verify_all(13, mode="random", count=1)

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

    def test_exhaustive_n4_report_is_byte_stable(self):
        # Pinned so that memoizing or batching the harness cannot change
        # the report silently; the elapsed time is the one varying field.
        body = {k: v for k, v in verify_all(4).to_dict().items() if k != "elapsed_seconds"}
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
        assert digest == "72725c05134611eeb06497a84e4da536f9373538810de387eb9cb398b8de77a2"

    def test_random_n10_report_is_byte_stable(self):
        # Almost every charpoly of this corpus is distinct, so it pins the
        # spectra certified per digraph, where the n = 4 pin mostly pins
        # shared ones.
        body = {k: v for k, v in verify_all(10, mode="random", count=200, p=0.3,
                                            seed=1000000).to_dict().items()
                if k != "elapsed_seconds"}
        digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
        assert digest == "20db5d51a57424dc8c0c559a03058abb965f56dc344b5d46368850d6adf0a5aa"

    def test_random_n10_analysis_documents_are_byte_stable(self):
        # The two report pins hold counts and violations only; this one pins
        # the values: every spectrum, bound and Coulson integral of the same
        # corpus, in blocks that share one dict of certified spectra, as
        # verify_all takes them.
        ds = [random_digraph(10, 0.3, 1_000_000 + k) for k in range(200)]
        spectra = {}
        docs = []
        for start in range(0, len(ds), oracle_mod.BLOCK_SIZE):
            block = oracle_mod._Block(ds[start:start + oracle_mod.BLOCK_SIZE], spectra)
            docs += [a.to_dict() for a in block.analyses(DEFAULT_TOL)]
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "2522304c7965a7fd48be43f88bee50f38a9d76297a817b0fae8a857c52bfc8d2"


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
            coulson = coulson_energy(spec)
        except PurelyImaginaryEigenvalueError as exc:
            coulson = None
            warnings.append(f"coulson integral skipped: {exc}")
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
                "radius_lower": equality_verdict_rho_lower(d, profile, cycle_arc_reduction(d)).to_dict(),
                "energy_upper": equality_verdict_energy_upper(d).to_dict(),
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
            assert analysis.charpoly is analysis.spectrum.charpoly
            assert analysis.reduced_charpoly.coeffs == analysis.charpoly.coeffs
            assert sorted(calls) == ["certify_spectra", "charpoly_from_masks"]

    def test_one_kernel_call_per_block(self, monkeypatch):
        rows = []
        kernel = kernels_mod.charpoly_from_masks

        def counting(n, block_rows):
            rows.append(len(block_rows))
            return kernel(n, block_rows)

        monkeypatch.setattr(kernels_mod, "charpoly_from_masks", counting)
        block = oracle_mod.BLOCK_SIZE
        verify_all(3, mode="random", count=2 * block + 1, p=0.5, seed=1)
        assert len(rows) == 3
        # Each block holds its digraphs and reductions, each adjacency once.
        assert all(1 <= r <= 2 * block for r in rows) and rows[-1] <= 2


class TestSharedSpectra:
    """Analyses that share a ``spectra`` dict, as the digraphs of one
    ``verify_all`` call do, certify each characteristic polynomial once."""

    def test_exhaustive_n4_matches_cold_calls(self):
        spectra = {}
        first = set()
        for d in enumerate_digraphs(4):
            spec = Analysis(d, spectra=spectra).spectrum
            cold = spectrum_of(d)
            assert spec.charpoly == characteristic_polynomial(d)
            assert len(spec.eigenvalues) == len(cold.eigenvalues)
            for z, w in zip(spec.eigenvalues, cold.eigenvalues):
                assert abs(z - w) <= 1e-12
            assert abs(spec.rho - cold.rho) <= 1e-12
            assert abs(spec.energy - cold.energy) <= 1e-12
            if spec.charpoly.coeffs not in first:
                first.add(spec.charpoly.coeffs)
                assert repr(spec) == repr(cold)
        assert len(first) == len(spectra) == 46

    def test_hit_returns_the_certified_spectrum(self):
        spectra = {}
        # x^3 (repeated root) and x^3 - 1 (square-free), two digraphs each.
        pairs = [(Digraph(3), Digraph(3, [(0, 1)])),
                 (directed_cycle(3), Digraph(3, [(1, 0), (0, 2), (2, 1)]))]
        for first, second in pairs:
            spec = Analysis(first, spectra=spectra).spectrum
            assert Analysis(second, spectra=spectra).spectrum is spec

    def test_square_free_hit_does_no_refinement(self, monkeypatch):
        spectra = {}
        Analysis(directed_cycle(3), spectra=spectra).spectrum

        def forbidden(*args):
            raise AssertionError("refinement on a square-free hit")

        monkeypatch.setattr(spectrum_mod, "_aberth_refine", forbidden)
        monkeypatch.setattr(spectrum_mod, "_check_spread", forbidden)
        relabeled = Digraph(3, [(1, 0), (0, 2), (2, 1)])
        assert Analysis(relabeled, spectra=spectra).spectrum.charpoly.coeffs == (-1, 0, 0, 1)

    def test_repeated_root_hit_checks_its_own_qr_values(self, monkeypatch):
        # Both digraphs have x^3; the second one's QR values are moved far
        # from 0, so the shared roots must be rejected for it.
        spectra = {}
        Analysis(Digraph(3), spectra=spectra).spectrum
        monkeypatch.setattr(oracle_mod, "qr_values", lambda a: qr_values(a) + 100.0)
        with pytest.raises(EigensolverError, match="disagree"):
            Analysis(Digraph(3, [(0, 1)]), spectra=spectra).spectrum

    def test_default_is_not_shared(self):
        d = directed_cycle(3)
        assert Analysis(d).spectrum is not Analysis(d).spectrum


def _report_text(report) -> str:
    return json.dumps({k: v for k, v in report.to_dict().items() if k != "elapsed_seconds"},
                      sort_keys=True)


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
        assert _report_text(blocked) == _report_text(reference)
        for stats in blocked.checks_run.values():
            assert stats.passed + stats.failed + stats.skipped == blocked.digraphs_checked
        return blocked

    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_random_mode(self, monkeypatch, count):
        report = self._assert_equals_per_digraph_run(monkeypatch, 4, mode="random", count=count,
                                                     p=0.5, seed=7)
        assert report.digraphs_checked == count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_smaller_than_one_block(self, monkeypatch, n):
        report = self._assert_equals_per_digraph_run(monkeypatch, n)
        assert report.digraphs_checked == 2 ** (n * (n - 1))

    def test_violation_order_across_blocks(self, monkeypatch):
        with inject_fault("rho_lower_walk_mean", 1e-3):
            report = self._assert_equals_per_digraph_run(
                monkeypatch, 3, checks=["rho_chain"], mode="random", count=BLOCK + 1, p=0.5, seed=3)
        assert len(report.violations) >= BLOCK + 1

    @pytest.mark.parametrize("corpus", ["n4", "n10"])
    def test_symmetrization_radii_equal_per_matrix_calls(self, corpus):
        ds = (list(enumerate_digraphs(4)) if corpus == "n4"
              else [random_digraph(10, 0.3, seed) for seed in range(400)])
        for start in range(0, len(ds), BLOCK):
            block = oracle_mod._Block(ds[start:start + BLOCK])
            rho_s, rho_s2 = block.symmetrization_radii
            want_s, want_s2 = [], []
            for d in block.digraphs:
                s = geometric_symmetrization(adjacency_matrix(d)).astype(float)
                want_s.append(float(np.max(np.abs(np.linalg.eigvalsh(s)))))
                want_s2.append(float(np.max(np.abs(np.linalg.eigvalsh(s @ s)))))
            assert np.array_equal(rho_s, want_s) and np.array_equal(rho_s2, want_s2)

    def test_block_pieces_equal_lone_pieces(self):
        ds = [random_digraph(10, 0.3, seed) for seed in range(50)] + [Digraph(10)]
        for analysis in oracle_mod._Block(ds).analyses(1e-8):
            d = analysis.d
            assert analysis.charpoly == characteristic_polynomial(d)
            assert analysis.reduced_charpoly == characteristic_polynomial(cycle_arc_reduction(d))
            assert np.array_equal(analysis.symmetrization, geometric_symmetrization(adjacency_matrix(d)))
            assert repr(analysis.spectrum) == repr(spectrum_of(d))

    @pytest.mark.parametrize("corpus", ["n4", "n10"])
    def test_spectra_and_integrals_equal_blocks_of_one(self, corpus):
        # Each member's certified spectrum and Coulson outcome, from blocks
        # and from blocks of one that share the run's dict in the same
        # order; the memos start empty for both.
        ds = (list(enumerate_digraphs(4)) if corpus == "n4"
              else [random_digraph(10, 0.3, 1_000_000 + k) for k in range(600)])

        def text(outcome):
            return f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else repr(outcome)

        def outcomes(size):
            spectrum_mod._ROOTS.clear()
            spectrum_mod._INTEGRALS.clear()
            spectra, out = {}, []
            for start in range(0, len(ds), size):
                block = oracle_mod._Block(ds[start:start + size], spectra)
                out += [(text(s), text(c)) for s, c in zip(block.spectra, block.coulson)]
            return out

        blocked = outcomes(BLOCK)
        assert blocked == outcomes(1)
        assert any("Error" in c for _, c in blocked)

    def test_exception_is_raised_by_its_own_member_only(self, monkeypatch):
        # Members 0 and 1 have x^3; member 1's QR values are moved far from
        # 0, so it alone is rejected, for its spectrum and its integral.
        ds = [Digraph(3), Digraph(3, [(0, 1)]), directed_cycle(3)]
        shift = np.array([[0.0], [100.0], [0.0]])
        monkeypatch.setattr(oracle_mod, "qr_values", lambda a: qr_values(a) + shift)
        first, second, third = oracle_mod._Block(ds).analyses(1e-8)
        with pytest.raises(EigensolverError, match="disagree"):
            second.spectrum
        with pytest.raises(EigensolverError, match="disagree"):
            second.coulson
        assert first.spectrum.energy == 0.0 and first.coulson == 0.0
        assert third.spectrum.energy == pytest.approx(2.0)
        assert third.coulson == pytest.approx(2.0, rel=1e-6)

    def test_one_order_per_block(self):
        with pytest.raises(ValueError, match="one order"):
            oracle_mod._Block([Digraph(2), Digraph(3)])
        rho_s, rho_s2 = oracle_mod._Block([Digraph(0)]).symmetrization_radii
        assert rho_s.tolist() == rho_s2.tolist() == [0.0]
