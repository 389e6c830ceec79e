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
from digenergy.spectrum import Memo
from digenergy.structure import KIND_EMPTY

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
        # corpus, in blocks that share one Memo, as verify_all takes them.
        ds = [random_digraph(10, 0.3, 1_000_000 + k) for k in range(200)]
        memo = Memo()
        docs = []
        for start in range(0, len(ds), oracle_mod.BLOCK_SIZE):
            block = oracle_mod._Block(ds[start:start + oracle_mod.BLOCK_SIZE], memo)
            docs += [a.to_dict() for a in block.analyses(DEFAULT_TOL)]
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == "2522304c7965a7fd48be43f88bee50f38a9d76297a817b0fae8a857c52bfc8d2"

    def test_a_run_leaves_nothing_behind(self, monkeypatch):
        # A second run in the same process does the same exact work and
        # reports the same: nothing outlives a verify_all call.
        calls = []

        def counting(name):
            fn = getattr(spectrum_mod, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("_square_free_decomposition", "_level_synchronous_gl"):
            monkeypatch.setattr(spectrum_mod, name, counting(name))
        runs = []
        for _ in range(2):
            calls.clear()
            body = _report_text(verify_all(4))
            runs.append((body, calls.count("_square_free_decomposition"),
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
    return next(oracle_mod._Block([d], memo).analyses(DEFAULT_TOL)).spectrum


class TestSharedSpectra:
    """Blocks that share a ``Memo``, as the blocks of one ``verify_all``
    call do, certify each characteristic polynomial once."""

    def test_exhaustive_n4_matches_cold_calls(self):
        memo = Memo()
        first = set()
        for d in enumerate_digraphs(4):
            spec = _shared_spectrum(d, memo)
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
        assert len(first) == len(memo.spectra) == 46

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
        monkeypatch.setattr(spectrum_mod, "_check_spreads", forbidden)
        relabeled = Digraph(3, [(1, 0), (0, 2), (2, 1)])
        assert _shared_spectrum(relabeled, memo).charpoly.coeffs == (-1, 0, 0, 1)

    def test_repeated_root_hit_checks_its_own_qr_values(self, monkeypatch):
        # Both digraphs have x^3; the second one's QR values are moved far
        # from 0, so the shared roots must be rejected for it.
        memo = Memo()
        _shared_spectrum(Digraph(3), memo)
        monkeypatch.setattr(oracle_mod, "qr_values", lambda a: qr_values(a) + 100.0)
        with pytest.raises(EigensolverError, match="disagree"):
            _shared_spectrum(Digraph(3, [(0, 1)]), memo)

    def test_each_polynomial_is_refined_once_per_run(self, monkeypatch):
        # Only a square-free polynomial refines member values: each distinct
        # one once, by its first digraph.  The degree-1 and 2 rows are the
        # factors of the repeated-root polynomials, refined once in each
        # block that meets them in a new polynomial, so their counts are
        # those of blocks of 256.
        rows = []
        refine = spectrum_mod._aberth_refine

        def counting(polys, roots):
            rows.extend(len(p) - 1 for p in polys)
            return refine(polys, roots)

        monkeypatch.setattr(spectrum_mod, "_aberth_refine", counting)
        verify_all(4)
        polys = {characteristic_polynomial(d).coeffs for d in enumerate_digraphs(4)}
        square_free = [c for c in polys if spectrum_mod._square_free_decomposition(c) == [(c, 1)]]
        assert rows.count(4) == len(square_free) == 36
        assert (rows.count(1), rows.count(2), len(rows)) == (8, 8, 52)

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
            block = oracle_mod._Block(ds[start:start + BLOCK], Memo())
            rho_s, rho_s2 = block.symmetrization_radii
            want_s, want_s2 = [], []
            for d in block.digraphs:
                s = geometric_symmetrization(adjacency_matrix(d)).astype(float)
                want_s.append(float(np.max(np.abs(np.linalg.eigvalsh(s)))))
                want_s2.append(float(np.max(np.abs(np.linalg.eigvalsh(s @ s)))))
            assert np.array_equal(rho_s, want_s) and np.array_equal(rho_s2, want_s2)

    def test_block_pieces_equal_lone_pieces(self):
        ds = [random_digraph(10, 0.3, seed) for seed in range(50)] + [Digraph(10)]
        for analysis in oracle_mod._Block(ds, Memo()).analyses(1e-8):
            d = analysis.d
            assert analysis.charpoly == characteristic_polynomial(d)
            assert analysis.reduced_charpoly == characteristic_polynomial(cycle_arc_reduction(d))
            assert np.array_equal(analysis.symmetrization, geometric_symmetrization(adjacency_matrix(d)))
            assert repr(analysis.spectrum) == repr(spectrum_of(d))

    @pytest.mark.parametrize("corpus", ["n4", "n10"])
    def test_spectra_and_integrals_equal_blocks_of_one(self, corpus):
        # Each member's certified spectrum and Coulson outcome, from blocks
        # and from blocks of one that share one Memo in the same order.
        ds = (list(enumerate_digraphs(4)) if corpus == "n4"
              else [random_digraph(10, 0.3, 1_000_000 + k) for k in range(600)])

        def text(outcome):
            return f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else repr(outcome)

        def outcomes(size):
            memo, out = Memo(), []
            for start in range(0, len(ds), size):
                block = oracle_mod._Block(ds[start:start + size], memo)
                out += [(text(s), text(c)) for s, c in zip(block.spectra, block.coulson)]
            return out

        blocked = outcomes(BLOCK)
        assert blocked == outcomes(1)
        assert any("Error" in c for _, c in blocked)

    @pytest.mark.parametrize("rejected", [0, 1])
    def test_exception_is_raised_by_its_own_member_only(self, monkeypatch, rejected):
        # Members 0 and 1 have x^3; the QR values of one of them are moved
        # far from 0, so it alone is rejected, for its spectrum and its
        # integral, and the other certifies x^3 for the run.
        ds = [Digraph(3), Digraph(3, [(0, 1)]), directed_cycle(3)]
        shift = np.zeros((3, 1))
        shift[rejected] = 100.0
        monkeypatch.setattr(oracle_mod, "qr_values", lambda a: qr_values(a) + shift)
        memo = Memo()
        analyses = list(oracle_mod._Block(ds, memo).analyses(1e-8))
        bad, good, third = analyses[rejected], analyses[1 - rejected], analyses[2]
        with pytest.raises(EigensolverError, match="disagree"):
            bad.spectrum
        with pytest.raises(EigensolverError, match="disagree"):
            bad.coulson
        assert good.spectrum.energy == 0.0 and good.coulson == 0.0
        assert memo.spectra[(0, 0, 0, 1)] is good.spectrum
        assert third.spectrum.energy == pytest.approx(2.0)
        assert third.coulson == pytest.approx(2.0, rel=1e-6)

    def test_one_order_per_block(self):
        with pytest.raises(ValueError, match="one order"):
            oracle_mod._Block([Digraph(2), Digraph(3)], Memo())
        rho_s, rho_s2 = oracle_mod._Block([Digraph(0)], Memo()).symmetrization_radii
        assert rho_s.tolist() == rho_s2.tolist() == [0.0]


def _blocks(ds):
    """``ds`` in blocks of ``BLOCK_SIZE``, with one ``Memo``, as verify_all
    takes a corpus."""
    memo = Memo()
    for start in range(0, len(ds), BLOCK):
        yield oracle_mod._Block(ds[start:start + BLOCK], memo)


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
            return [[c + (k == 0) for k, c in enumerate(coeffs)] if not a.any() else coeffs
                    for a, coeffs in zip(stack, kernel(stack))]

        monkeypatch.setattr(kernels_mod, "charpoly_from_masks", drifted)
        report = verify_all(3, checks=["charpoly_reduction_invariance"])
        want = [serialize_edge_list(d) for d in enumerate_digraphs(3)
                if d.arcs and cycle_arc_reduction(d) == Digraph(3)]
        assert [v.digraph_text for v in report.violations] == want
        assert {(v.lhs, v.rhs, v.gap) for v in report.violations} == {(0.0, 1.0, 1.0)}

    def test_rejected_spectrum_raises_only_when_a_check_reads_it(self, monkeypatch):
        monkeypatch.setattr(oracle_mod, "qr_values", lambda a: qr_values(a) + 100.0)
        report = verify_all(3, checks=["walk_rowsum", "walk_sum_identity", "charpoly_reduction_invariance"])
        assert report.ok and report.digraphs_checked == 64
        with pytest.raises(EigensolverError):
            verify_all(3)
