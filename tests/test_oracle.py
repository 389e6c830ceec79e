import hashlib
import json

import pytest

from digenergy import (
    CHECK_NAMES,
    Digraph,
    UnknownCheckError,
    cycle_arc_reduction,
    enumerate_digraphs,
    equality_verdict_energy_upper,
    equality_verdict_rho_lower,
    inject_fault,
    random_digraph,
    serialize_edge_list,
    verify_all,
    walk_profile,
)

from families import complete_graph, sym


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


class TestVerdictsTakePrecomputedPieces:
    """The harness passes its walk profile and cycle-arc reduction to the
    equality verdicts; the verdicts must not depend on where they came from."""

    CORPUS = list(enumerate_digraphs(3)) + [random_digraph(6, p, seed)
                                            for p in (0.3, 0.6) for seed in range(10)]

    def test_rho_lower(self):
        for d in self.CORPUS:
            given = equality_verdict_rho_lower(
                d, profile=walk_profile(d), reduced=cycle_arc_reduction(d))
            assert given == equality_verdict_rho_lower(d)

    def test_energy_upper(self):
        for d in self.CORPUS:
            given = equality_verdict_energy_upper(d, profile=walk_profile(d))
            assert given == equality_verdict_energy_upper(d)
