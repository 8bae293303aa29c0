import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import first_per_past, full_stream_pair_schemas, w_family, w_family_expected
from pidcheck import figures
from pidcheck.analysis import (
    Analysis,
    AnalysisContext,
    check_welldefined,
    is_significant,
    relevant_utilities,
    replay_witness,
    required_variables,
    suggest_resolutions,
)
from pidcheck.dsep import bayes_ball_requisite, elimination_neighbors
from pidcheck.generate import random_classic_id, random_pid
from pidcheck.model import Kind, Node, validate_nodes
from pidcheck.ordering import canonical_schema, enumerate_schemas


def schema_with_order(d, order):
    return next(s for s in enumerate_schemas(d) if s.induced_order() == tuple(order))


class TestRelevantUtilities:
    def test_fig3_direct_path(self):
        ctx = AnalysisContext.build(figures.fig3())
        assert relevant_utilities(ctx, "D1") == frozenset({"U"})

    def test_fig4_both_utilities_for_first_decision(self):
        ctx = AnalysisContext.build(figures.fig4())
        assert relevant_utilities(ctx, "D1") == frozenset({"U", "Up"})

    def test_fig5_both_utilities_through_influenced_observation(self):
        ctx = AnalysisContext.build(figures.fig5())
        assert relevant_utilities(ctx, "D1") == frozenset({"U", "Up"})

    def test_no_path_no_later_decision_gives_empty(self):
        d = validate_nodes(
            [
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("V", Kind.VALUE, None, ("A",)),
                Node("S", Kind.CHANCE, ("x", "y"), ("D",)),
            ]
        )
        ctx = AnalysisContext.build(d)
        assert relevant_utilities(ctx, "D") == frozenset()

    def test_fig2_future_payoff_not_relevant_for_d1(self):
        ctx = AnalysisContext.build(figures.fig2())
        assert relevant_utilities(ctx, "D1") == frozenset({"U1"})
        assert relevant_utilities(ctx, "D2") == frozenset({"U2"})

    def test_rule1_subset_property(self):
        # every utility with a bare directed path is in the relevant set
        for name in ["fig1", "fig2", "fig4", "fig5", "fig7", "fig8"]:
            d = figures.ALL_FIGURES[name]()
            analysis = Analysis(d)
            schema = canonical_schema(d, analysis.po)
            for dec in d.decision_ids:
                rule1 = {
                    v for v in d.value_ids if v in analysis.bare_descendants(dec)
                }
                assert rule1 <= analysis.relevant_utilities(schema, dec)

    def test_monotone_closure_property(self):
        # psi relevant for D' and D required for D' forces psi relevant for D
        for name in ["fig4", "fig5", "fig7", "fig8"]:
            d = figures.ALL_FIGURES[name]()
            analysis = Analysis(d)
            schema = canonical_schema(d, analysis.po)
            seq = schema.decision_sequence
            for i, dec in enumerate(seq):
                for later in seq[i + 1:]:
                    if dec in analysis.required_variables(schema, later):
                        assert analysis.relevant_utilities(schema, later) <= (
                            analysis.relevant_utilities(schema, dec)
                        )


class TestRequiredVariables:
    def test_fig2_excludes_b(self):
        ctx = AnalysisContext.build(figures.fig2())
        assert "B" not in required_variables(ctx, "D1")
        assert required_variables(ctx, "D2") == frozenset({"A"})

    def test_fig7_a_required(self):
        d = figures.fig7()
        schema = schema_with_order(d, ("A", "D", "D2", "B", "D3", "C"))
        analysis = Analysis(d)
        assert "A" in analysis.required_variables(schema, "D")

    def test_fig8_a_required_via_chain(self):
        d = figures.fig8()
        schema = schema_with_order(d, ("A", "D", "D2", "X", "D3", "B", "D4", "C"))
        analysis = Analysis(d)
        assert "A" in analysis.required_variables(schema, "D")

    def test_fig8_modified_a_not_required(self):
        d = figures.fig8_modified()
        schema = schema_with_order(d, ("A", "D", "D2", "X", "D3", "B", "D4", "C"))
        analysis = Analysis(d)
        assert "A" not in analysis.required_variables(schema, "D")
        assert "A" in elimination_neighbors(d, "D", schema)

    def test_required_subset_of_pred(self):
        for name, builder in figures.ALL_FIGURES.items():
            d = builder()
            analysis = Analysis(d)
            schema = canonical_schema(d, analysis.po)
            for dec in d.decision_ids:
                assert analysis.required_variables(schema, dec) <= schema.pred(dec)

    @given(st.integers(0, 200))
    @settings(max_examples=25)
    def test_differential_bound_on_classic_diagrams(self, seed):
        d = random_classic_id(np.random.default_rng(seed))
        analysis = Analysis(d)
        schema = canonical_schema(d, analysis.po)
        for dec in d.decision_ids:
            required = analysis.required_variables(schema, dec)
            bound = bayes_ball_requisite(d, dec) & elimination_neighbors(d, dec, schema)
            assert required <= bound


class TestSignificance:
    def test_fig6_direct_clause(self):
        d = figures.fig6()
        analysis = Analysis(d)
        schema = schema_with_order(d, ("A", "D", "D2"))
        w = analysis.significant_rel(schema, "A", "D")
        assert w is not None and w.clause == "direct" and w.utility == "U1"
        assert replay_witness(d, w)

    def test_fig7_later_required_clause(self):
        d = figures.fig7()
        analysis = Analysis(d)
        schema = schema_with_order(d, ("A", "D", "D2", "B", "D3", "C"))
        w = analysis.significant_rel(schema, "A", "D")
        assert w is not None and w.clause == "later-required"
        assert w.later_decision == "D3" and w.utility == "U"
        assert replay_witness(d, w)

    def test_fig8_later_chain_clause(self):
        d = figures.fig8()
        analysis = Analysis(d)
        schema = schema_with_order(d, ("A", "D", "D2", "X", "D3", "B", "D4", "C"))
        w = analysis.significant_rel(schema, "A", "D")
        assert w is not None and w.clause == "later-chain"
        assert w.chain_node == "X" and w.later_decision == "D4"
        assert replay_witness(d, w)

    def test_unconnected_chance_is_not_significant(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("D2", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("V", Kind.VALUE, None, ("D",)),
                Node("V2", Kind.VALUE, None, ("D2",)),
            ]
        )
        assert is_significant(d, "A", "D") is None

    def test_compatible_pair_rejected(self):
        d = figures.fig2()
        with pytest.raises(ValueError, match="pair not incompatible"):
            is_significant(d, "B", "D1")

    def test_fig1_f_d4_not_significant_and_modes_agree(self):
        d = figures.fig1()
        assert is_significant(d, "F", "D4", exact=False) is None
        assert is_significant(d, "F", "D4", exact=True) is None

    def test_modes_agree_pairwise_on_the_corpus(self):
        for name, builder in figures.ALL_FIGURES.items():
            d = builder()
            analysis = Analysis(d)
            for a, dec in analysis.po.incompatible_pairs():
                if d.kind(a) is not Kind.CHANCE or d.kind(dec) is not Kind.DECISION:
                    continue
                collapsed = analysis.is_significant(a, dec, exact=False)
                full = analysis.is_significant(a, dec, exact=True)
                assert (collapsed is None) == (full is None), (name, a, dec)

    def test_single_pair_query_is_exact(self):
        # The collapsed pass is sound only once every later pair is cleared;
        # on its own it misses this witness, so the public query is exact.
        d = random_pid(np.random.default_rng(153), max_carrier=8, max_decisions=4)
        assert Analysis(d).is_significant("X3", "D0", exact=False) is None
        w = is_significant(d, "X3", "D0")
        assert w is not None and replay_witness(d, w)
        assert ("X3", "D0") in check_welldefined(d).significant_pairs

    def test_fig6_pair_yields_witness(self):
        w = is_significant(figures.fig6(), "A", "D")
        assert w is not None and (w.chance, w.decision) == ("A", "D")

    def test_fig4_derived_verdicts_match_oracle_search(self):
        # dropping the decision-order arc leaves no (chance, decision)
        # incompatible pair, and the oracle agrees: no realization tried
        # makes strategies differ across the two admissible schemas
        from pidcheck.oracle import Comparison, random_realization, solve, strategies_equal
        from pidcheck.ordering import enumerate_schemas

        d = figures.fig4_derived()
        report = check_welldefined(d)
        assert report.welldefined and report.pairs_checked == ()
        schemas = list(enumerate_schemas(d))
        assert len(schemas) == 2
        realizations = [figures.fig4_realization()] + [
            random_realization(d, s) for s in range(10)
        ]
        for r in realizations:
            s1, _ = solve(d, r, schemas[0])
            s2, _ = solve(d, r, schemas[1])
            assert strategies_equal(s1, s2) is not Comparison.DIFFERENT


def _assert_pair_schemas_match_reference(d) -> int:
    """Both modes of the pair generator yield exactly the schemas, in the
    same order, that filtering the full schema stream yields.  Returns the
    number of pairs compared."""
    analysis = Analysis(d)
    pairs = [
        (a, dec)
        for dec in d.decision_ids
        for a in d.chance_ids
        if analysis.po.incompatible(a, dec)
    ]
    for a, dec in pairs:
        full = list(full_stream_pair_schemas(analysis, a, dec))
        assert list(analysis._pair_schemas(a, dec, exact=True)) == full, (d, a, dec)
        collapsed = list(first_per_past(full, dec))
        assert list(analysis._pair_schemas(a, dec, exact=False)) == collapsed, (d, a, dec)
    return len(pairs)


class TestPairSchemas:
    @pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
    def test_fixtures(self, name):
        _assert_pair_schemas_match_reference(figures.ALL_FIGURES[name]())

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("shared", [False, True])
    def test_w_family(self, k, shared):
        assert _assert_pair_schemas_match_reference(w_family(k, shared)) == k * (k - 1)

    def test_random_draws(self):
        compared = 0
        for seed in range(1000):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            compared += _assert_pair_schemas_match_reference(d)
        assert compared > 500


class TestCheckWelldefined:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("shared", [False, True])
    def test_w_family_verdict_within_budget(self, k, shared):
        d = w_family(k, shared)
        start = time.perf_counter()
        report = check_welldefined(d)
        elapsed = time.perf_counter() - start
        expected = w_family_expected(k, shared)
        assert report.welldefined is expected["welldefined"]
        assert sorted(report.pairs_checked) == expected["pairs"]
        got = sorted((w.chance, w.decision, w.utility, w.clause) for w in report.witnesses)
        assert got == expected["witnesses"]
        assert elapsed < 5.0, f"W({k}) check took {elapsed:.2f}s"

    def test_classic_diagrams_always_welldefined(self):
        for name in ["fig2", "fig3", "fig4", "fig5"]:
            report = check_welldefined(figures.ALL_FIGURES[name]())
            assert report.welldefined, name
            assert report.pairs_checked == ()

    def test_no_incompatible_pairs_is_vacuously_welldefined(self):
        report = check_welldefined(figures.fig4_derived())
        assert report.welldefined
        assert report.pairs_checked == ()

    def test_fig6_not_welldefined_with_witness(self):
        report = check_welldefined(figures.fig6())
        assert not report.welldefined
        assert report.significant_pairs == (("A", "D"),)

    def test_fig1_welldefined_despite_incompatible_pairs(self):
        report = check_welldefined(figures.fig1())
        assert report.welldefined
        assert ("F", "D4") in report.pairs_checked

    def test_witnesses_replay(self):
        for name in ["fig6", "fig7", "fig8", "two_witness"]:
            d = figures.ALL_FIGURES[name]()
            report = check_welldefined(d)
            for w in report.witnesses:
                assert replay_witness(d, w), (name, w)

    @given(st.integers(0, 300))
    @settings(max_examples=40)
    def test_modes_agree_on_random_diagrams(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        assert check_welldefined(d, exact=False) == check_welldefined(d, exact=True)

    def test_memo_tables_are_transparent(self):
        # results with a warm cache match a cold recomputation
        d = figures.fig8()
        warm = Analysis(d)
        for schema in enumerate_schemas(d):
            for dec in d.decision_ids:
                warm.relevant_utilities(schema, dec)
                warm.required_variables(schema, dec)
        for schema in enumerate_schemas(d):
            for dec in d.decision_ids:
                cold = Analysis(d)
                assert warm.relevant_utilities(schema, dec) == cold.relevant_utilities(schema, dec)
                assert warm.required_variables(schema, dec) == cold.required_variables(schema, dec)

    def test_diagram_without_decisions(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("V", Kind.VALUE, None, ("A",)),
            ]
        )
        report = check_welldefined(d)
        assert report.welldefined and report.pairs_checked == ()


class TestSuggestResolutions:
    def test_fig6_single_constraint_fixes(self):
        d = figures.fig6()
        report = check_welldefined(d)
        proposals = suggest_resolutions(d, report)
        fixing = [p for p in proposals if p.welldefined]
        assert fixing
        assert all(len(p.constraints) == 1 for p in fixing[:2])
        kinds = {p.constraints[0][0] for p in fixing}
        assert kinds == {"observe", "precede"}
        # re-check each proposal by hand
        observed = d.with_arc("A", "D")
        assert check_welldefined(observed).welldefined
        assert check_welldefined(d, extra_constraints=[("D", "A")]).welldefined

    def test_welldefined_input_returns_empty(self):
        d = figures.fig2()
        assert suggest_resolutions(d, check_welldefined(d)) == ()

    def test_two_independent_witnesses_need_two_constraints(self):
        d = figures.two_witness_pid()
        report = check_welldefined(d)
        assert len(report.witnesses) == 2
        proposals = suggest_resolutions(d, report)
        fixing = [p for p in proposals if p.welldefined]
        assert fixing
        assert min(len(p.constraints) for p in fixing) == 2
        shortest = min(fixing, key=lambda p: len(p.constraints))
        touched = {c[1] for c in shortest.constraints} | {c[2] for c in shortest.constraints}
        assert {"D", "D9"} <= touched or {"A", "A9"} <= touched
