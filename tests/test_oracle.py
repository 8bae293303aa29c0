import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import bf_best_meu
from pidcheck import figures
from pidcheck.analysis import Analysis, check_welldefined
from pidcheck.generate import random_pid
from pidcheck.model import Kind, Node, validate_nodes
from pidcheck.oracle import (
    Comparison,
    InvalidRealization,
    Realization,
    oracle_required,
    random_realization,
    significance_search,
    solve,
    strategies_equal,
)
from pidcheck.ordering import canonical_schema, enumerate_schemas


def schema_with_order(d, order):
    return next(s for s in enumerate_schemas(d) if s.induced_order() == tuple(order))


class TestRandomRealization:
    def test_deterministic_in_seed(self):
        d = figures.fig2()
        assert random_realization(d, 7).fingerprint() == random_realization(d, 7).fingerprint()

    def test_rows_sum_to_one(self):
        d = figures.fig4()
        r = random_realization(d, 3)
        for table in r.cpts.values():
            rows = table.reshape(-1, table.shape[-1])
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12, rtol=0)
            assert np.all((table >= 0) & (table <= 1))

    def test_seed_sweep_all_distinct(self):
        d = figures.fig2()
        prints = {random_realization(d, s).fingerprint() for s in range(100)}
        assert len(prints) == 100

    def test_shape_validation(self):
        d = figures.fig3()
        with pytest.raises(InvalidRealization):
            Realization(
                cpts={"A": np.array([0.5, 0.5])}, utilities={"U": np.array([1.0, 0.0])}
            ).validated(d)


class TestSolve:
    def test_example_strategy_flip_on_first_utility(self):
        d = figures.fig4()
        schema = canonical_schema(d)
        s1, meu1 = solve(d, figures.fig4_realization((0.0, 3.0)), schema)
        assert s1.rules["D1"].choices[()] == frozenset({"d1"})
        assert meu1 == pytest.approx(12.5, abs=1e-9)
        s2, meu2 = solve(d, figures.fig4_realization((3.0, 0.0)), schema)
        assert s2.rules["D1"].choices[()] == frozenset({"d2"})
        assert meu2 == pytest.approx(12.5, abs=1e-9)
        assert strategies_equal(s1, s2) is Comparison.DIFFERENT

    def test_fig7_decision_tracks_first_observation(self):
        d = figures.fig7()
        schema = schema_with_order(d, ("A", "D", "D2", "B", "D3", "C"))
        strategy, meu = solve(d, figures.fig7_realization(), schema)
        rule = strategy.rules["D"]
        assert rule.pred_vars == ("A",)
        assert rule.choices[0] == frozenset({"d2"})
        assert rule.choices[1] == frozenset({"d1"})
        assert meu == pytest.approx(5.75, abs=1e-9)

    def test_fig8_same_strategy_through_copy(self):
        d = figures.fig8()
        schema = schema_with_order(d, ("A", "D", "D2", "X", "D3", "B", "D4", "C"))
        strategy, meu = solve(d, figures.fig8_realization(), schema)
        rule = strategy.rules["D"]
        assert rule.choices[0] == frozenset({"d2"})
        assert rule.choices[1] == frozenset({"d1"})
        assert meu == pytest.approx(5.75, abs=1e-9)

    def test_single_decision_no_chance(self):
        d = validate_nodes(
            [
                Node("D", Kind.DECISION, ("d1", "d2", "d3"), ()),
                Node("V", Kind.VALUE, None, ("D",)),
            ]
        )
        r = Realization(cpts={}, utilities={"V": np.array([1.0, 5.0, 2.0])})
        strategy, meu = solve(d, r, canonical_schema(d))
        assert strategy.rules["D"].choices[()] == frozenset({"d2"})
        assert meu == pytest.approx(5.0)

    def test_slot_permutation_invariance(self):
        # same diagram declared with two chance orders: identical results
        def build(first_pair):
            a, b = first_pair
            return validate_nodes(
                [
                    Node(a, Kind.CHANCE, ("x", "y"), ()),
                    Node(b, Kind.CHANCE, ("x", "y"), ()),
                    Node("D", Kind.DECISION, ("d1", "d2"), (a, b)),
                    Node("V", Kind.VALUE, None, (a, b, "D")),
                ]
            )

        d1, d2 = build(("P", "Q")), build(("Q", "P"))
        r1 = random_realization(d1, 11)
        # same tables for d2; V's parent order is flipped, so flip its axes
        r2 = Realization(
            cpts=r1.cpts, utilities={"V": np.transpose(r1.utilities["V"], (1, 0, 2))}
        )
        s1, meu1 = solve(d1, r1, canonical_schema(d1))
        s2, meu2 = solve(d2, r2, canonical_schema(d2))
        assert meu1 == pytest.approx(meu2, rel=1e-9)
        rule1, rule2 = s1.rules["D"], s2.rules["D"]
        assert rule1.pred_vars == ("P", "Q") and rule2.pred_vars == ("Q", "P")
        assert rule1.choices[0, 1] == rule2.choices[1, 0]  # axes swapped

    @given(st.integers(0, 120))
    @settings(max_examples=20)
    def test_meu_matches_strategy_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        d = random_pid(rng, max_carrier=4, max_decisions=2)
        schema = canonical_schema(d)
        # keep the brute-force space small
        total_pred = sum(len(schema.pred(dec)) for dec in d.decision_ids)
        if total_pred > 3:
            return
        r = random_realization(d, seed)
        _, meu = solve(d, r, schema)
        assert meu == pytest.approx(bf_best_meu(d, r, schema), rel=1e-9)

    def test_brute_force_meu_on_fig6(self):
        d = figures.fig6()
        r = figures.fig6_realization()
        for schema in enumerate_schemas(d):
            _, meu = solve(d, r, schema)
            assert meu == pytest.approx(bf_best_meu(d, r, schema), rel=1e-12)

    def test_rho_chaining_on_fig4(self):
        # the recorded value at a decision equals the cpt-weighted best value
        # of the next decision's table, per the backward recursion
        d = figures.fig4()
        schema = canonical_schema(d)
        r = figures.fig4_realization()
        strategy, meu = solve(d, r, schema)
        d2 = strategy.rules["D2"]
        d4 = strategy.rules["D4"]
        # rho_D2(d1_state) must equal sum_B P(B | ...) * rho_D4(..) maximized,
        # with B's cpt marginalized over its unobserved parents A, C.
        for i_d1 in range(2):
            best = -np.inf
            for i_d2 in range(2):
                total = 0.0
                for i_b in range(2):
                    p_b = sum(
                        r.cpts["A"][i_d1, i_a]
                        * r.cpts["C"][i_c]
                        * r.cpts["B"][i_d2, i_a, i_c, i_b]
                        for i_a in range(2)
                        for i_c in range(2)
                    )
                    total += p_b * d4.values[i_d1, i_d2, i_b]
                best = max(best, total)
            assert d2.values[i_d1] == pytest.approx(best, rel=1e-9)
        # with an empty past, the first decision's recorded value is the MEU
        assert meu == pytest.approx(float(strategy.rules["D1"].values[()]))


class TestStrategiesEqual:
    def test_reflexive(self):
        d = figures.fig7()
        schema = canonical_schema(d)
        s, _ = solve(d, figures.fig7_realization(), schema)
        assert strategies_equal(s, s) is Comparison.EQUAL

    def test_two_schemas_of_welldefined_diagram_never_differ(self):
        d = figures.fig1()
        assert check_welldefined(d).welldefined
        r = random_realization(d, 5)
        solved = [solve(d, r, s)[0] for s in enumerate_schemas(d)]
        for i in range(len(solved)):
            for j in range(i + 1, len(solved)):
                assert strategies_equal(solved[i], solved[j]) is not Comparison.DIFFERENT

    def test_incomparable_on_swapped_decisions(self):
        d = figures.fig4_derived()
        schemas = list(enumerate_schemas(d))
        r = figures.fig4_realization()
        s1, _ = solve(d, r, schemas[0])
        s2, _ = solve(d, r, schemas[1])
        assert strategies_equal(s1, s2) is Comparison.INCOMPARABLE


class TestOracleRequired:
    def test_fig7_detects_first_observation(self):
        d = figures.fig7()
        schema = schema_with_order(d, ("A", "D", "D2", "B", "D3", "C"))
        got = oracle_required(d, figures.fig7_realization(), schema, "D")
        assert got == frozenset({"A"})

    def test_constant_utilities_require_nothing(self):
        d = figures.fig7()
        r = figures.fig7_realization()
        flat = Realization(
            cpts=r.cpts,
            utilities={k: np.zeros_like(v) for k, v in r.utilities.items()},
        )
        schema = canonical_schema(d)
        for dec in d.decision_ids:
            assert oracle_required(d, flat, schema, dec) == frozenset()

    def test_fig2_b_never_matters_for_d1(self):
        d = figures.fig2()
        schema = canonical_schema(d)
        for seed in range(200):
            r = random_realization(d, seed)
            assert "B" not in oracle_required(d, r, schema, "D1")

    @given(st.integers(0, 150))
    @settings(max_examples=30)
    def test_subset_of_structural_required(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=5)
        analysis = Analysis(d)
        schema = canonical_schema(d, analysis.po)
        r = random_realization(d, seed)
        for dec in d.decision_ids:
            assert oracle_required(d, r, schema, dec) <= analysis.required_variables(schema, dec)


class TestSignificanceSearch:
    def test_fig6_counterexample_found_and_reproducible(self):
        d = figures.fig6()
        ce = significance_search(
            d, "A", "D", trials=10, seed=2, try_first=[figures.fig6_realization()]
        )
        assert ce is not None and ce.trial == 0
        s_before, _ = solve(d, ce.realization, ce.schema_before)
        s_after, _ = solve(d, ce.realization, ce.schema_after)
        rich = s_before.rules["D"]
        poor = s_after.rules["D"]
        assert rich.pred_vars == ("A",) and poor.pred_vars == ()
        # the discrepancy is reproducible bit for bit
        assert rich.choices[0] != rich.choices[1] or rich.choices[0] != poor.choices[()]
        # structural analysis must also flag the pair
        assert Analysis(d).is_significant("A", "D") is not None

    def test_no_value_nodes_mean_no_counterexample(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("D2", Kind.DECISION, ("d1", "d2"), ("A",)),
            ]
        )
        assert significance_search(d, "A", "D", trials=5, seed=0) is None

    def test_incompatibility_precondition(self):
        with pytest.raises(ValueError, match="pair not incompatible"):
            significance_search(figures.fig2(), "B", "D1", trials=1, seed=0)

    def test_minimized_counterexample_has_grid_entries(self):
        d = figures.fig6()
        ce = significance_search(d, "A", "D", trials=10, seed=3)
        assert ce is not None
        for table in ce.realization.cpts.values():
            rows = table.reshape(-1, table.shape[-1])
            for row in rows:
                rounded = np.array([min([0.0, 0.5, 1.0], key=lambda g: abs(g - x)) for x in row])
                total = rounded.sum()
                if total > 0:
                    np.testing.assert_allclose(row, rounded / total, rtol=0, atol=1e-12)
