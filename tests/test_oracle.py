import collections
import itertools
import pathlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    bf_best_meu,
    dense_solve,
    fingerprint,
    naive_required,
    naive_rules_differ,
    reference_solve_many,
    significance_search,
    trial_strategies,
)
from pidcheck import figures, oracle
from pidcheck.cli import load_file
from pidcheck.analysis import Analysis, check_welldefined
from pidcheck.generate import random_pid
from pidcheck.model import Kind, Node, validate_nodes
from pidcheck.oracle import (
    BatchedRule,
    Comparison,
    DecisionRule,
    EvaluationError,
    InvalidRealization,
    Realization,
    random_realization,
    required_from_strategy,
    required_per_trial,
    rules_differ,
    Strategy,
    solve,
    solve_schemas,
    strategies_equal,
)
from pidcheck.ordering import OrderSchema, canonical_schema, enumerate_schemas


FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def schema_with_order(d, order):
    return next(s for s in enumerate_schemas(d) if s.induced_order() == tuple(order))


class TestRandomRealization:
    def test_deterministic_in_seed(self):
        d = figures.fig2()
        assert fingerprint(random_realization(d, 7)) == fingerprint(random_realization(d, 7))

    def test_rows_sum_to_one(self):
        d = figures.fig4()
        r = random_realization(d, 3)
        for table in r.cpts.values():
            rows = table.reshape(-1, table.shape[-1])
            assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12, rtol=0)
            assert np.all((table >= 0) & (table <= 1))

    def test_refuses_a_table_over_the_limit_before_drawing(self, monkeypatch):
        # C's CPT spans a 3-state and a 2-state parent and its own 2 states.
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("a1", "a2", "a3"), ()),
                Node("B", Kind.CHANCE, ("b1", "b2"), ()),
                Node("C", Kind.CHANCE, ("c1", "c2"), ("A", "B")),
            ]
        )
        monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 8)
        drawn = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed))
        with pytest.raises(EvaluationError, match="a table over 3 variables needs 12 cells"):
            random_realization(d, 0)
        assert drawn == []

    def test_seed_sweep_all_distinct(self):
        d = figures.fig2()
        prints = {fingerprint(random_realization(d, s)) for s in range(100)}
        assert len(prints) == 100

    def test_shape_validation(self):
        d = figures.fig3()
        with pytest.raises(InvalidRealization):
            Realization(
                cpts={"A": np.array([0.5, 0.5])}, utilities={"U": np.array([1.0, 0.0])}
            ).validated(d)


class TestValidatedOnce:
    """`validated` checks a realization once per diagram: `solve` checks a
    realization built directly on its first call and not on later ones."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        original = oracle.check_tables

        def counted(d, *args):
            calls.append(d)
            return original(d, *args)

        monkeypatch.setattr(oracle, "check_tables", counted)
        return calls

    def test_first_solve_validates(self, checks):
        d = figures.fig3()
        bad = Realization(
            cpts={"A": np.array([[0.5, 0.6], [0.0, 1.0]])}, utilities={"U": np.array([1.0, 0.0])}
        )
        with pytest.raises(InvalidRealization, match="do not sum to 1"):
            solve(d, bad, canonical_schema(d))
        with pytest.raises(InvalidRealization, match="do not sum to 1"):
            solve(d, bad, canonical_schema(d))
        assert len(checks) == 2

    def test_once_per_diagram(self, checks):
        d, other = figures.fig3(), figures.fig3()
        r = figures.fig3_realization()
        for _ in range(3):
            solve(d, r, canonical_schema(d))
        assert len(checks) == 1 and checks[0] is d
        solve(other, r, canonical_schema(other))
        assert len(checks) == 2 and checks[1] is other


class TestIdentityEquality:
    def test_realizations_of_the_same_arrays_are_unequal(self):
        r = figures.fig3_realization()
        other = Realization(r.cpts, r.utilities)
        assert other != r and not other == r
        assert r == r and len({r, other}) == 2


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


def _rounded(r):
    """The realization with every CPT row rounded to {0, 1/2, 1}, so that
    some pasts have probability zero."""
    grid = np.array([0.0, 0.5, 1.0])
    cpts = {}
    for c, table in r.cpts.items():
        rounded = grid[np.abs(table[..., None] - grid).argmin(axis=-1)]
        total = rounded.sum(axis=-1, keepdims=True)
        cpts[c] = np.where(total > 0, rounded / np.where(total > 0, total, 1.0), 1.0 / table.shape[-1])
    return Realization(cpts, r.utilities)


def _solution(solver, d, r, schema):
    try:
        strategy, meu = solver(d, r, schema)
    except Exception as exc:
        return type(exc), str(exc)
    return strategy, meu


def assert_matches_dense(d, r, schema):
    got, want = _solution(solve, d, r, schema), _solution(dense_solve, d, r, schema)
    if not isinstance(want[0], Strategy):
        assert got == want
        return
    (strategy, meu), (reference, reference_meu) = got, want
    assert meu == pytest.approx(reference_meu, rel=1e-9)
    assert strategy.rules.keys() == reference.rules.keys()
    for dec, rule in reference.rules.items():
        mine = strategy.rules[dec]
        assert mine.pred_vars == rule.pred_vars
        np.testing.assert_array_equal(mine.ties, rule.ties)
        np.testing.assert_allclose(mine.values, rule.values, rtol=1e-9, atol=0)


class TestMatchesDenseReference:
    """The factored solver against the dense joint-table reference: the same
    maximizer masks and pasts, values and MEU within 1e-9 relative, and the
    same error on overflow."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_fixtures_every_schema(self, path):
        d, r = load_file(str(path))
        r = r.realization() if r is not None else random_realization(d, 0)
        for schema in enumerate_schemas(d):
            assert_matches_dense(d, r, schema)
            assert_matches_dense(d, _rounded(r), schema)

    def test_random_diagrams(self):
        for seed in range(300):
            rng = np.random.default_rng(50_000 + seed)
            d = random_pid(rng, max_carrier=int(rng.integers(3, 9)), n_values=int(rng.integers(1, 3)))
            r = random_realization(d, seed)
            for schema in itertools.islice(enumerate_schemas(d), 4):
                assert_matches_dense(d, r, schema)
                assert_matches_dense(d, _rounded(r), schema)

    @pytest.mark.parametrize("entry", [1e308, np.inf, np.nan])
    def test_non_finite_utilities(self, entry):
        d = figures.fig4()
        r = figures.fig4_realization()
        huge = Realization(r.cpts, {v: np.full_like(t, entry) for v, t in r.utilities.items()})
        assert_matches_dense(d, huge, canonical_schema(d))
        with pytest.raises(EvaluationError, match="non-finite table entries"):
            solve(d, huge, canonical_schema(d))


def assert_batch_matches_lone(d, realizations, schema):
    """Each trial of one `solve_schemas` call on one schema has, bit for
    bit, the tables and MEU of a lone `solve` on its realization."""
    rules, meus, _ = next(solve_schemas(d, realizations, (schema,)))
    batched = trial_strategies(d, schema, rules, meus)
    assert len(batched) == len(realizations)
    for r, (strategy, meu) in zip(realizations, batched):
        lone, lone_meu = solve(d, r, schema)
        assert meu == lone_meu
        assert strategy.schema is schema and list(strategy.rules) == list(lone.rules)
        for dec, rule in lone.rules.items():
            mine = strategy.rules[dec]
            assert (mine.decision, mine.pred_vars, mine.states) == (rule.decision, rule.pred_vars, rule.states)
            assert np.array_equal(mine.ties, rule.ties)
            assert np.array_equal(mine.values, rule.values)


def _draw(seed: int, multi_state: bool):
    rng = np.random.default_rng(seed)
    d = random_pid(rng, max_carrier=int(rng.integers(3, 9)), n_values=int(rng.integers(1, 3)))
    if multi_state:
        # Sums over more than two states, whose order shows in the last bit.
        d = validate_nodes([
            n if n.kind is Kind.VALUE else Node(n.id, n.kind, tuple(f"s{i}" for i in range(int(rng.choice([2, 3, 5, 9])))), n.parents)
            for n in d.nodes
        ])
    return d


class TestSolveMany:
    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_fixtures(self, path):
        d, _ = load_file(str(path))
        realizations = [random_realization(d, seed) for seed in range(3)]
        realizations += [_rounded(r) for r in realizations]
        for schema in itertools.islice(enumerate_schemas(d), 40):
            assert_batch_matches_lone(d, realizations, schema)

    def test_random_diagrams(self):
        for seed in range(200):
            d = _draw(70_000 + seed, seed % 2 == 1)
            realizations = [random_realization(d, 3 * seed + k) for k in range(3)]
            realizations += [_rounded(r) for r in realizations]
            for schema in itertools.islice(enumerate_schemas(d), 4):
                assert_batch_matches_lone(d, realizations, schema)

    def test_no_realizations(self):
        d = figures.fig4()
        assert next(solve_schemas(d, [], (canonical_schema(d),))) == ({}, [], ())

    def test_one_bad_trial_fails_the_batch(self):
        d = figures.fig4()
        r = figures.fig4_realization()
        huge = Realization(r.cpts, {v: np.full_like(t, np.inf) for v, t in r.utilities.items()})
        with pytest.raises(EvaluationError, match="non-finite table entries"):
            next(solve_schemas(d, [r, huge, r], (canonical_schema(d),)))


def _bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.dtype.str, np.ascontiguousarray(a).tobytes()


def assert_same_solutions(got, want):
    """Bit for bit: per realization the MEU, and per decision, in the same
    order, the past, the ties and the values."""
    assert len(got) == len(want)
    for (strategy, meu), (reference, reference_meu) in zip(got, want):
        assert repr(meu) == repr(reference_meu)
        assert strategy.schema is reference.schema and list(strategy.rules) == list(reference.rules)
        for dec, rule in reference.rules.items():
            mine = strategy.rules[dec]
            assert (mine.decision, mine.pred_vars, mine.states) == (rule.decision, rule.pred_vars, rule.states)
            assert _bits(mine.ties) == _bits(rule.ties)
            assert _bits(mine.values) == _bits(rule.values)


def assert_schemas_match_reference(d, realizations, schemas, meu=True):
    """`solve_schemas` gives, schema by schema, what `reference_solve_many`
    gives, and names as fresh exactly the decisions that do not lie in the
    order suffix the schema shares with the previous one, last first.  A
    rules-only walk (``meu=False``) gives the same rules and no MEUs."""
    previous = None
    for schema, (rules, meus, fresh) in zip(schemas, solve_schemas(d, realizations, schemas, meu=meu), strict=True):
        want = reference_solve_many(d, realizations, schema)
        if not meu:
            assert meus is None
            meus = [reference_meu for _, reference_meu in want]
        assert_same_solutions(trial_strategies(d, schema, rules, meus), want)
        order = schema.induced_order()
        assert fresh == tuple(
            v for i, v in reversed(list(enumerate(order)))
            if d.kind(v) is Kind.DECISION and (previous is None or order[i:] != previous[i:])
        )
        previous = order


class TestSolveSchemas:
    """One elimination shared along order suffixes gives, bit for bit, the
    per-schema elimination of `reference_solve_many`."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_fixtures(self, path):
        d, _ = load_file(str(path))
        schemas = list(enumerate_schemas(d))
        realizations = [random_realization(d, seed) for seed in range(3)]
        assert_schemas_match_reference(d, realizations[:1], schemas)
        assert_schemas_match_reference(d, realizations + [_rounded(r) for r in realizations], schemas)
        # The order in which `fuzz` visits them: schemas that end alike together.
        by_suffix = sorted(schemas, key=lambda s: s.induced_order()[::-1])
        assert_schemas_match_reference(d, realizations, by_suffix, meu=False)

    @pytest.mark.parametrize("multi_state", [False, True], ids=["binary", "multi-state"])
    def test_random_diagrams(self, multi_state):
        # The multi-state draws are those of TestSolveMany.
        for seed in range(1, 200, 2) if multi_state else range(200):
            d = _draw((70_000 if multi_state else 80_000) + seed, multi_state)
            schemas = list(enumerate_schemas(d))
            realizations = [random_realization(d, 3 * seed + k) for k in range(3)]
            assert_schemas_match_reference(d, realizations[:1], schemas)
            assert_schemas_match_reference(d, [realizations[1], _rounded(realizations[2])], schemas)
            by_suffix = sorted(schemas, key=lambda s: s.induced_order()[::-1])
            assert_schemas_match_reference(d, realizations[:2], by_suffix, meu=False)

    def test_handed_out_tables_never_change(self):
        d, _ = load_file(str(FIXTURES / "fig8.pid"))
        schemas = list(enumerate_schemas(d))
        realizations = [random_realization(d, seed) for seed in range(2)]
        inputs = [fingerprint(r) for r in realizations]
        handed = []
        for rules, _, _ in solve_schemas(d, realizations, schemas):
            for rule in rules.values():
                for k in range(2):
                    handed.append((rule.ties[k], rule.values[k], _bits(rule.ties[k]), _bits(rule.values[k])))
        assert len(handed) == len(schemas) * 2 * len(d.decision_ids)
        for rule_ties, rule_values, ties, values in handed:
            assert (_bits(rule_ties), _bits(rule_values)) == (ties, values)
        assert [fingerprint(r) for r in realizations] == inputs

    def test_overflow_fires_at_the_same_schema(self, monkeypatch):
        """Every admissible schema has the same largest table, over all
        decisions and every chance node that precedes one, so a schema that
        puts every chance node first is inserted mid-list: only it needs
        more than 128 cells."""
        d, _ = load_file(str(FIXTURES / "fig8.pid"))
        schemas = list(enumerate_schemas(d))
        first = schemas[0]
        wide = OrderSchema(first.decision_sequence, tuple((c, 0) for c, _ in first.slots))
        schemas[150:150] = [wide]
        monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 128)
        realizations = [random_realization(d, 0)]
        for schema in schemas[:150]:
            reference_solve_many(d, realizations, schema)
        with pytest.raises(EvaluationError) as want:
            reference_solve_many(d, realizations, wide)
        solved = solve_schemas(d, realizations, schemas)
        assert len(list(itertools.islice(solved, 150))) == 150
        with pytest.raises(EvaluationError, match="needs 256 cells") as got:
            next(solved)
        assert str(got.value) == str(want.value)

    def test_rules_only_walk_on_a_repeated_schema(self):
        """A rules-only walk ends at the first decision, so it keeps fewer
        states than the next schema shares with an identical one; it still
        hands out the rules and fresh decisions of the full walk."""
        d, _ = load_file(str(FIXTURES / "fig8.pid"))
        s, t = list(enumerate_schemas(d))[:2]
        assert d.kind(s.induced_order()[0]) is Kind.CHANCE
        realizations = [random_realization(d, seed) for seed in range(2)]
        full = list(solve_schemas(d, realizations, [s, s, t]))
        rules_only = list(solve_schemas(d, realizations, [s, s, t], meu=False))
        assert [fresh for _, _, fresh in rules_only] == [fresh for _, _, fresh in full] == [
            ("D4", "D3", "D2", "D"), (), ("D",)
        ]
        for (want, meus, _), (got, none, _) in zip(full, rules_only, strict=True):
            assert none is None and len(meus) == 2
            assert list(got) == list(want)
            for dec, rule in want.items():
                mine = got[dec]
                assert mine.pred_vars == rule.pred_vars
                assert (_bits(mine.ties), _bits(mine.values)) == (_bits(rule.ties), _bits(rule.values))

    def test_no_realizations(self):
        d = figures.fig7()
        schemas = list(enumerate_schemas(d))
        assert list(solve_schemas(d, [], schemas)) == [({}, [], ())] * len(schemas)
        assert list(solve_schemas(d, [], schemas, meu=False)) == [({}, None, ())] * len(schemas)

    def test_schema_of_another_diagram(self):
        d = figures.fig7()
        schemas = list(enumerate_schemas(d))[:2] + [canonical_schema(figures.fig8())]
        solved = solve_schemas(d, [random_realization(d, 0)], schemas)
        assert len(list(itertools.islice(solved, 2))) == 2
        with pytest.raises(ValueError, match="does not cover"):
            next(solved)


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
        got = required_from_strategy(solve(d, figures.fig7_realization(), schema)[0], "D")
        assert got == frozenset({"A"})

    def test_constant_utilities_require_nothing(self):
        d = figures.fig7()
        r = figures.fig7_realization()
        flat = Realization(
            cpts=r.cpts,
            utilities={k: np.zeros_like(v) for k, v in r.utilities.items()},
        )
        strategy, _ = solve(d, flat, canonical_schema(d))
        for dec in d.decision_ids:
            assert required_from_strategy(strategy, dec) == frozenset()

    def test_fig2_b_never_matters_for_d1(self):
        d = figures.fig2()
        schema = canonical_schema(d)
        for seed in range(200):
            r = random_realization(d, seed)
            assert "B" not in required_from_strategy(solve(d, r, schema)[0], "D1")

    @given(st.integers(0, 150))
    @settings(max_examples=30)
    def test_subset_of_structural_required(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=5)
        analysis = Analysis(d)
        schema = canonical_schema(d, analysis.po)
        strategy, _ = solve(d, random_realization(d, seed), schema)
        for dec in d.decision_ids:
            assert required_from_strategy(strategy, dec) <= analysis.required_variables(schema, dec)


def _trial(d, rule, k):
    """Trial ``k`` of a batched rule, as a lone rule."""
    return DecisionRule(rule.decision, rule.pred_vars, d.states(rule.decision), rule.ties[k], rule.values[k])


def _at_the_boundary(rule, tol):
    """``rule`` with its past in reverse order, the values of trial k moved
    up by none, half, exactly, just over (the next float) or twice the
    tolerance that `rules_differ` allows against ``rule``, by k % 5, and
    one maximizer flipped in every trial k with k % 4 == 3."""
    allowed = tol * np.maximum(1.0, np.abs(rule.values))
    values = rule.values.copy()
    for k in range(len(values)):
        values[k] += (0.0, 0.5, 1.0, 1.0, 2.0)[k % 5] * allowed[k]
        if k % 5 == 3:
            values[k] = np.nextafter(values[k], np.inf)
    ties = rule.ties.copy()
    for k in range(3, len(ties), 4):
        first = (k,) + (0,) * (ties.ndim - 1)
        ties[first] = not ties[first]
    reverse = [0] + list(range(rule.values.ndim - 1, 0, -1))
    ties, values = ties.transpose(reverse + [ties.ndim - 1]), values.transpose(reverse)
    return BatchedRule(rule.decision, rule.pred_vars[::-1], ties, values)


def assert_checks_agree_per_trial(d, trials, seed, outcomes):
    """On every rule that a `fuzz` batch of ``trials`` realizations hands
    out, `required_per_trial` is, trial by trial, `required_from_strategy`
    and `naive_required`; and `rules_differ` is, trial by trial,
    `strategies_equal` and `naive_rules_differ`, on the pairs that `fuzz`
    compares, on each rule against itself moved to the edge of
    the tolerance, and the other way round.  Counts the outcomes."""
    realizations = [random_realization(d, seed + t) for t in range(trials)]
    schemas = list(enumerate_schemas(d))
    base = None
    for schema, (rules, _, _) in zip(schemas, solve_schemas(d, realizations, schemas)):
        if base is None:
            base = rules
        for dec, rule in rules.items():
            got = required_per_trial(rule)
            assert len(got) == trials
            for k in range(trials):
                lone = _trial(d, rule, k)
                assert got[k] == naive_required(lone) == required_from_strategy(Strategy(schema, {dec: lone}), dec)
            tol = oracle.DEFAULT_TIE_TOL
            moved = _at_the_boundary(rule, tol)
            for a, b in ((base[dec], rule), (rule, moved), (moved, rule)):
                differ = rules_differ(a, b, tol)
                for k in range(trials):
                    lone_a, lone_b = _trial(d, a, k), _trial(d, b, k)
                    want = naive_rules_differ(lone_a, lone_b, tol)
                    verdict = strategies_equal(Strategy(schema, {dec: lone_a}), Strategy(schema, {dec: lone_b}), tol)
                    outcomes[want] += 1
                    if want is None:
                        assert differ is None and verdict is Comparison.INCOMPARABLE
                    else:
                        assert bool(differ[k]) is want
                        assert verdict is (Comparison.DIFFERENT if want else Comparison.EQUAL)


class TestTrialAxisChecks:
    """The checks `fuzz` runs over the trial axis give, trial by trial, what
    the one-trial checks give."""

    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "two_witness"])
    def test_fixtures(self, name):
        d, _ = load_file(str(FIXTURES / f"{name}.pid"))
        outcomes = collections.Counter()
        assert_checks_agree_per_trial(d, 10, 3, outcomes)
        assert outcomes[True] and outcomes[False]

    def test_random_diagrams(self):
        outcomes = collections.Counter()
        for seed in range(200):
            d = random_pid(np.random.default_rng(90_000 + seed), max_carrier=7, max_decisions=3)
            assert_checks_agree_per_trial(d, 5, seed, outcomes)
        assert outcomes[None] and outcomes[True] and outcomes[False]

    def test_exact_tolerance_boundary(self):
        # Values and tolerance are powers of two, so the differences are
        # exact: a move of exactly the tolerance is equal, one ulp more is not.
        tol = 2.0**-20
        ties = np.ones((3, 3, 1), dtype=bool)
        values = np.array([[1.0, 2.0, -4.0]] * 3)
        rule = BatchedRule("D", ("A",), ties, values)
        scale = np.maximum(1.0, np.abs(values))
        moved = values + np.array([[1.0], [1.0], [-1.0]]) * tol * scale
        moved[1] = np.nextafter(moved[1], np.inf)
        other = BatchedRule("D", ("A",), ties, moved)
        assert rules_differ(rule, other, tol).tolist() == [False, True, False]
        assert rules_differ(rule, BatchedRule("D", ("B",), ties, values), tol) is None


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
