"""Acceptance suite: exact fixture reproduction plus the three randomized
property suites, each with its stated time budget.  One PASS/FAIL line is
printed per criterion (run with ``pytest tests/test_acceptance.py -v -s``).
"""
import itertools
import time

import numpy as np
import pytest

from conftest import all_admissible_orders, exact_witnesses, significance_search, swap_graph_connected
from pidcheck import figures
from pidcheck.analysis import Analysis, check_welldefined
from pidcheck.dsep import bayes_ball_requisite, elimination_neighbors
from pidcheck.generate import random_classic_id, random_pid
from pidcheck.model import Kind, Node, validate_nodes
from pidcheck.oracle import (
    Comparison,
    Realization,
    random_realization,
    required_from_strategy,
    solve,
    strategies_equal,
)
from pidcheck.ordering import canonical_schema, enumerate_schemas, induce_partial_order


class _Budget:
    def __init__(self, number: int, description: str, seconds: float):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"{status} criterion {self.number}: {self.description} [{elapsed:.2f}s]")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
            )
        return False


def schema_with_order(d, order):
    return next(s for s in enumerate_schemas(d) if s.induced_order() == tuple(order))


def test_criterion_1_fig1_order_and_incompatibilities():
    with _Budget(1, "fig1 partial order and incompatible pairs", 1.0):
        d = figures.fig1()
        po = induce_partial_order(d)
        assert "D1" in po.succ["B"]
        for x in ["E", "F", "G", "D2", "D4"]:
            assert x in po.succ["D1"]
            assert "H" in po.succ[x]
        assert "H" in po.succ["D3"]
        assert set(po.incompatible_pairs()) == {
            ("F", "D4"),
            ("D2", "D3"),
            ("D2", "D4"),
            ("D3", "D4"),
        }
        assert not po.incompatible("D1", "D4")


def test_criterion_2_fig2_three_analyses_separate():
    with _Budget(2, "fig2 exact vs bayes-ball vs elimination neighborhood", 1.0):
        d = figures.fig2()
        schema = canonical_schema(d)
        analysis = Analysis(d)
        assert "B" not in analysis.required_variables(schema, "D1")
        assert "B" in bayes_ball_requisite(d, analysis.po, "D1")
        assert "B" in elimination_neighbors(d, "D1", schema)


def test_criterion_3_fig4_strategy_flip_and_relevant_sets():
    with _Budget(3, "fig4 solve strategies flip with the first utility", 1.0):
        d = figures.fig4()
        schema = canonical_schema(d)
        s1, meu1 = solve(d, figures.fig4_realization((0.0, 3.0)), schema)
        assert s1.rules["D1"].choices[()] == frozenset({"d1"})
        s2, meu2 = solve(d, figures.fig4_realization((3.0, 0.0)), schema)
        assert s2.rules["D1"].choices[()] == frozenset({"d2"})
        assert abs(meu1 - 12.5) < 1e-9 and abs(meu2 - 12.5) < 1e-9
        assert Analysis(d).relevant_utilities(schema, "D1") == frozenset({"U", "Up"})


def test_criterion_4_fig7_strategy_and_required_set():
    with _Budget(4, "fig7 decision tracks its observation; A required", 1.0):
        d = figures.fig7()
        schema = schema_with_order(d, ("A", "D", "D2", "B", "D3", "C"))
        strategy, _ = solve(d, figures.fig7_realization(), schema)
        rule = strategy.rules["D"]
        assert rule.pred_vars == ("A",)
        assert rule.choices[0] == frozenset({"d2"})
        assert rule.choices[1] == frozenset({"d1"})
        assert "A" in Analysis(d).required_variables(schema, "D")


def test_criterion_5_fig8_and_modified_fig8():
    with _Budget(5, "fig8 A required; modified fig8 drops it but keeps N(D)", 1.0):
        d = figures.fig8()
        schema = schema_with_order(d, ("A", "D", "D2", "X", "D3", "B", "D4", "C"))
        assert "A" in Analysis(d).required_variables(schema, "D")
        dm = figures.fig8_modified()
        schema_m = schema_with_order(dm, ("A", "D", "D2", "X", "D3", "B", "D4", "C"))
        assert "A" not in Analysis(dm).required_variables(schema_m, "D")
        assert "A" in elimination_neighbors(dm, "D", schema_m)


def test_criterion_6_swap_graph_connectivity():
    with _Budget(6, "swap-graph connectivity on 200 random diagrams", 60.0):
        made = attempt = 0
        while made < 200:
            d = random_pid(np.random.default_rng(10_000 + attempt), max_carrier=8)
            attempt += 1
            po = induce_partial_order(d)
            # keep the brute-force enumeration tractable
            orders = list(itertools.islice(all_admissible_orders(po), 6001))
            if len(orders) > 6000:
                continue
            assert swap_graph_connected(po)
            made += 1


def test_criterion_7_oracle_required_soundness():
    with _Budget(7, "oracle-required within structural required, 100x20", 120.0):
        for i in range(100):
            d = random_classic_id(np.random.default_rng(20_000 + i))
            analysis = Analysis(d)
            schema = canonical_schema(d, analysis.po)
            required = {
                dec: analysis.required_variables(schema, dec) for dec in d.decision_ids
            }
            for t in range(20):
                strategy, _ = solve(d, random_realization(d, t), schema)
                for dec in d.decision_ids:
                    assert required_from_strategy(strategy, dec) <= required[dec]


def test_criterion_8_welldefined_strategy_invariance_and_counterexample():
    with _Budget(8, "strategy invariance on welldefined diagrams; fig6 search", 180.0):
        made = attempt = 0
        while made < 50:
            d = random_pid(np.random.default_rng(30_000 + attempt), max_carrier=6)
            attempt += 1
            schemas = list(enumerate_schemas(d))
            if not (2 <= len(schemas) <= 12):
                continue
            if not check_welldefined(d).welldefined:
                continue
            made += 1
            for t in range(20):
                r = random_realization(d, t)
                solved = [solve(d, r, s)[0] for s in schemas]
                for a, b in itertools.combinations(solved, 2):
                    assert strategies_equal(a, b, tol=1e-9) is not Comparison.DIFFERENT
        ambiguous = [
            (figures.fig6(), figures.fig6_realization()),
            (figures.fig7(), figures.fig7_realization()),
        ]
        for d, fixture in ambiguous:
            assert not check_welldefined(d).welldefined
            ce = significance_search(d, "A", "D", trials=10, seed=0, try_first=[fixture])
            assert ce is not None
            # the counterexample realization really does flip the decision rule
            rich, _ = solve(d, ce.realization, ce.schema_before)
            poor, _ = solve(d, ce.realization, ce.schema_after)
            a_axis = rich.rules["D"].pred_vars.index("A")
            table = np.moveaxis(rich.rules["D"].choices, a_axis, -1)
            flat_rich = table.reshape(-1, table.shape[-1])
            flat_poor = np.asarray(poor.rules["D"].choices, dtype=object).reshape(-1)
            assert any(
                flat_rich[j][k] != flat_poor[j]
                for j in range(flat_rich.shape[0])
                for k in range(flat_rich.shape[1])
            )


def test_criterion_9_mode_agreement():
    with _Budget(9, "check reports the witnesses of the exact single-pair scan", 60.0):
        for builder in figures.ALL_FIGURES.values():
            d = builder()
            assert check_welldefined(d).witnesses == exact_witnesses(d)
        for i in range(100):
            d = random_pid(np.random.default_rng(40_000 + i), max_carrier=7)
            assert check_welldefined(d).witnesses == exact_witnesses(d)


def test_criterion_10_factored_solve_on_a_40_node_chain():
    # C0 -> ... -> C38, a decision D observing C38 and a utility on (C0, D):
    # 40 carrier nodes, which a dense joint table could not hold.
    rng = np.random.default_rng(60_000)
    binary, act = ("s1", "s2"), ("d1", "d2")
    nodes = [Node("C0", Kind.CHANCE, binary, ())]
    nodes += [Node(f"C{j}", Kind.CHANCE, binary, (f"C{j - 1}",)) for j in range(1, 39)]
    nodes += [Node("D", Kind.DECISION, act, ("C38",)), Node("U", Kind.VALUE, None, ("C0", "D"))]
    d = validate_nodes(nodes)
    raw = {f"C{j}": rng.uniform(0.05, 1.0, size=(2,) if j == 0 else (2, 2)) for j in range(39)}
    cpts = {c: t / t.sum(axis=-1, keepdims=True) for c, t in raw.items()}
    utility = rng.integers(0, 101, size=(2, 2)).astype(float)
    r = Realization(cpts, {"U": utility})
    schema = canonical_schema(d)
    with _Budget(10, "factored solve: 40-node chain against a matrix product", 1.0):
        strategy, meu = solve(d, r, schema)
    # P(C0, C38) is diag(P(C0)) times the product of the 38 transition matrices.
    joint = cpts["C0"][:, None] * np.linalg.multi_dot([cpts[f"C{j}"] for j in range(1, 39)])
    assert strategy.rules["D"].pred_vars == ("C38",)
    assert meu == pytest.approx((joint.T @ utility).max(axis=1).sum(), rel=1e-9)
