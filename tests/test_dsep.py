import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import bf_d_connected
from pidcheck import figures
from pidcheck.analysis import Analysis
from pidcheck.dsep import (
    NotTotalOrder,
    bayes_ball_requisite,
    d_connected,
    elimination_neighbors,
)
from pidcheck.generate import random_classic_id
from pidcheck.model import GraphView, Kind, Node, strip_informational, validate_nodes
from pidcheck.ordering import canonical_schema, enumerate_schemas, induce_partial_order


def _view(arcs, nodes=None):
    ids = tuple(nodes) if nodes else tuple(sorted({x for arc in arcs for x in arc}))
    return GraphView(ids, tuple(arcs))


def _connected(view, src, targets, z=()):
    return d_connected(view, src, frozenset(targets), frozenset(z))


class TestDConnected:
    def test_chain_blocked_by_middle(self):
        view = _view([("A", "B"), ("B", "C")])
        assert not _connected(view, "A", {"C"}, {"B"})
        assert _connected(view, "A", {"C"})

    def test_collider_activated_by_conditioning(self):
        view = _view([("A", "C"), ("B", "C")])
        assert not _connected(view, "A", {"B"})
        assert _connected(view, "A", {"B"}, {"C"})

    def test_collider_activated_by_conditioned_descendant(self):
        view = _view([("A", "C"), ("B", "C"), ("C", "E")])
        assert _connected(view, "A", {"B"}, {"E"})

    def test_fig4_d2_connected_to_c_given_pred_d4(self):
        d = figures.fig4()
        schema = canonical_schema(d)
        view = strip_informational(d)
        pred = schema.pred("D4")
        assert _connected(view, "D2", {"C"}, (pred | {"D4"}) - {"D2"})

    def test_empty_targets_and_self_target(self):
        view = _view([("A", "B")])
        assert not _connected(view, "A", set())
        assert _connected(view, "A", {"A"})

    def test_conditioned_source_rejected(self):
        view = _view([("A", "B")])
        with pytest.raises(ValueError):
            _connected(view, "A", {"B"}, {"A"})

    @given(st.integers(0, 600))
    @settings(max_examples=60)
    def test_against_trail_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        ids = [f"N{i}" for i in range(n)]
        arcs = [
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        view = _view(arcs, nodes=ids)
        src, dst = rng.choice(ids, size=2, replace=False)
        others = [v for v in ids if v not in (src, dst)]
        z = {v for v in others if rng.random() < 0.3}
        got = _connected(view, src, {dst}, z)
        want = bf_d_connected(view, src, dst, z)
        assert got == want

    @given(st.integers(0, 300))
    @settings(max_examples=40)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        ids = [f"N{i}" for i in range(5)]
        arcs = [
            (ids[i], ids[j]) for i in range(5) for j in range(i + 1, 5) if rng.random() < 0.4
        ]
        view = _view(arcs, nodes=ids)
        src, dst = ids[0], ids[-1]
        z = {ids[2]} if rng.random() < 0.5 else set()
        fwd = _connected(view, src, {dst}, z)
        bwd = _connected(view, dst, {src}, z)
        assert fwd == bwd


class TestDirectedPath:
    def test_fig3_decision_reaches_utility(self):
        assert "U" in Analysis(figures.fig3()).bare_descendants("D1")

    def test_fig2_d1_does_not_reach_u2_without_informational_arcs(self):
        reached = Analysis(figures.fig2()).bare_descendants("D1")
        assert "U2" not in reached
        assert "U1" in reached


class TestBayesBall:
    def test_fig2_marks_b(self):
        d = figures.fig2()
        assert "B" in bayes_ball_requisite(d, induce_partial_order(d), "D1")

    def test_no_observations_gives_empty_set(self):
        d = validate_nodes(
            [
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("A", Kind.CHANCE, ("x", "y"), ("D",)),
                Node("V", Kind.VALUE, None, ("A",)),
            ]
        )
        assert bayes_ball_requisite(d, induce_partial_order(d), "D") == frozenset()

    def test_observation_feeding_the_utility_is_requisite(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("V", Kind.VALUE, None, ("A", "D")),
            ]
        )
        po_pred = {"A"}
        assert bayes_ball_requisite(d, induce_partial_order(d), "D") == frozenset(po_pred)

    def test_rejects_partial_diagrams(self):
        d = figures.fig6()
        with pytest.raises(NotTotalOrder, match="not a total order"):
            bayes_ball_requisite(d, induce_partial_order(d), "D")

    @given(st.integers(0, 200))
    @settings(max_examples=25)
    def test_contains_exact_required_set(self, seed):
        d = random_classic_id(np.random.default_rng(seed))
        schema = canonical_schema(d)
        analysis = Analysis(d)
        for dec in d.decision_ids:
            assert analysis.required_variables(schema, dec) <= bayes_ball_requisite(d, analysis.po, dec)


class TestEliminationNeighbors:
    def test_fig2_contains_b(self):
        d = figures.fig2()
        schema = canonical_schema(d)
        assert "B" in elimination_neighbors(d, "D1", schema)

    def test_single_observed_parent_feeding_only_utility(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("V", Kind.VALUE, None, ("A", "D")),
            ]
        )
        assert elimination_neighbors(d, "D", canonical_schema(d)) == frozenset({"A"})

    def test_fig8_modified_keeps_a(self):
        d = figures.fig8_modified()
        schema = next(
            s
            for s in enumerate_schemas(d)
            if s.induced_order() == ("A", "D", "D2", "X", "D3", "B", "D4", "C")
        )
        assert "A" in elimination_neighbors(d, "D", schema)

    @given(st.integers(0, 200))
    @settings(max_examples=25)
    def test_contains_exact_required_set(self, seed):
        d = random_classic_id(np.random.default_rng(seed))
        schema = canonical_schema(d)
        analysis = Analysis(d)
        for dec in d.decision_ids:
            required = analysis.required_variables(schema, dec)
            assert required <= elimination_neighbors(d, dec, schema)
