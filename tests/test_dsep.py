import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import bf_d_connected, moral_d_connected
from pidcheck import figures
from pidcheck.analysis import Analysis
from pidcheck.dsep import (
    NotTotalOrder,
    active_reach,
    bayes_ball_requisite,
    elimination_neighbors,
)
from pidcheck.generate import random_classic_id, random_pid
from pidcheck.model import GraphView, Kind, Node, validate_nodes
from pidcheck.ordering import canonical_schema, enumerate_schemas, induce_partial_order


def _view(arcs, nodes=None):
    ids = tuple(nodes) if nodes else tuple(sorted({x for arc in arcs for x in arc}))
    return GraphView(ids, tuple(arcs))


def _reach(view, src, z=()):
    return set(view.ids_of(active_reach(view, 1 << view.index[src], view.mask_of(z))))


class TestDConnected:
    def test_chain_blocked_by_middle(self):
        view = _view([("A", "B"), ("B", "C")])
        assert _reach(view, "A", {"B"}) == {"A", "B"}
        assert _reach(view, "A") == {"A", "B", "C"}

    def test_collider_activated_by_conditioning(self):
        view = _view([("A", "C"), ("B", "C")])
        assert "B" not in _reach(view, "A")
        assert "B" in _reach(view, "A", {"C"})

    def test_collider_activated_by_conditioned_descendant(self):
        view = _view([("A", "C"), ("B", "C"), ("C", "E")])
        assert "B" in _reach(view, "A", {"E"})

    def test_fig4_d2_connected_to_c_given_pred_d4(self):
        d = figures.fig4()
        schema = canonical_schema(d)
        pred = schema.pred("D4")
        assert "C" in _reach(d.bare, "D2", (pred | {"D4"}) - {"D2"})

    def test_one_ball_from_several_sources(self):
        # A ball from every source arrives where a ball from any one does.
        view = _view([("A", "C"), ("B", "C"), ("C", "E"), ("F", "B")])
        both = active_reach(view, view.mask_of({"A", "F"}), view.mask_of({"C"}))
        assert set(view.ids_of(both)) == _reach(view, "A", {"C"}) | _reach(view, "F", {"C"})

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
        got = dst in _reach(view, src, z)
        want = bf_d_connected(view, src, dst, z)
        assert got == want
        assert moral_d_connected(arcs, src, {dst}, z) == want  # the test-side reference

    @pytest.mark.parametrize("seed", range(4))
    def test_views_of_random_draws(self, seed):
        """The ball on both views of a diagram, which number the carrier
        first and the value nodes after it, from several sources at once:
        it arrives where a simple active trail from some source ends.
        50 draws per seed, 200 in all."""
        rng = np.random.default_rng(seed)
        for _ in range(50):
            d = random_pid(rng, max_carrier=6, n_values=2)
            for view in (d.bare, d.graph):
                z = {v for v in view.node_ids if rng.random() < 0.3}
                free = [v for v in view.node_ids if v not in z]
                sources = set(rng.choice(free, size=min(len(free), int(rng.integers(1, 4))), replace=False))
                got = view.ids_of(active_reach(view, view.mask_of(sources), view.mask_of(z)))
                want = {v for v in view.node_ids if any(bf_d_connected(view, s, v, z) for s in sources)}
                assert set(got) == want, (d, sources, z)

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
        fwd = dst in _reach(view, src, z)
        bwd = src in _reach(view, dst, z)
        assert fwd == bwd


class TestDirectedPath:
    def test_fig3_decision_reaches_utility(self):
        view = figures.fig3().bare
        assert "U" in view.ids_of(view.descendants[view.index["D1"]])

    def test_fig2_d1_does_not_reach_u2_without_informational_arcs(self):
        view = figures.fig2().bare
        reached = view.ids_of(view.descendants[view.index["D1"]])
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
