import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from pidcheck import figures
from pidcheck.generate import random_pid
from pidcheck.model import (
    InvalidDiagram,
    Kind,
    Node,
    moral_view,
    strip_barren,
    strip_informational,
    validate,
    validate_nodes,
)


def _doc(nodes):
    return {"nodes": nodes}


class TestValidate:
    def test_fig1_is_valid(self):
        d = figures.fig1()
        assert len(d.nodes) == 10
        assert d.decision_ids == ("D1", "D2", "D3", "D4")

    def test_single_chance_node(self):
        d = validate(_doc([{"id": "A", "kind": "chance", "states": ["a"], "parents": []}]))
        assert d.ids == ("A",)

    def test_two_node_cycle(self):
        with pytest.raises(InvalidDiagram) as exc:
            validate(
                _doc(
                    [
                        {"id": "A", "kind": "chance", "states": ["x", "y"], "parents": ["B"]},
                        {"id": "B", "kind": "chance", "states": ["x", "y"], "parents": ["A"]},
                    ]
                )
            )
        assert any("cycle" in v for v in exc.value.violations)

    def test_long_cycle_reported_in_order(self):
        n = 1500
        nodes = [Node(f"C{i}", Kind.CHANCE, ("x", "y"), (f"C{(i - 1) % n}",)) for i in range(n)]
        with pytest.raises(InvalidDiagram) as exc:
            validate_nodes(nodes)
        expected = " -> ".join(f"C{i}" for i in range(n)) + " -> C0"
        assert exc.value.violations == ["cycle: " + expected]

    def test_all_violations_reported_not_just_first(self):
        with pytest.raises(InvalidDiagram) as exc:
            validate(
                _doc(
                    [
                        {"id": "A", "kind": "chance", "states": [], "parents": ["Z"]},
                        {"id": "A", "kind": "chance", "states": ["x"], "parents": []},
                        {"id": "V", "kind": "value", "parents": []},
                        {"id": "C", "kind": "chance", "states": ["x"], "parents": ["V"]},
                    ]
                )
            )
        text = "\n".join(exc.value.violations)
        assert "duplicate id" in text
        assert "dangling parent" in text
        assert "empty state list" in text
        assert "value node with child" in text

    def test_value_node_with_states_rejected(self):
        with pytest.raises(InvalidDiagram):
            validate(_doc([{"id": "V", "kind": "value", "states": ["x"], "parents": []}]))


class TestStripBarren:
    def test_childless_chance_removed(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("B", Kind.CHANCE, ("x", "y"), ("A",)),
                Node("V", Kind.VALUE, None, ("A",)),
            ]
        )
        stripped = strip_barren(d)
        assert stripped.ids == ("A", "V")

    def test_fixpoint_when_everything_feeds_a_value(self):
        d = figures.fig2()
        assert strip_barren(d) == d

    def test_chain_without_values_fully_removed(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("B", Kind.CHANCE, ("x", "y"), ("A",)),
                Node("C", Kind.CHANCE, ("x", "y"), ("B",)),
            ]
        )
        assert strip_barren(d).ids == ()

    def test_observed_chance_is_not_barren(self):
        # An informational arc counts as a child link.
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("V", Kind.VALUE, None, ("D",)),
            ]
        )
        assert strip_barren(d) == d

    @given(st.integers(0, 500))
    def test_idempotent_and_value_ancestors_kept(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        once = strip_barren(d)
        assert strip_barren(once) == once
        value_ancestors = set()
        for v in d.value_ids:
            for n in d.ids:
                if v in d.descendants(n):
                    value_ancestors.add(n)
        assert value_ancestors <= set(once.ids)


class TestStripInformational:
    def test_fig2_decisions_become_parentless(self):
        view = strip_informational(figures.fig2())
        assert view.parents_of("D1") == ()
        assert view.parents_of("D2") == ()

    def test_no_decisions_means_identity(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("B", Kind.CHANCE, ("x", "y"), ("A",)),
            ]
        )
        view = strip_informational(d)
        assert set(view.arc_list) == set(d.arcs())

    def test_keeps_chance_arc_drops_decision_arc(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("B", Kind.CHANCE, ("x", "y"), ("A",)),
            ]
        )
        view = strip_informational(d)
        assert ("A", "B") in view.arc_list
        assert ("A", "D") not in view.arc_list

    @given(st.integers(0, 500))
    def test_arcs_into_chance_and_value_preserved(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        view = strip_informational(d)
        expected = {
            (p, n.id) for n in d.nodes if n.kind is not Kind.DECISION for p in n.parents
        }
        assert set(view.arc_list) == expected


class TestMoralView:
    def test_fig2_b_connects_to_d1_only_through_a(self):
        moral = moral_view(figures.fig2())
        assert moral.neighbors_of("B") == ("A",)
        assert moral.has_edge("A", "C")  # co-parents of W
        assert moral.has_edge("C", "D1")  # co-parents of U1
        assert not moral.has_edge("B", "D1")

    def test_single_value_over_decision_and_chance(self):
        d = validate_nodes(
            [
                Node("C", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("V", Kind.VALUE, None, ("D", "C")),
            ]
        )
        moral = moral_view(d)
        assert moral.has_edge("D", "C")
        assert "V" not in moral.node_ids

    def test_three_coparents_become_a_triangle(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("B", Kind.CHANCE, ("x", "y"), ()),
                Node("C", Kind.CHANCE, ("x", "y"), ()),
                Node("W", Kind.CHANCE, ("x", "y"), ("A", "B", "C")),
                Node("V", Kind.VALUE, None, ("W",)),
            ]
        )
        moral = moral_view(d)
        for a, b in [("A", "B"), ("A", "C"), ("B", "C")]:
            assert moral.has_edge(a, b)

    @given(st.integers(0, 500))
    def test_symmetric_and_covers_stripped_arcs(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        moral = moral_view(d)
        for a, b in moral.arc_list:
            assert (b, a) in moral.arc_list
        bare = strip_informational(d)
        for t, h in bare.arc_list:
            if d.kind(t) is not Kind.VALUE and d.kind(h) is not Kind.VALUE:
                assert moral.has_edge(t, h)
