import pathlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    all_arcs,
    bare_arcs,
    bf_reachable,
    reference_document_violations,
    reference_node_violations,
    with_arcs,
)
from pidcheck import figures
from pidcheck.cli import load_file
from pidcheck.generate import random_pid
from pidcheck.model import (
    InvalidDiagram,
    Kind,
    Node,
    moral_view,
    validate,
    validate_nodes,
)
from pidcheck.ordering import induce_partial_order

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def _children(view, v):
    return view.ids_of(view.children[view.index[v]])


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


def _violations(fn):
    with pytest.raises(InvalidDiagram) as exc:
        fn()
    return exc.value.violations


class TestWithArcs:
    """`validate_nodes` on a diagram's nodes with arcs appended, the edit
    by which tests build a diagram plus an arc (`conftest.with_arcs`): each
    violation has its text, and an arc set is accepted iff it gives no
    value node a child and closes no cycle."""

    @pytest.mark.parametrize(
        "arcs, expected",
        [
            ([("Z", "D1")], ["dangling parent: arc ('Z', 'D1')"]),
            ([("V", "D2")], ["value node with child: arc ('V', 'D2')"]),
            ([("E", "E")], ["cycle: E -> E"]),
            ([("E", "F"), ("F", "E")], ["cycle: E -> F -> E"]),
        ],
        ids=["dangling-tail", "value-tail", "self-loop", "two-arc-cycle"],
    )
    def test_each_violation_has_the_validate_nodes_text(self, arcs, expected):
        d = figures.fig1()
        assert _violations(lambda: with_arcs(d, arcs)) == expected

    def test_each_arc_of_the_two_arc_cycle_is_valid_alone(self):
        d = figures.fig1()
        for tail, head in [("E", "F"), ("F", "E")]:
            edited = with_arcs(d, [(tail, head)])
            assert edited.parents(head) == d.parents(head) + (tail,)
            assert set(edited.arcs()) == set(d.arcs()) | {(tail, head)}

    def test_value_node_into_value_node_is_rejected(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("U", Kind.VALUE, None, ("A",)),
                Node("W", Kind.VALUE, None, ("A",)),
            ]
        )
        assert _violations(lambda: with_arcs(d, [("U", "W")])) == ["value node with child: arc ('U', 'W')"]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_validate_nodes_on_random_arcs(self, seed):
        # Fixtures and 20 draws per seed, 200 in all, with random arc sets
        # that may or may not be valid, against reachability over the
        # parent lists.
        rng = np.random.default_rng(seed)
        diagrams = [random_pid(rng, max_carrier=8, max_decisions=4) for _ in range(20)]
        if seed == 0:
            diagrams += [load_file(str(p))[0] for p in sorted(FIXTURES.glob("*.pid"))]
        valid = 0
        for d in diagrams:
            for _ in range(5):
                k = int(rng.integers(1, 4))
                arcs = [tuple(map(str, rng.choice(d.ids, size=2))) for _ in range(k)]
                wanted = set(all_arcs(d)) | set(arcs)
                value_tails = [(t, h) for t, h in arcs if d.kind(t) is Kind.VALUE]
                cyclic = any(t in bf_reachable(wanted, {h}) | {h} for t, h in arcs)
                if value_tails or cyclic:
                    violations = _violations(lambda: with_arcs(d, arcs))
                    if value_tails:
                        assert {f"value node with child: arc {a}" for a in value_tails} <= set(violations)
                    else:
                        assert len(violations) == 1 and violations[0].startswith("cycle: ")
                    continue
                assert set(with_arcs(d, arcs).arcs()) == wanted
                valid += 1
        assert valid >= 20


def _raised(fn) -> list[str]:
    """The violations ``fn`` raises, or [] if it returns."""
    try:
        fn()
    except InvalidDiagram as exc:
        return exc.violations
    return []


@st.composite
def malformed_nodes(draw):
    """Node lists with duplicate ids, duplicate, dangling and value parents,
    bad state lists, and arcs that may close cycles reachable from several
    roots."""
    pool = ["A", "B", "C", "D", "E", "F", "G"]
    nodes = []
    for node_id in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7)):
        kind = draw(st.sampled_from(list(Kind)))
        states = draw(st.sampled_from([None, (), ("x",), ("x", "y"), ("x", "x")]))
        if draw(st.integers(0, 3)):  # mostly well-formed states
            states = None if kind is Kind.VALUE else ("x", "y")
        parents = draw(st.lists(st.sampled_from(pool + ["Z"]), max_size=3))
        nodes.append(Node(node_id, kind, states, tuple(parents)))
    return nodes


class TestLoaderAgainstReference:
    """One-pass validation against the separate passes it replaced: the
    same violations, in the same order and text."""

    @given(malformed_nodes())
    @settings(max_examples=400)
    def test_node_violations(self, nodes):
        assert _raised(lambda: validate_nodes(nodes)) == reference_node_violations(nodes)

    @pytest.mark.parametrize("seed", range(4))
    def test_cycles_from_several_roots(self, seed):
        # Random arcs over random draws: cycles anywhere, reached from
        # roots earlier and later in declaration order.
        rng = np.random.default_rng(seed)
        cyclic = 0
        for _ in range(50):
            d = random_pid(rng, max_carrier=8, max_decisions=4)
            parents = {n.id: list(n.parents) for n in d.nodes}
            for _ in range(int(rng.integers(1, 5))):
                t, h = (str(x) for x in rng.choice(d.carrier_ids, size=2))
                if t not in parents[h]:
                    parents[h].append(t)
            nodes = [Node(n.id, n.kind, n.states, tuple(parents[n.id])) for n in d.nodes]
            expected = reference_node_violations(nodes)
            cyclic += bool(expected)
            assert _raised(lambda: validate_nodes(nodes)) == expected
        assert cyclic >= 10

    @given(st.lists(st.one_of(
        st.fixed_dictionaries({
            "id": st.sampled_from(["A", "B", "", "\ud800", "Ä", 3, None]),
            "kind": st.sampled_from(["chance", "decision", "value", "utility", 1, None, ["chance"]]),
        }, optional={
            "states": st.one_of(st.none(), st.lists(st.sampled_from(["x", "y", "\udfff", 0]), max_size=3), st.just("xy")),
            "parents": st.one_of(st.lists(st.sampled_from(["A", "B", "Z", "\ud800", 0]), max_size=3), st.just({})),
        }),
        st.integers(), st.lists(st.integers(), max_size=1),
    ), max_size=6))
    @settings(max_examples=400)
    def test_document_violations(self, raw_nodes):
        doc = {"nodes": raw_nodes}
        assert _raised(lambda: validate(doc)) == reference_document_violations(doc)


class TestGraphView:
    """Each diagram's two views against brute-force reachability over its
    parent lists, and their numbering against the partial order's."""

    @staticmethod
    def _assert_matches_brute_force(d, rng):
        po = induce_partial_order(d)
        for view, arcs in ((d.graph, all_arcs(d)), (d.bare, bare_arcs(d))):
            assert view.node_ids == d.carrier_ids + d.value_ids
            for v in d.carrier_ids:
                assert po.index[v] == view.index[v], v
            for v in d.ids:
                i = view.index[v]
                assert set(view.ids_of(view.parents[i])) == {t for t, h in arcs if h == v}, v
                assert set(_children(view, v)) == {h for t, h in arcs if t == v}, v
                assert set(view.ids_of(view.descendants[i])) == bf_reachable(arcs, {v}), v
            size = int(rng.integers(0, min(4, len(d.ids)) + 1))
            seeds = set(rng.choice(d.ids, size=size, replace=False))
            assert set(view.ids_of(view.mask_of(seeds))) == seeds

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_fixtures(self, path):
        self._assert_matches_brute_force(load_file(str(path))[0], np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(4))
    def test_random_draws(self, seed):
        # 50 draws per seed, 200 in all
        rng = np.random.default_rng(seed)
        for _ in range(50):
            self._assert_matches_brute_force(random_pid(rng, max_carrier=8, max_decisions=4), rng)

    def test_views_are_built_once_and_descendants_are_frozen(self):
        d = figures.fig8()
        assert d.graph is d.graph and d.bare is d.bare
        assert d.graph.arc_list == d.arcs()
        desc = d.bare.descendants
        assert type(desc) is tuple
        assert d.bare.descendants is desc


class TestStripInformational:
    def test_fig2_decisions_become_parentless(self):
        view = figures.fig2().bare
        assert view.parents[view.index["D1"]] == 0
        assert view.parents[view.index["D2"]] == 0

    def test_no_decisions_means_identity(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("B", Kind.CHANCE, ("x", "y"), ("A",)),
            ]
        )
        view = d.bare
        assert set(view.arc_list) == set(d.arcs())

    def test_keeps_chance_arc_drops_decision_arc(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("B", Kind.CHANCE, ("x", "y"), ("A",)),
            ]
        )
        view = d.bare
        assert ("A", "B") in view.arc_list
        assert ("A", "D") not in view.arc_list

    @given(st.integers(0, 500))
    def test_arcs_into_chance_and_value_preserved(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        view = d.bare
        expected = {
            (p, n.id) for n in d.nodes if n.kind is not Kind.DECISION for p in n.parents
        }
        assert set(view.arc_list) == expected


class TestMoralView:
    def test_fig2_b_connects_to_d1_only_through_a(self):
        moral = moral_view(figures.fig2())
        assert _children(moral, "B") == ("A",)
        assert "C" in _children(moral, "A")  # co-parents of W
        assert "D1" in _children(moral, "C")  # co-parents of U1
        assert "D1" not in _children(moral, "B")

    def test_single_value_over_decision_and_chance(self):
        d = validate_nodes(
            [
                Node("C", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("V", Kind.VALUE, None, ("D", "C")),
            ]
        )
        moral = moral_view(d)
        assert "C" in _children(moral, "D")
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
            assert b in _children(moral, a)

    @given(st.integers(0, 500))
    def test_symmetric_and_covers_stripped_arcs(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        moral = moral_view(d)
        for a, b in moral.arc_list:
            assert (b, a) in moral.arc_list
        bare = d.bare
        for t, h in bare.arc_list:
            if d.kind(t) is not Kind.VALUE and d.kind(h) is not Kind.VALUE:
                assert h in _children(moral, t)
