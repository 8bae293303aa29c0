import gc
import itertools
import pathlib
import time
import weakref

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    all_admissible_orders,
    is_admissible,
    naive_base_pairs,
    naive_partial_order,
    schema_of,
    swap_graph_connected,
    w_family,
)
from pidcheck import analysis, figures, ordering
from pidcheck.cli import load_file
from pidcheck.generate import random_pid
from pidcheck.model import Kind, Node, bits, validate_nodes
from pidcheck.ordering import (
    InconsistentOrder,
    base_closure,
    enumerate_schemas,
    induce_partial_order,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture(scope="module")
def fig1_po():
    return induce_partial_order(figures.fig1())


class TestInducePartialOrder:
    def test_fig1_caption_relations(self, fig1_po):
        po = fig1_po
        assert "D1" in po.succ["B"]
        for x in ["E", "F", "G", "D2", "D4"]:
            assert x in po.succ["D1"]
            assert "H" in po.succ[x]
        assert "H" in po.succ["D3"]

    def test_fig1_full_relation_frozen(self, fig1_po):
        expected = {
            "B": {"D1", "E", "F", "G", "D2", "D3", "D4", "H"},
            "D1": {"E", "F", "G", "D2", "D3", "D4", "H"},
            "E": {"D2", "D3", "D4", "H"},
            "F": {"D2", "D3", "H"},
            "G": {"D2", "D3", "D4", "H"},
            "D2": {"H"},
            "D3": {"H"},
            "D4": {"H"},
            "H": set(),
        }
        assert {x: set(fig1_po.succ[x]) for x in fig1_po.carrier} == expected

    def test_observed_parent_precedes_decision(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("V", Kind.VALUE, None, ("D",)),
            ]
        )
        assert "D" in induce_partial_order(d).succ["A"]

    def test_unobserved_chance_follows_the_decision(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("V", Kind.VALUE, None, ("D", "A")),
            ]
        )
        assert "A" in induce_partial_order(d).succ["D"]

    def test_inconsistent_order_detected(self):
        # Clause (d) fires for two candidate pairs simultaneously; their
        # closure orders two other nodes both ways.
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("X", Kind.CHANCE, ("x", "y"), ()),
                Node("Di", Kind.DECISION, ("d1", "d2"), ("X",)),
                Node("Dk", Kind.DECISION, ("d1", "d2"), ("A",)),
                Node("Dj", Kind.DECISION, ("d1", "d2"), ("X", "Dk")),
                Node("Dj2", Kind.DECISION, ("d1", "d2"), ("A", "Di")),
            ]
        )
        with pytest.raises(InconsistentOrder, match="inconsistent order"):
            induce_partial_order(d)

    @given(st.integers(0, 400))
    def test_agrees_with_naive_fixpoint(self, seed):
        rng = np.random.default_rng(seed)
        d = random_pid(rng, max_carrier=7)
        _assert_agrees_with_naive(d, ())
        for n in (1, 2, 3):
            _assert_agrees_with_naive(d, _random_pairs(rng, d, n))

    def test_contradictory_extra_pairs(self):
        # Random extra pairs close a cycle often enough that both outcomes
        # are compared many times.
        outcomes = {True: 0, False: 0}
        for seed in range(300):
            rng = np.random.default_rng(seed)
            d = random_pid(rng, max_carrier=8, max_decisions=4)
            for n in (1, 2, 4):
                outcomes[_assert_agrees_with_naive(d, _random_pairs(rng, d, n))] += 1
        assert outcomes[True] >= 100 and outcomes[False] >= 100

    def test_inconsistency_names_the_first_node_in_declaration_order(self):
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("B", Kind.CHANCE, ("x", "y"), ()),
                Node("D", Kind.DECISION, ("d1", "d2"), ("B",)),
                Node("V", Kind.VALUE, None, ("D", "A")),
            ]
        )
        # B < D by clause (a), so (D, B) closes a cycle; D < A by clause (c)
        with pytest.raises(InconsistentOrder) as caught:
            induce_partial_order(d, [("D", "B")])
        assert str(caught.value) == "inconsistent order: 'B' precedes itself"
        assert "A" in induce_partial_order(d).succ["D"]

    def test_unknown_node_in_extra_pair(self):
        with pytest.raises(ValueError, match=r"constraint \('B', 'Z'\) references unknown node"):
            induce_partial_order(figures.fig1(), [("B", "Z")])

    def test_shared_base_closure_gives_the_same_orders(self):
        d = w_family(3, shared=True)
        base = ordering.base_closure(d)
        for extra in ([], [("D0", "S1")], [("S1", "D0"), ("D2", "S0")], [("D0", "S0")]):
            try:
                alone = induce_partial_order(d, extra)
            except InconsistentOrder as exc:
                with pytest.raises(InconsistentOrder, match=str(exc)):
                    induce_partial_order(d, extra, base)
                continue
            assert induce_partial_order(d, extra, base).masks == alone.masks

    @staticmethod
    def _assert_base_closure_is_naive(d):
        pairs = {(x, y) for x, succ in ordering.base_closure(d).succ.items() for y in succ}
        assert pairs == naive_base_pairs(d)

    @pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
    def test_base_closure_on_fixtures(self, name):
        self._assert_base_closure_is_naive(figures.ALL_FIGURES[name]())

    @pytest.mark.parametrize("shared", [False, True, "mixed", "coupled"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_base_closure_on_w_families(self, k, shared):
        self._assert_base_closure_is_naive(w_family(k, shared))

    def test_base_closure_on_random_draws(self):
        # Closing clauses (a) and (b) needs no transitive-closure pass
        # (ordering docstring); the naive fixpoint agrees.
        for seed in range(500):
            self._assert_base_closure_is_naive(
                random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            )

    @staticmethod
    def _assert_order_and_pairs_are_naive(d):
        """The induced order is the naive fixpoint, ``before`` is its
        transpose, and the incompatible pairs, with and without
        chance-chance pairs, are those of a scan of every pair of the naive
        relation in declaration order."""
        naive = naive_partial_order(d)
        po = induce_partial_order(d)
        assert {x: set(po.succ[x]) for x in po.carrier} == naive
        _assert_before_is_transpose(po)
        pairs = [
            (x, y) for x, y in itertools.combinations(po.carrier, 2) if y not in naive[x] and x not in naive[y]
        ]
        assert po.incompatible_pairs(with_decision_only=False) == tuple(pairs)
        assert po.incompatible_pairs() == tuple(
            (x, y) for x, y in pairs if Kind.DECISION in (d.kind(x), d.kind(y))
        )

    @pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
    def test_order_and_pairs_on_fixtures(self, name):
        self._assert_order_and_pairs_are_naive(figures.ALL_FIGURES[name]())

    @pytest.mark.parametrize("shared", [False, True, "mixed", "coupled"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_order_and_pairs_on_w_families(self, k, shared):
        self._assert_order_and_pairs_are_naive(w_family(k, shared))

    def test_order_and_pairs_on_random_draws(self):
        # Clause (c) is added as one product, and the pair listing scans
        # only the pairs with a decision at one end.
        for seed in range(500):
            self._assert_order_and_pairs_are_naive(
                random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            )

    def test_no_base_closure_outlives_its_diagram(self, monkeypatch):
        closures = []
        closure = ordering.base_closure

        def recorded(d):
            out = closure(d)
            closures.append(weakref.ref(out))
            return out

        monkeypatch.setattr(ordering, "base_closure", recorded)
        monkeypatch.setattr(analysis, "base_closure", recorded)
        d = w_family(3, shared=True)
        base = analysis.Analysis(d)
        report = base.check()
        assert analysis.suggest_resolutions(d, report, analysis=base)
        induce_partial_order(d, [("D0", "S1")])
        diagram = weakref.ref(d)
        del d, base, report
        gc.collect()
        assert diagram() is None
        assert len(closures) == 2 and all(ref() is None for ref in closures)

    def test_masks_and_succ_agree(self, fig1_po):
        po = fig1_po
        for i, x in enumerate(po.carrier):
            assert po.index[x] == i
            assert set(po.succ[x]) == {y for j, y in enumerate(po.carrier) if po.masks[i] >> j & 1}

    @given(st.integers(0, 400))
    def test_transitive_and_antisymmetric(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        po = induce_partial_order(d)
        for x, y, z in itertools.product(po.carrier, repeat=3):
            if x != y and y != z and y in po.succ[x] and z in po.succ[y]:
                assert z in po.succ[x]
        for x, y in itertools.combinations(po.carrier, 2):
            assert not (y in po.succ[x] and x in po.succ[y])


def _random_pairs(rng, d, n: int) -> list[tuple[str, str]]:
    """``n`` random pairs of distinct carrier nodes."""
    carrier = d.carrier_ids
    if len(carrier) < 2:
        return []
    return [tuple(carrier[i] for i in rng.choice(len(carrier), 2, replace=False)) for _ in range(n)]


def _assert_agrees_with_naive(d, extra) -> bool:
    """The induced order under ``extra`` is the naive fixpoint, with
    ``before`` its transpose, or, iff the fixpoint orders some node before
    itself, induction raises and names the first such node in declaration
    order.  Returns whether it raised."""
    naive = naive_partial_order(d, extra)
    cyclic = [x for x in d.carrier_ids if x in naive[x]]
    if cyclic:
        with pytest.raises(InconsistentOrder) as caught:
            induce_partial_order(d, extra)
        assert str(caught.value) == f"inconsistent order: {cyclic[0]!r} precedes itself"
        return True
    po = induce_partial_order(d, extra)
    assert {x: set(po.succ[x]) for x in po.carrier} == naive
    _assert_before_is_transpose(po)
    return False


def _assert_before_is_transpose(po) -> None:
    """Bit i of ``po.before[j]`` is set iff bit j of ``po.masks[i]`` is."""
    n = len(po.carrier)
    assert len(po.before) == n
    for i, j in itertools.product(range(n), repeat=2):
        assert po.before[j] >> i & 1 == po.masks[i] >> j & 1, (po.carrier[i], po.carrier[j])


class TestTranspose:
    """``before``, built with the order, against the masks it transposes,
    one ordered pair at a time."""

    @staticmethod
    def _assert_transposes(d) -> None:
        base = base_closure(d)
        for po in (base, induce_partial_order(d, base=base)):
            _assert_before_is_transpose(po)

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_fixtures(self, path):
        self._assert_transposes(load_file(str(path))[0])

    def test_random_draws(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            self._assert_transposes(random_pid(rng))

    @pytest.mark.parametrize("name", ["fig6", "fig7", "fig8", "w3-shared"])
    def test_every_constrained_order_of_suggest(self, monkeypatch, name):
        d = w_family(3, shared=True) if name == "w3-shared" else getattr(figures, name)()
        orders = []

        def induce(*args, **kwargs):
            orders.append(induce_partial_order(*args, **kwargs))
            return orders[-1]

        monkeypatch.setattr(analysis, "induce_partial_order", induce)
        a = analysis.Analysis(d)
        analysis.suggest_resolutions(d, a.check(), analysis=a)
        assert len(orders) > 1
        for po in orders:
            _assert_before_is_transpose(po)

    def test_long_chain_pays_no_pair_at_a_time(self, monkeypatch):
        # 1,200 decisions, each observing the one before: 720,000 ordered
        # pairs.  The transpose comes with the order, a few bit steps per
        # arc and per added pair, and reading it costs nothing more.
        nodes = [Node("D0", Kind.DECISION, ("a", "b"), ())]
        nodes += [Node(f"D{i}", Kind.DECISION, ("a", "b"), (f"D{i - 1}",)) for i in range(1, 1200)]
        d = validate_nodes(nodes + [Node("U", Kind.VALUE, None, ("D1199",))])
        steps = []

        def counting_bits(mask):
            for i in bits(mask):
                steps.append(i)
                yield i

        monkeypatch.setattr(ordering, "bits", counting_bits)
        before = induce_partial_order(d).before
        assert len(steps) < 20_000, len(steps)
        monkeypatch.undo()
        assert before[1199] == (1 << 1199) - 1 and before[0] == 0
        best = min(self._timed(lambda: induce_partial_order(d).before) for _ in range(3))
        assert best < 0.05, best

    @staticmethod
    def _timed(fn) -> float:
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0


class TestIncompatibility:
    def test_fig1_caption_pairs(self, fig1_po):
        for a, b in [("D2", "D3"), ("D2", "D4"), ("D3", "D4"), ("F", "D4")]:
            assert fig1_po.incompatible(a, b)
        assert not fig1_po.incompatible("D1", "D4")

    def test_fig1_decision_pair_listing_exact(self, fig1_po):
        assert set(fig1_po.incompatible_pairs()) == {
            ("F", "D4"),
            ("D2", "D3"),
            ("D2", "D4"),
            ("D3", "D4"),
        }



class TestAdmissibility:
    def test_ordering_that_contradicts_d1_before_d2(self, fig1_po):
        order = ["E", "F", "D2", "B", "D1", "G", "D4", "D3", "H"]
        assert not is_admissible(fig1_po, order)

    def test_topological_order_is_admissible(self, fig1_po):
        order = ["B", "D1", "E", "F", "G", "D2", "D3", "D4", "H"]
        assert is_admissible(fig1_po, order)
        # (F, D4) is incompatible, so either may come first
        assert is_admissible(fig1_po, ["B", "D1", "E", "G", "F", "D4", "D2", "D3", "H"])
        assert is_admissible(fig1_po, ["B", "D1", "E", "G", "D4", "F", "D2", "D3", "H"])

    def test_reverse_of_constrained_order_is_not(self, fig1_po):
        order = ["B", "D1", "E", "F", "G", "D2", "D3", "D4", "H"]
        assert not is_admissible(fig1_po, list(reversed(order)))


class TestSchemas:
    def test_classic_diagram_has_one_schema(self):
        assert len(list(enumerate_schemas(figures.fig2()))) == 1
        assert len(list(enumerate_schemas(figures.fig4()))) == 1

    def test_two_incompatible_decisions_two_schemas(self):
        d = validate_nodes(
            [
                Node("Da", Kind.DECISION, ("d1", "d2"), ()),
                Node("Db", Kind.DECISION, ("d1", "d2"), ()),
                Node("V", Kind.VALUE, None, ("Da", "Db")),
            ]
        )
        schemas = list(enumerate_schemas(d))
        assert [s.decision_sequence for s in schemas] == [("Da", "Db"), ("Db", "Da")]

    def test_fig1_count_matches_brute_force(self, fig1_po):
        d = figures.fig1()
        schemas = list(enumerate_schemas(d, fig1_po))
        brute = {schema_of(d, order) for order in all_admissible_orders(fig1_po)}
        assert set(schemas) == brute
        assert len(schemas) == len(set(schemas)) == 8

    def test_every_schema_order_is_admissible_and_partition_holds(self, fig1_po):
        d = figures.fig1()
        schemas = list(enumerate_schemas(d, fig1_po))
        for s in schemas:
            assert is_admissible(fig1_po, s.induced_order())
        # every admissible order maps to exactly one enumerated schema
        schema_set = set(schemas)
        for order in all_admissible_orders(fig1_po):
            assert schema_of(d, order) in schema_set

    def test_same_schema_iff_within_slot_swap(self, fig1_po):
        d = figures.fig1()
        base = ("B", "D1", "E", "F", "G", "D2", "D3", "D4", "H")
        chance_swapped = ("B", "D1", "F", "E", "G", "D2", "D3", "D4", "H")
        decision_swapped = ("B", "D1", "E", "F", "G", "D3", "D2", "D4", "H")
        assert schema_of(d, base) == schema_of(d, chance_swapped)
        assert schema_of(d, base) != schema_of(d, decision_swapped)

    @given(st.integers(0, 200))
    @settings(max_examples=25)
    def test_partition_property_random(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        po = induce_partial_order(d)
        schemas = set(enumerate_schemas(d, po))
        seen = set()
        for order in all_admissible_orders(po):
            s = schema_of(d, order)
            assert s in schemas
            seen.add(s)
        assert seen == schemas


class TestPredSet:
    def test_first_decision_with_empty_slot(self):
        d = figures.fig6()
        schema = next(s for s in enumerate_schemas(d) if s.slot_of["A"] == 1)
        assert schema.pred("D") == frozenset()

    def test_classic_no_forgetting_past(self):
        d = figures.fig2()
        schema = next(iter(enumerate_schemas(d)))
        assert schema.pred("D2") == frozenset({"B", "D1", "A"})

    def test_fig1_matches_brute_force_on_induced_order(self, fig1_po):
        d = figures.fig1()
        target = next(
            s
            for s in enumerate_schemas(d, fig1_po)
            if s.decision_sequence == ("D1", "D2", "D4", "D3")
        )
        order = target.induced_order()
        before = frozenset(order[: order.index("D4")])
        assert target.pred("D4") == before == frozenset({"B", "D1", "E", "F", "G", "D2"})


class TestSwapGraphConnectivity:
    @given(st.integers(0, 150))
    @settings(max_examples=30)
    def test_swap_graph_connected_small(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=6)
        po = induce_partial_order(d)
        assert swap_graph_connected(po)


class TestValueSemantics:
    def test_orders_of_one_diagram_compare_by_carrier(self, fig1_po):
        other = induce_partial_order(figures.fig1(), [("D2", "D3")])
        assert other.masks != fig1_po.masks
        assert other == fig1_po and hash(other) == hash(fig1_po)
        assert other != induce_partial_order(figures.fig3())

    def test_equal_schemas_are_interchangeable_keys(self):
        d = figures.fig1()
        first, second = list(enumerate_schemas(d)), list(enumerate_schemas(d))
        assert all(a is not b and a == b and hash(a) == hash(b) for a, b in zip(first, second))
        by_schema = {s: i for i, s in enumerate(first)}
        assert [by_schema[s] for s in second] == [first.index(s) for s in second] == list(range(len(first)))
        assert len(set(first)) == len(first)

    def test_schema_repr_and_cached_order(self):
        schema = ordering.OrderSchema(("D1", "D2"), (("A", 0), ("B", 2)))
        assert repr(schema) == "OrderSchema(decision_sequence=('D1', 'D2'), slots=(('A', 0), ('B', 2)))"
        assert schema.induced_order() == ("A", "D1", "D2", "B")
        assert schema.induced_order() is schema.induced_order()
