import pathlib
import sys
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    ReferenceRules,
    exact_witnesses,
    full_stream_pair_schemas,
    reference_significant,
    reference_suggest,
    replay_witness,
    significance_search,
    w_family,
    w_family_expected,
    with_arcs,
)
import pidcheck.analysis
from pidcheck import figures, ordering
from pidcheck.analysis import (
    Analysis,
    ScanBudgetExceeded,
    check_welldefined,
    suggest_resolutions,
)
from pidcheck.cli import load_file, main
from pidcheck.dsep import bayes_ball_requisite, elimination_neighbors
from pidcheck.generate import random_classic_id, random_pid
from pidcheck.model import Kind, Node, validate_nodes
from pidcheck.ordering import (
    InconsistentOrder,
    canonical_schema,
    decision_sequences,
    enumerate_schemas,
    induce_partial_order,
)


FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def schema_with_order(d, order):
    return next(s for s in enumerate_schemas(d) if s.induced_order() == tuple(order))


class TestRelevantUtilities:
    def test_fig3_direct_path(self):
        d = figures.fig3()
        assert Analysis(d).relevant_utilities(canonical_schema(d), "D1") == frozenset({"U"})

    def test_fig4_both_utilities_for_first_decision(self):
        d = figures.fig4()
        assert Analysis(d).relevant_utilities(canonical_schema(d), "D1") == frozenset({"U", "Up"})

    def test_fig5_both_utilities_through_influenced_observation(self):
        d = figures.fig5()
        assert Analysis(d).relevant_utilities(canonical_schema(d), "D1") == frozenset({"U", "Up"})

    def test_no_path_no_later_decision_gives_empty(self):
        d = validate_nodes(
            [
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("A", Kind.CHANCE, ("x", "y"), ()),
                Node("V", Kind.VALUE, None, ("A",)),
                Node("S", Kind.CHANCE, ("x", "y"), ("D",)),
            ]
        )
        assert Analysis(d).relevant_utilities(canonical_schema(d), "D") == frozenset()

    def test_fig2_future_payoff_not_relevant_for_d1(self):
        d = figures.fig2()
        analysis, schema = Analysis(d), canonical_schema(d)
        assert analysis.relevant_utilities(schema, "D1") == frozenset({"U1"})
        assert analysis.relevant_utilities(schema, "D2") == frozenset({"U2"})

    def test_rule1_subset_property(self):
        # every utility with a bare directed path is in the relevant set
        for name in ["fig1", "fig2", "fig4", "fig5", "fig7", "fig8"]:
            d = figures.ALL_FIGURES[name]()
            analysis = Analysis(d)
            schema = canonical_schema(d, analysis.po)
            for dec in d.decision_ids:
                desc = d.bare.ids_of(d.bare.descendants[d.bare.index[dec]])
                rule1 = {v for v in d.value_ids if v in desc}
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
        d = figures.fig2()
        analysis, schema = Analysis(d), canonical_schema(d)
        assert "B" not in analysis.required_variables(schema, "D1")
        assert analysis.required_variables(schema, "D2") == frozenset({"A"})

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
            bound = bayes_ball_requisite(d, analysis.po, dec) & elimination_neighbors(d, dec, schema)
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

    @pytest.mark.parametrize(
        "clause, arcs, schemas, chain",
        [
            # E, which shares U with D, requires X through the collider C of
            # X and Y; C comes after D, so no trail reaches U given D's past.
            ("later-required", {"X": (), "Y": (), "D": (), "C": ("X", "Y", "D"), "E": ("C",),
                                "F": ("X",), "U": ("D", "E", "Y")}, 3, None),
            # E, which shares U with D, requires X's child Y through the
            # collider K of Y and W, and Y screens X off from E.
            ("later-chain", {"X": (), "W": (), "D": (), "Y": ("X",), "K": ("Y", "W", "D"),
                             "E": ("Y", "K"), "F": ("X",), "U": ("D", "E", "W")}, 5, "Y"),
        ],
        ids=["later-required", "later-chain"],
    )
    def test_later_clause_is_the_only_reason(self, clause, arcs, schemas, chain):
        # X is observed before F only, so it is incompatible with D, and on
        # every schema placing X just before D only the later clause fires.
        kinds = {"D": Kind.DECISION, "E": Kind.DECISION, "F": Kind.DECISION, "U": Kind.VALUE}
        d = validate_nodes([
            Node(v, kinds.get(v, Kind.CHANCE), None if v == "U" else ("s1", "s2"), parents)
            for v, parents in arcs.items()
        ])
        analysis, reference = Analysis(d), ReferenceRules(d)
        report = analysis.check()
        assert report.witnesses == reference.witnesses()
        w = next(w for w in report.witnesses if (w.chance, w.decision) == ("X", "D"))
        assert (w.utility, w.clause, w.later_decision, w.chain_node) == ("U", clause, "E", chain)
        assert replay_witness(d, w)
        pinned = list(enumerate_schemas(d, analysis.po, pin=("X", "D")))
        assert len(pinned) == schemas
        for schema in pinned:
            assert reference.clause(schema, "D", "X") == (clause, "U", "E", chain)
            assert analysis.significant_rel(schema, "X", "D").clause == clause
        assert significance_search(d, "X", "D", trials=30, seed=2) is not None

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
        assert Analysis(d).is_significant("A", "D") is None

    def test_compatible_pair_rejected(self):
        d = figures.fig2()
        with pytest.raises(ValueError, match="pair not incompatible"):
            Analysis(d).is_significant("B", "D1")

    def test_fig1_f_d4_not_significant_and_modes_agree(self):
        # The significance pass and the reference's scan of every schema of
        # the pair agree.
        d = figures.fig1()
        assert Analysis(d).is_significant("F", "D4") is None
        reference = ReferenceRules(d)
        assert all(
            reference.clause(schema, "D4", "F") is None
            for schema in full_stream_pair_schemas(reference, "F", "D4")
        )
        assert ("F", "D4") not in {(w.chance, w.decision) for w in reference.witnesses()}

    def test_modes_agree_pairwise_on_the_corpus(self):
        # The single-pair query returns the reference's witness of the
        # pair, or None where the reference has none.
        for name, builder in figures.ALL_FIGURES.items():
            d = builder()
            analysis = Analysis(d)
            expected = {(w.chance, w.decision): w for w in ReferenceRules(d).witnesses()}
            for a, dec in analysis.po.incompatible_pairs():
                if d.kind(a) is not Kind.CHANCE or d.kind(dec) is not Kind.DECISION:
                    continue
                assert analysis.is_significant(a, dec) == expected.get((a, dec)), (name, a, dec)

    def test_single_pair_query_is_exact(self):
        # The first schema of each distinct past of D0 misses this witness:
        # the past alone does not fix D0's outcome class.
        d = random_pid(np.random.default_rng(153), max_carrier=8, max_decisions=4)
        w = Analysis(d).is_significant("X3", "D0")
        assert w is not None and replay_witness(d, w)
        assert ("X3", "D0") in check_welldefined(d).significant_pairs

    def test_fig6_pair_yields_witness(self):
        w = Analysis(figures.fig6()).is_significant("A", "D")
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


def _assert_pins_match_reference(analysis) -> int:
    """For every checked pair (A, D), the pinned schemas are exactly those
    that filtering the full schema stream yields, and the pinned decision
    sequences are the unpinned ones that put every decision before A ahead
    of D and D ahead of every decision after A; both in the same order.
    Returns the number of pairs compared."""
    d, po = analysis.diagram, analysis.po
    pairs = [(a, dec) for dec in d.decision_ids for a in d.chance_ids if po.incompatible(a, dec)]
    unpinned = list(decision_sequences(po))
    for a, dec in pairs:
        pinned = list(enumerate_schemas(d, po, pin=(a, dec)))
        assert pinned == list(full_stream_pair_schemas(analysis, a, dec)), (a, dec)
        hosts = [
            seq for seq in unpinned
            if all(seq.index(e) < seq.index(dec) for e in d.decision_ids if a in po.succ[e])
            and all(seq.index(dec) < seq.index(f) for f in d.decision_ids if f in po.succ[a])
        ]
        assert list(decision_sequences(po, pin=(a, dec))) == hosts, (a, dec)
    return len(pairs)


class TestPairSchemas:
    @pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
    def test_fixtures(self, name):
        _assert_pins_match_reference(Analysis(figures.ALL_FIGURES[name]()))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("shared", [False, True, "mixed", "coupled"])
    def test_w_family(self, k, shared):
        assert _assert_pins_match_reference(Analysis(w_family(k, shared))) == k * (k - 1)

    @pytest.mark.parametrize("name", ["w3_shared", "fig6", "fig7", "fig8", "two_witness"])
    def test_orders_the_repair_search_reaches(self, name):
        # A constrained order can lack a base pair (ROADMAP item 4), and
        # the pin reads the order's masks.
        d = w_family(3, shared=True) if name == "w3_shared" else figures.ALL_FIGURES[name]()
        base = Analysis(d)
        derived = 0
        for cs in {frozenset(cs) for cs in _reached_sets(d)}:
            try:
                analysis = base.constrained(cs)
            except InconsistentOrder:
                continue
            _assert_pins_match_reference(analysis)
            derived += 1
        assert derived > 0

    def test_random_draws(self):
        compared = 0
        for seed in range(1000):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            compared += _assert_pins_match_reference(Analysis(d))
        assert compared > 500


def _count_sequences(monkeypatch) -> list[int]:
    """Count the decision sequences read from `ordering.decision_sequences`,
    under every name a pidcheck module binds it to."""
    original = ordering.decision_sequences
    count = [0]

    def counted(*args, **kwargs):
        for seq in original(*args, **kwargs):
            count[0] += 1
            yield seq

    for name, module in list(sys.modules.items()):
        if name.startswith("pidcheck") and getattr(module, "decision_sequences", None) is original:
            monkeypatch.setattr(module, "decision_sequences", counted)
    return count


class TestWitnessRecoveryReads:
    """`check` reads at most one decision sequence per witness, plus the
    canonical schema's: on these families each witness fires on the first
    sequence that can host its pair.  Walking every sequence and skipping
    those that cannot host the pair reads 40,322 on mixed W(9)."""

    @pytest.mark.parametrize("k, shared", [(k, "mixed") for k in (6, 7, 8, 9)] + [(k, True) for k in (3, 4, 5, 6)])
    def test_check(self, monkeypatch, k, shared):
        d = w_family(k, shared)
        count = _count_sequences(monkeypatch)
        report = Analysis(d).check()
        assert report.witnesses
        assert count[0] <= len(report.witnesses) + 1


def fig6_copies(k: int):
    """``k`` disjoint copies of fig6, node ``v`` of copy i renamed ``v_i``."""
    nodes = [
        Node(f"{n.id}_{i}", n.kind, n.states, tuple(f"{p}_{i}" for p in n.parents))
        for i in range(k)
        for n in figures.fig6().nodes
    ]
    return validate_nodes(nodes)


class TestWideDiagrams:
    def test_check_work_grows_about_linearly_with_copies(self, monkeypatch):
        """Each copy of fig6 adds one significant pair and one pinned
        witness recovery.  Answering "which decisions come before x" from
        the order's transpose keeps the mask steps per copy about flat.
        Rescanning every decision for every chance node and sequence makes
        them grow with the number of copies: twice the copies take about
        7.5 times the steps."""
        steps = [0]
        original = ordering.bits

        def counted(mask):
            for j in original(mask):
                steps[0] += 1
                yield j

        monkeypatch.setattr(ordering, "bits", counted)
        monkeypatch.setattr(pidcheck.analysis, "bits", counted)
        work = {}
        for k in (40, 80):
            d = fig6_copies(k)
            steps[0] = 0
            report = Analysis(d).check()
            work[k] = steps[0]
            assert report.significant_pairs == tuple((f"A_{i}", f"D_{i}") for i in range(k))
        assert work[80] < 5 * work[40], work


# The only random_pid(max_carrier=8, max_decisions=4) seeds in 0-2999 on
# which the later-required clause fires; no seed there fires later-chain.
LATER_REQUIRED_SEEDS = (1724, 1814, 1974, 2509)


def _assert_matches_reference_rules(d) -> set[str]:
    """check().witnesses, then relevant_utilities and required_variables on
    every schema and decision, equal the reference's.  Returns the clauses
    behind the required variables."""
    analysis, reference = Analysis(d), ReferenceRules(d)
    assert analysis.check().witnesses == reference.witnesses()
    clauses = set()
    for schema in enumerate_schemas(d, analysis.po):
        for dec in d.decision_ids:
            assert analysis.relevant_utilities(schema, dec) == reference.relevant_utilities(schema, dec)
            required = reference.required_variables(schema, dec)
            assert analysis.required_variables(schema, dec) == required, (schema, dec)
            clauses.update(reference.clause(schema, dec, x)[0] for x in required)
    return clauses


class TestMatchesReferenceRules:
    """The rules memoized per outcome class and the significance pass give
    the answers of the reference's schema-by-schema rules and full scan."""

    @pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
    def test_fixtures(self, name):
        _assert_matches_reference_rules(figures.ALL_FIGURES[name]())

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("shared", [False, True, "mixed"])
    def test_w_family(self, k, shared):
        _assert_matches_reference_rules(w_family(k, shared))

    def test_random_draws(self):
        clauses = set()
        for seed in range(1000):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            clauses |= _assert_matches_reference_rules(d)
        assert "direct" in clauses

    @pytest.mark.parametrize("seed", LATER_REQUIRED_SEEDS)
    def test_draws_where_later_required_fires(self, seed):
        d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
        assert "later-required" in _assert_matches_reference_rules(d)


class TestSignificancePass:
    """One backward pass per bare component finds the significant pairs
    that one pass over the whole diagram finds."""

    @staticmethod
    def _assert_matches_reference(d) -> frozenset[tuple[str, str]]:
        significant = Analysis(d)._significant
        assert significant == reference_significant(Analysis(d))
        return significant

    @pytest.mark.parametrize("name", sorted(figures.ALL_FIGURES))
    def test_fixtures(self, name):
        self._assert_matches_reference(figures.ALL_FIGURES[name]())

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("shared", [False, True, "mixed"])
    def test_w_family(self, k, shared):
        self._assert_matches_reference(w_family(k, shared))

    @pytest.mark.parametrize("max_carrier, max_decisions", [(8, 4), (10, 5)])
    def test_random_draws(self, max_carrier, max_decisions):
        significant = 0
        for seed in range(1500):
            d = random_pid(np.random.default_rng(seed), max_carrier=max_carrier, max_decisions=max_decisions)
            significant += bool(self._assert_matches_reference(d))
        assert significant >= 100

    def test_chance_node_preceding_a_past_node_through_another_component(self):
        # E observes A and F observes X and E, so A < E < X, and E is alone
        # in its bare component.  With X in D's past, A cannot sit in the
        # slot immediately before D, although it precedes no decision of
        # D's component.
        binary = ("x", "y")
        d = validate_nodes(
            [
                Node("A", Kind.CHANCE, binary, ()),
                Node("W", Kind.CHANCE, binary, ()),
                Node("X", Kind.CHANCE, binary, ("A", "W")),
                Node("D", Kind.DECISION, binary, ()),
                Node("E", Kind.DECISION, binary, ("A",)),
                Node("F", Kind.DECISION, binary, ("X", "E")),
                Node("U", Kind.VALUE, None, ("W", "D")),
            ]
        )
        assert Analysis(d)._significant == {("X", "D")}
        assert check_welldefined(d).significant_pairs == (("X", "D"),)

    def test_derived_analysis_shares_the_components(self):
        base = Analysis(figures.two_witness_pid())
        derived = base.constrained([("precede", "D", "A"), ("observe", "A9", "D9")])
        assert derived._components is base._components
        assert derived._base is base._base

    @staticmethod
    def _assert_derived_match_reference(d, sets) -> dict:
        """Under each constraint set, the derived analysis's pass finds the
        pairs of the reference pass.  Returns the derived orders' ``succ``
        by constraint set, the inconsistent sets left out."""
        base = Analysis(d)
        orders = {}
        for cs in sets:
            try:
                derived = base.constrained(cs)
            except InconsistentOrder:
                continue
            assert derived._significant == reference_significant(Analysis(d).constrained(cs)), cs
            orders[frozenset(cs)] = derived.po.succ
        return orders

    @pytest.mark.parametrize("name", ["w3_shared", "fig6", "fig7", "fig8", "two_witness"])
    def test_orders_the_repair_search_reaches(self, name):
        d = w_family(3, shared=True) if name == "w3_shared" else figures.ALL_FIGURES[name]()
        sets = {frozenset(cs) for cs in _reached_sets(d)}
        assert sets
        self._assert_derived_match_reference(d, sets)

    def test_random_constraint_sets(self):
        # The sets the repair search reaches, and options of the checked
        # pairs, alone and two or three at a time.  Clause (d) has a
        # negative premise, so a set's order can lack a pair of the order
        # of one of its subsets (ROADMAP item 4); count those.
        lost = 0
        for seed in range(600):
            rng = np.random.default_rng(seed)
            d = random_pid(rng, max_carrier=8, max_decisions=4)
            pairs = Analysis(d).check().pairs_checked
            options = [o for a, dec in pairs for o in (("observe", a, dec), ("precede", dec, a))][:6]
            if not options:
                continue
            sets = [(o,) for o in options] + list({frozenset(cs) for cs in _reached_sets(d)})
            for n in (2, 2, 2, 3):
                if len(options) >= n:
                    sets.append(tuple(options[i] for i in rng.choice(len(options), n, replace=False)))
            orders = self._assert_derived_match_reference(d, sets)
            for cs, succ in orders.items():
                lost += any(
                    not succ[x] >= orders[frozenset({o})][x]
                    for o in cs
                    if frozenset({o}) in orders
                    for x in d.carrier_ids
                )
        assert lost >= 30


class TestRecords:
    def test_witness_and_report_are_immutable(self):
        report = check_welldefined(figures.fig6())
        witness = report.witnesses[0]
        with pytest.raises(AttributeError):
            witness.chance = "D"
        with pytest.raises(AttributeError):
            report.welldefined = True
        assert report == check_welldefined(figures.fig6())


class TestCheckWelldefined:
    @pytest.mark.parametrize(
        "shared, k",
        [(shared, k) for shared in (False, True) for k in (3, 4, 5, 6)]
        + [("mixed", k) for k in (4, 5, 6)]
        + [(False, 7), (False, 8), (False, 9), ("coupled", 7)],
    )
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

    def test_wide_slot_stops_at_the_state_cap(self):
        # D precedes none of the X_i, which D2 observes, so the slot after D
        # may take any subset of them: 2^17 states, past MAX_SCAN_STATES.
        # The arcs X_i -> V put the X_i in D's bare component.
        observed = [Node(f"X{i}", Kind.CHANCE, ("x", "y"), ()) for i in range(17)]
        d = validate_nodes(
            observed
            + [
                Node("D", Kind.DECISION, ("d1", "d2"), ()),
                Node("D2", Kind.DECISION, ("d1", "d2"), tuple(x.id for x in observed)),
                Node("V", Kind.VALUE, None, ("D", "D2") + tuple(x.id for x in observed)),
            ]
        )
        start = time.perf_counter()
        with pytest.raises(ScanBudgetExceeded, match="limit of 65536 states"):
            check_welldefined(d)
        assert time.perf_counter() - start < 5.0

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
        assert check_welldefined(d).witnesses == exact_witnesses(d)

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
        observed = with_arcs(d, [("A", "D")])
        assert check_welldefined(observed).welldefined
        assert Analysis(d).constrained([("precede", "D", "A")]).check().welldefined

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

    @pytest.mark.parametrize("name", ["fig6", "fig7", "fig8", "fig8_modified", "two_witness"])
    def test_matches_reference_on_fixtures(self, name):
        d = figures.ALL_FIGURES[name]()
        report = check_welldefined(d)
        assert not report.welldefined
        assert suggest_resolutions(d, report) == reference_suggest(d, report)

    def test_matches_reference_on_w3_shared(self):
        d = w_family(3, shared=True)
        report = check_welldefined(d)
        proposals = suggest_resolutions(d, report)
        assert len(proposals) == 152
        assert proposals == reference_suggest(d, report)

    def test_matches_reference_on_random_draws(self):
        ambiguous = 0
        for seed in range(3910):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            report = check_welldefined(d)
            if report.welldefined:
                continue
            ambiguous += 1
            assert suggest_resolutions(d, report) == reference_suggest(d, report), seed
        assert ambiguous >= 300

    def test_each_constraint_set_rechecked_once(self, monkeypatch):
        # The 158 rechecks of W(3)-shared reach 108 distinct constraint
        # sets; each is analysed once, every recheck still counts against
        # the budget, and no recheck builds or validates a diagram.
        import pidcheck.analysis
        import pidcheck.model

        d = w_family(3, shared=True)
        report = check_welldefined(d)
        tried, inconsistent = [], []
        constrained = Analysis.constrained
        diagrams = 0
        init = pidcheck.model.Diagram.__init__

        def record(self, constraints):
            tried.append(frozenset(constraints))
            try:
                return constrained(self, constraints)
            except InconsistentOrder:
                inconsistent.append(tried[-1])
                raise

        def build(self, nodes):
            nonlocal diagrams
            diagrams += 1
            init(self, nodes)

        monkeypatch.setattr(Analysis, "constrained", record)
        monkeypatch.setattr(pidcheck.model.Diagram, "__init__", build)
        proposals = suggest_resolutions(d, report)
        assert len(proposals) + 6 == 158  # six rechecks are inconsistent
        assert len(tried) == len(set(tried)) == 108
        assert set(tried) == {frozenset(p.constraints) for p in proposals} | set(inconsistent)
        assert diagrams == 0  # validate_nodes would build one too
        monkeypatch.setattr(pidcheck.analysis, "MAX_RECHECKS", 158)
        assert suggest_resolutions(d, report) == proposals
        monkeypatch.setattr(pidcheck.analysis, "MAX_RECHECKS", 157)
        with pytest.raises(pidcheck.analysis.RepairBudgetExceeded):
            suggest_resolutions(d, report)


def _reached_sets(d) -> list[tuple[tuple[str, str, str], ...]]:
    """The constraint tuples the repair search rechecks on ``d``, in order."""
    tried = []
    constrained = Analysis.constrained

    def record(self, constraints):
        tried.append(tuple(constraints))
        return constrained(self, constraints)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(Analysis, "constrained", record)
        suggest_resolutions(d, check_welldefined(d))
    return tried


class TestConstraintsArePairs:
    """A repair constraint is a base pair of the partial order: under every
    constraint set the repair search reaches, the derived order is the
    order induced on the diagram with the observe arcs added and the
    precede pairs as extra pairs, or both raise."""

    @staticmethod
    def _assert_same_order(d, sets):
        base = Analysis(d)
        for cs in sets:
            arcs = [(x, y) for kind, x, y in cs if kind == "observe"]
            extra = [(x, y) for kind, x, y in cs if kind == "precede"]
            try:
                expected = induce_partial_order(with_arcs(d, arcs), extra).succ
            except InconsistentOrder:
                with pytest.raises(InconsistentOrder):
                    base.constrained(cs)
                continue
            assert base.constrained(cs).po.succ == expected, cs

    @pytest.mark.parametrize("name", ["w3_shared", "fig6", "fig7", "fig8", "two_witness"])
    def test_fixtures_and_w3_shared(self, name):
        d = w_family(3, shared=True) if name == "w3_shared" else figures.ALL_FIGURES[name]()
        sets = _reached_sets(d)
        assert sets
        self._assert_same_order(d, sets)

    def test_random_draws(self):
        reached = 0
        for seed in range(600):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            sets = _reached_sets(d)
            self._assert_same_order(d, sets)
            reached += len(sets)
        assert reached >= 180


class TestFirstWitness:
    """`significant_pairs`, which each repair recheck and `fuzz` read, is
    the tuple of significant pairs of a full check, in its report order, so
    its first pair is that of the first witness."""

    @pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.pid")), ids=lambda p: p.stem)
    def test_fixtures(self, path):
        d, _ = load_file(str(path))
        assert Analysis(d).significant_pairs() == Analysis(d).check().significant_pairs

    @pytest.mark.parametrize("shared", [False, True, "mixed", "coupled"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_w_families(self, k, shared):
        d = w_family(k, shared)
        assert Analysis(d).significant_pairs() == Analysis(d).check().significant_pairs

    def test_random_draws_and_their_single_constraint_analyses(self):
        derived = 0
        for seed in range(1000):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            base = Analysis(d)
            report = Analysis(d).check()
            assert base.significant_pairs() == report.significant_pairs, seed
            for a, dec in report.pairs_checked:
                for option in (("observe", a, dec), ("precede", dec, a)):
                    try:
                        constrained = base.constrained([option])
                    except InconsistentOrder:
                        continue
                    expected = base.constrained([option]).check().significant_pairs
                    assert constrained.significant_pairs() == expected, (seed, option)
                    derived += 1
        assert derived >= 1000

    def test_constraint_order_does_not_matter(self):
        # Every tuple the repair search tries on W(3)-shared, against its
        # reverse: the same order and the same significant pairs.
        d = w_family(3, shared=True)
        base = Analysis(d)
        report = base.check()
        for p in suggest_resolutions(d, report):
            forward = base.constrained(p.constraints)
            backward = base.constrained(p.constraints[::-1])
            assert forward.po.succ == backward.po.succ
            assert forward.significant_pairs() == backward.significant_pairs()


def _count_recovery(monkeypatch) -> dict[str, int]:
    """Count the calls of `Analysis.significant_rel` and `Analysis._clause`,
    and the schema searches pinned to a pair, which only witness recovery
    runs."""
    counts = {"significant_rel": 0, "_clause": 0, "pinned": 0}
    enumerate_all = pidcheck.analysis.enumerate_schemas

    def counted(name):
        method = getattr(Analysis, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(Analysis, name, wrapper)

    def pinned(*args, **kwargs):
        counts["pinned"] += kwargs.get("pin") is not None
        return enumerate_all(*args, **kwargs)

    counted("significant_rel")
    counted("_clause")
    monkeypatch.setattr(pidcheck.analysis, "enumerate_schemas", pinned)
    return counts


class TestWitnessesOnlyForOutput:
    """Witnesses are recovered only where one is printed: the repair search
    and `fuzz` read the significant pairs, and `check` asks for one clause
    per witness."""

    @pytest.mark.parametrize("name", ["w3_shared", "fig8"])
    def test_suggest_recovers_no_witness(self, monkeypatch, name):
        d = w_family(3, shared=True) if name == "w3_shared" else figures.fig8()
        analysis = Analysis(d)
        report = analysis.check()
        expected = reference_suggest(d, report)
        counts = _count_recovery(monkeypatch)
        assert suggest_resolutions(d, report, analysis=analysis) == expected
        assert counts == {"significant_rel": 0, "_clause": 0, "pinned": 0}

    def test_fuzz_recovers_no_witness(self, monkeypatch, capsys):
        counts = _count_recovery(monkeypatch)
        assert main(["fuzz", str(FIXTURES / "fig6.pid"), "--trials", "2"]) == 0
        assert counts == {"significant_rel": 0, "_clause": 0, "pinned": 0}

    def test_check_asks_one_clause_per_witness(self, monkeypatch):
        counts = _count_recovery(monkeypatch)
        report = Analysis(figures.fig8()).check()
        assert len(report.witnesses) == 5
        assert counts["_clause"] == counts["significant_rel"] == 5

    @staticmethod
    def _assert_recovers_every_pair(analysis):
        # Rechecks recover no witness, so a disagreement between the pass
        # and the clauses (is_significant's AssertionError) shows here.
        pairs = analysis.significant_pairs()
        assert analysis.check().significant_pairs == pairs
        for a, dec in pairs:
            w = analysis.is_significant(a, dec)
            assert w is not None and (w.chance, w.decision) == (a, dec)

    def _assert_on_reached_orders(self, d) -> int:
        base = Analysis(d)
        self._assert_recovers_every_pair(base)
        derived = 0
        for cs in {frozenset(cs) for cs in _reached_sets(d)}:
            try:
                analysis = base.constrained(cs)
            except InconsistentOrder:
                continue
            self._assert_recovers_every_pair(analysis)
            derived += 1
        return derived

    @pytest.mark.parametrize("name", ["w3_shared", "fig6", "fig7", "fig8", "two_witness"])
    def test_orders_the_repair_search_reaches(self, name):
        d = w_family(3, shared=True) if name == "w3_shared" else figures.ALL_FIGURES[name]()
        assert self._assert_on_reached_orders(d) > 0

    def test_orders_the_repair_search_reaches_on_random_draws(self):
        derived = 0
        for seed in range(300):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            derived += self._assert_on_reached_orders(d)
        assert derived >= 90


class TestDerivedAnalysis:
    """A derived analysis shares its parent's memo tables, which is sound
    because no repair constraint changes the bare graph."""

    @staticmethod
    def _assert_matches_fresh(derived, fresh):
        d = fresh.diagram
        assert derived.po.succ == fresh.po.succ
        for schema in enumerate_schemas(d, fresh.po):
            for dec in d.decision_ids:
                assert derived.relevant_utilities(schema, dec) == fresh.relevant_utilities(schema, dec)
                assert derived.required_variables(schema, dec) == fresh.required_variables(schema, dec)
        for dec in d.decision_ids:
            for a in d.chance_ids:
                if fresh.po.incompatible(a, dec):
                    assert derived.is_significant(a, dec) == fresh.is_significant(a, dec)
        assert derived.check() == fresh.check()

    def test_single_constraints_match_fresh_analysis(self):
        derived_count = 0
        for seed in range(600):
            d = random_pid(np.random.default_rng(seed), max_carrier=8, max_decisions=4)
            base = Analysis(d)
            report = base.check()
            if report.welldefined:
                continue
            # warm the parent on every schema, so the derived analyses read
            # entries computed under the unconstrained diagram
            for schema in enumerate_schemas(d, base.po):
                for dec in d.decision_ids:
                    base.required_variables(schema, dec)
            for w in report.witnesses:
                options = (
                    (("observe", w.chance, w.decision), lambda: Analysis(with_arcs(d, [(w.chance, w.decision)]))),
                    (
                        ("precede", w.decision, w.chance),
                        lambda: Analysis(d).constrained([("precede", w.decision, w.chance)]),
                    ),
                )
                for option, fresh in options:
                    try:
                        expected = fresh()
                    except InconsistentOrder:
                        with pytest.raises(InconsistentOrder):
                            base.constrained([option])
                        continue
                    self._assert_matches_fresh(base.constrained([option]), expected)
                    derived_count += 1
        assert derived_count >= 100

    def test_constraints_accumulate(self):
        d = figures.two_witness_pid()
        base = Analysis(d)
        first = base.constrained([("precede", "D", "A")])
        both = first.constrained([("observe", "A9", "D9")])
        fresh = Analysis(with_arcs(d, [("A9", "D9")])).constrained([("precede", "D", "A")])
        self._assert_matches_fresh(both, fresh)
        assert both.check().welldefined
        assert not base.check().welldefined
