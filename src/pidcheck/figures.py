"""Fixture corpus: small diagrams exercising every analysis path.

Each function reads its document ``fixtures/<name>.pid`` of a source
checkout and returns a new, validated diagram on every call; the
``*_realization`` functions return the tables of the same documents used
by the exact solver tests.  The documents are the corpus and are edited by
hand.  The revealing-signal pattern appears in several fixtures: a signal
node copies a hidden variable when two other coordinates disagree and is
uniform noise otherwise, so observing it sometimes pins the hidden state
and otherwise says nothing.
"""
from __future__ import annotations

import pathlib

from .cli import load_file
from .model import Diagram
from .oracle import Realization

FIXTURES = pathlib.Path(__file__).resolve().parents[2] / "fixtures"


def _diagram(name: str) -> Diagram:
    return load_file(str(FIXTURES / f"{name}.pid"))[0]


def _realization(name: str) -> Realization:
    return load_file(str(FIXTURES / f"{name}.pid"))[1].realization()


def fig1() -> Diagram:
    """Four-decision diagram with a genuinely partial order.

    B is observed first; the first decision influences E, F and G; E and G
    are observed before each remaining decision while F is observed before
    D2 and D3 only, leaving F incompatible with D4.  D2, D3 and D4 are
    pairwise incompatible; H is observed last or never.
    """
    return _diagram("fig1")


def fig2() -> Diagram:
    """Classic two-decision diagram on which both published baselines mark
    the first observation B as needed while the exact analysis does not:
    A supersedes whatever B says by the time anything payoff-relevant
    happens, but B stays moral-graph-connected to D1 through A and stays
    ball-reachable from D2's payoff."""
    return _diagram("fig2")


def fig3() -> Diagram:
    """One decision feeding one utility through a chance copy."""
    return _diagram("fig3")


def fig3_realization() -> Realization:
    return _realization("fig3")


def fig4() -> Diagram:
    """Three chained decisions where the first decision's payoffs are both
    inherited: its action seeds A, which gates whether the signal B reveals
    the hidden C that the last decision is paid on."""
    return _diagram("fig4")


def fig4_derived() -> Diagram:
    """fig4 with the D1 -> D2 informational arc dropped: D1 and D2 become
    incompatible while no chance node is incompatible with any decision."""
    return _diagram("fig4_derived")


def fig4_realization(first_utility: tuple[float, float] = (0.0, 3.0)) -> Realization:
    """fig4's tables, in which B copies C exactly when D2 and A disagree and
    is noise otherwise, with the utility U of D2's two actions replaced by
    ``first_utility``; `solve` checks the new tables again."""
    tables = _realization("fig4")
    u = tables.utilities["U"].copy()
    u[:] = first_utility
    return Realization(tables.cpts, {**tables.utilities, "U": u})


def fig5() -> Diagram:
    """Like fig4 but with one more hop: the first decision influences A,
    observed before the middle decision, and A's downstream copy gates the
    revelation of the hidden E paid to the last decision."""
    return _diagram("fig5")


def fig6() -> Diagram:
    """Minimal non-welldefined diagram: chance A is observed before D2 only,
    leaving it incompatible with D, yet D's utility depends on A directly."""
    return _diagram("fig6")


def fig6_realization() -> Realization:
    return _realization("fig6")


def fig7() -> Diagram:
    """A is observed before the middle decision only, so A is incompatible
    with D; D shares its utility with the last decision D3, for which A is
    required through the revealing signal B."""
    return _diagram("fig7")


def fig7_realization() -> Realization:
    # U rewards D3 for matching the hidden C, with a stake depending on D.
    return _realization("fig7")


def fig8() -> Diagram:
    """fig7 with one more hop: A determines X, X gates the revealing signal
    B, and only X (not A) is observed midway, so A's influence on the last
    decision travels strictly through X."""
    return _diagram("fig8")


def fig8_realization() -> Realization:
    return _realization("fig8")


def fig8_modified() -> Diagram:
    """fig8 with the arc (A, D) added and the arc (D4, U) removed: A is
    observed before D but no longer required for it, yet A stays in D's
    elimination neighborhood."""
    return _diagram("fig8_modified")


def two_witness_pid() -> Diagram:
    """Two independent copies of the fig6 pattern; no single ordering
    constraint can make it welldefined."""
    return _diagram("two_witness")


ALL_FIGURES = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig4_derived": fig4_derived,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig8_modified": fig8_modified,
    "two_witness": two_witness_pid,
}

FIGURE_REALIZATIONS = {
    "fig3": fig3_realization,
    "fig4": fig4_realization,
    "fig6": fig6_realization,
    "fig7": fig7_realization,
    "fig8": fig8_realization,
}
