"""Benchmark inputs: the W(k) families, dense chains, the fixture corpus and
the recorded random-draw pool, all as `.pid` documents.

Every input is a deterministic function of the workload seed.  The seed
picks one random draw per work stratum of the recorded pool, the decisions
that `relevant`/`required` ask about, the chain tables (from a recorded pool
of table seeds) and the `fuzz` seed.  The W(k) documents do not depend on
it.  The op mix per family is the same for every seed, so a run on a
held-out seed measures the same kind of work as a run on the default one.
"""
from __future__ import annotations

import json
import pathlib
import random
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected.json"

BIN = ["s1", "s2"]
ACT = ["d1", "d2"]

# Chain sizes and the number of table seeds recorded per size.
CHAIN_SIZES = tuple(range(15, 22))
CHAIN_POOL = 34


def node(node_id: str, kind: str, states: list[str] | None, parents: list[str]) -> dict:
    out: dict[str, Any] = {"id": node_id, "kind": kind}
    if states is not None:
        out["states"] = list(states)
    out["parents"] = list(parents)
    return out


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# W(k): k independent S_i -> D_i -> U_i triples (k!^2 schemas, k(k-1)
# incompatible pairs).  The shared variant adds a hidden H -> S_i and H into
# every U_i, which makes every (S_i, D_j), i != j, significant.


def w_doc(k: int, shared: bool) -> dict:
    hidden = ["H"] if shared else []
    nodes = [node("H", "chance", BIN, [])] if shared else []
    nodes += [node(f"S{i}", "chance", BIN, hidden) for i in range(k)]
    nodes += [node(f"D{i}", "decision", ACT, [f"S{i}"]) for i in range(k)]
    nodes += [node(f"U{i}", "value", None, [f"D{i}"] + hidden) for i in range(k)]
    return {"nodes": nodes}


def w_expected(k: int, shared: bool) -> dict:
    """The check verdict, pairs and witness pairs, known by construction."""
    pairs = sorted([f"S{i}", f"D{j}"] for i in range(k) for j in range(k) if i != j)
    witnesses = (
        sorted([f"S{i}", f"D{j}", f"U{j}", "direct"] for i in range(k) for j in range(k) if i != j)
        if shared
        else []
    )
    return {"welldefined": not shared, "pairs": pairs, "witnesses": witnesses}


# ---------------------------------------------------------------------------
# Dense chains: C0 -> C1 -> ... -> C(n-2), a decision D observing C(n-2) and a
# utility on (C0, D).  n binary carrier nodes, so `solve` allocates 2^n cells.


def chain_doc(n: int, table_seed: int) -> dict:
    rng = random.Random(f"chain-{n}-{table_seed}")
    m = n - 1
    nodes = [node("C0", "chance", BIN, [])]
    nodes += [node(f"C{j}", "chance", BIN, [f"C{j - 1}"]) for j in range(1, m)]
    nodes.append(node("D", "decision", ACT, [f"C{m - 1}"]))
    nodes.append(node("U", "value", None, ["C0", "D"]))

    def row() -> list[float]:
        p = rng.uniform(0.05, 0.95)
        return [p, 1.0 - p]

    cpts = {"C0": row()}
    for j in range(1, m):
        cpts[f"C{j}"] = row() + row()
    utilities = {"U": [float(rng.randint(0, 100)) for _ in range(4)]}
    return {"nodes": nodes, "realization": {"cpts": cpts, "utilities": utilities}}


# ---------------------------------------------------------------------------
# Fixture corpus, built from the package's own figure builders.


def figure_docs() -> dict[str, dict]:
    from pidcheck.figures import ALL_FIGURES, FIGURE_REALIZATIONS, fig4_realization

    def doc(d, realization) -> dict:
        out: dict[str, Any] = {
            "nodes": [
                node(n.id, n.kind.value, None if n.states is None else list(n.states), list(n.parents))
                for n in d.nodes
            ]
        }
        if realization is not None:
            out["realization"] = {
                "cpts": {k: [float(x) for x in v.reshape(-1)] for k, v in realization.cpts.items()},
                "utilities": {
                    k: [float(x) for x in v.reshape(-1)] for k, v in realization.utilities.items()
                },
            }
        return out

    docs = {}
    for name, builder in ALL_FIGURES.items():
        maker = FIGURE_REALIZATIONS.get(name)
        docs[name] = doc(builder(), maker() if maker else None)
    docs["fig4_psi2"] = doc(ALL_FIGURES["fig4"](), fig4_realization((3.0, 0.0)))
    return docs


def decisions_of(doc: dict) -> list[str]:
    return [n["id"] for n in doc["nodes"] if n["kind"] == "decision"]


# ---------------------------------------------------------------------------
# Recorded pool of random_pid draws.


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def stratified(rng: random.Random, pool: list, strata: int) -> list:
    """One entry from each of ``strata`` contiguous bins of a pool sorted by
    work, so every seed gets the same spread of small and large inputs."""
    size = len(pool) // strata
    return [pool[s * size + rng.randrange(size)] for s in range(strata)]
