"""Record the expected answers the benchmark checks against.

    python3 perfbench/record.py

Run once, from the root of the repository, on the commit whose answers are
taken as correct.  It writes `perfbench/expected.json`: the random-draw
pool with the digest of every `check` and `suggest` payload, the fixture
outputs of every command the benchmark runs, the W(k)-shared `suggest`
proposal lists, the `fuzz` results and the chain MEUs.  The benchmark only
reads this file; it never records an answer from the run it is checking.
"""
from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402


def pool_doc(d) -> dict:
    return {
        "nodes": [
            inputs.node(n.id, n.kind.value, None if n.states is None else list(n.states), list(n.parents))
            for n in d.nodes
        ]
    }


def record_pool(work: pathlib.Path) -> dict:
    import numpy as np
    from pidcheck.analysis import check_welldefined, suggest_resolutions
    from pidcheck.generate import random_pid
    from pidcheck.ordering import enumerate_schemas

    wanted_welldefined = run.WELLDEFINED_DRAWS * run.POOL_PER_STRATUM
    wanted_ambiguous = run.AMBIGUOUS_DRAWS * run.POOL_PER_STRATUM
    welldefined: list[dict] = []
    ambiguous: list[dict] = []
    s = 0
    while len(welldefined) < wanted_welldefined or len(ambiguous) < wanted_ambiguous:
        d = random_pid(np.random.default_rng(s), max_carrier=8, max_decisions=4)
        schemas = sum(1 for _ in enumerate_schemas(d))
        report = check_welldefined(d)
        entry = {"rng": s, "schemas": schemas, "pairs": len(report.pairs_checked), "doc": pool_doc(d)}
        path = work / f"pool{s}.pid"
        path.write_text(inputs.dump(entry["doc"]))
        if report.welldefined and schemas >= 2 and report.pairs_checked:
            if len(welldefined) < wanted_welldefined:
                entry["check"] = run.answer(["check", str(path), "--json"], 0)
                welldefined.append(entry)
        elif not report.welldefined and len(ambiguous) < wanted_ambiguous:
            entry["proposals"] = len(suggest_resolutions(d, report))
            entry["check"] = run.answer(["check", str(path), "--json"], 2)
            entry["suggest"] = run.answer(["suggest", str(path), "--json"], 0)
            ambiguous.append(entry)
        s += 1
    welldefined.sort(key=lambda e: (e["schemas"] * e["pairs"], e["rng"]))
    ambiguous.sort(key=lambda e: (e["proposals"], e["schemas"], e["rng"]))
    return {"welldefined": welldefined, "ambiguous": ambiguous}


def record_fixtures(work: pathlib.Path) -> dict:
    out = {}
    for name, doc in inputs.figure_docs().items():
        path = str(work / f"{name}.pid")
        pathlib.Path(path).write_text(inputs.dump(doc))
        ambiguous = name in run.AMBIGUOUS_FIXTURES
        entry = {
            "validate": run.answer(["validate", path, "--json"], 0),
            "order": run.answer(["order", path, "--json"], 0),
            "check": run.answer(["check", path, "--json"], 2 if ambiguous else 0),
            "export-dot": run.answer(["export-dot", path, "--json", "--annotate"], 0, text=True),
            "relevant": {},
            "required": {},
        }
        for dec in inputs.decisions_of(doc):
            entry["relevant"][dec] = run.answer(["relevant", path, "--json", "-d", dec], 0)
            entry["required"][dec] = run.answer(["required", path, "--json", "-d", dec], 0)
        if ambiguous:
            entry["suggest"] = run.answer(["suggest", path, "--json"], 0)
        out[name] = entry
    return out


def record_w(work: pathlib.Path) -> dict:
    out = {}
    for k in (3, 4, 5):
        for shared in (False, True):
            path = work / f"w{k}{'s' if shared else ''}.pid"
            path.write_text(inputs.dump(inputs.w_doc(k, shared)))
            rc, payload = run.call(["check", str(path), "--json"])
            problem = run.check_w(rc, payload, inputs.w_expected(k, shared))
            if problem:
                raise SystemExit(f"W({k}) shared={shared}: construction disagrees: {problem}")
            if shared and k in run.W_SUGGEST:
                out[str(k)] = run.answer(["suggest", str(path), "--json"], 0)
    return out


def record_fuzz(work: pathlib.Path) -> dict:
    docs = inputs.figure_docs()
    out = {}
    for name, trials in run.FUZZ.items():
        path = work / f"{name}.pid"
        path.write_text(inputs.dump(docs[name]))
        results = []
        for seed in (0, 1):
            rc, payload = run.call(["fuzz", str(path), "--json", "--trials", str(trials), "--seed", str(seed)])
            results.append((rc, payload["ok"], payload["failures"], payload["checks"]))
        if results[0] != results[1] or results[0][0] != 0:
            raise SystemExit(f"fuzz {name}: result depends on the seed: {results}")
        out[name] = {"trials": trials, "ok": results[0][1], "failures": results[0][2], "checks": results[0][3]}
    return out


def record_chains(work: pathlib.Path) -> dict:
    out = {}
    for n in inputs.CHAIN_SIZES:
        meus = []
        for s in range(inputs.CHAIN_POOL):
            path = work / f"chain{n}_{s}.pid"
            path.write_text(inputs.dump(inputs.chain_doc(n, s)))
            rc, payload = run.call(["solve", str(path), "--json"])
            if rc != 0:
                raise SystemExit(f"solve chain n={n} seed={s} exited {rc}")
            meus.append(payload["meu"])
        out[str(n)] = meus
    return out


def main() -> None:
    work = run.ROOT / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    run.load_program()
    expected = {
        "fixtures": record_fixtures(work),
        "w_suggest": record_w(work),
        "fuzz": record_fuzz(work),
        "chains": record_chains(work),
        "pool": record_pool(work),
    }
    inputs.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {inputs.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
