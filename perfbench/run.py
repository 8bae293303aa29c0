"""pidcheck benchmark: time to verdict, repair and oracle cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.  The
load is one closed-loop client in one process: each op starts when the
previous one has finished, and no worker threads are used.  Ops go through
`pidcheck.cli.main([...])` in-process, or through `python -m pidcheck.cli`
in a fresh process on `cli-corpus`, where start-up is the point.  Every op's
exit code and output are checked against `perfbench/expected.json` or
against answers known by construction.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it has the per-layer metrics of a
traced run.  The lines before it print the same numbers for a reader.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import inputs  # noqa: E402

WORKLOADS = ("cli-corpus", "scan-welldefined", "scan-ambiguous", "oracle-fuzz")

# Verdicts the acceptance tests assert: fig1-fig5 (and the fig4 variants)
# are welldefined, these are not.
AMBIGUOUS_FIXTURES = ("fig6", "fig7", "fig8", "fig8_modified", "two_witness")
# `suggest` runs on W(3)-shared only.  On W(4)-shared it takes 5-8 s, a
# round could then hold only one sample of it and a run only three rounds,
# and the spread over ten seeds grew past the metrics' bounds; on W(5)-shared
# its proposal tree deepens with each of the 20 witnesses.
W_SUGGEST = (3,)
FUZZ = {"fig1": 50, "fig8": 2}  # fixed trial counts

# The op mixes.  Every mix has at least 100 ops, so the 90th percentile has
# ten ops beyond it, and the copy counts put the median and the 90th
# percentile inside a block of ops of one kind rather than on the boundary
# between two kinds (noted per workload in perfbench/README.md).
CLI_EXTRA_DECISIONS = 14  # relevant/required asked for 12 + 14 decisions
WELLDEFINED_DRAWS = 86
W4_COPIES = 12
AMBIGUOUS_DRAWS = 34
W3_SHARED_COPIES = 12
CHAINS = {15: 34, 16: 32, 17: 16, 18: 8, 19: 8, 20: 2, 21: 1}  # n -> solves
POOL_PER_STRATUM = 3

# The scan's cost depends on the iteration order of sets of node ids, which
# follows the interpreter's string hashing: the same W(4) `check` takes 28 ms
# under one hash seed and 50 ms under another.  Every benchmark process, and
# every process it starts, runs under this one hash seed.
HASH_SEED = "0"
# A run repeats the mix in rounds; an op's time is its best round.
MIN_ROUNDS = {"cli-corpus": 1, "scan-welldefined": 3, "scan-ambiguous": 3, "oracle-fuzz": 3}
SETUP_REPEATS = 5
PROBE_REPEATS = 5
OP_TIMEOUT = 60.0
MODULES = ("__init__", "analysis", "cli", "dsep", "figures", "generate", "model", "oracle", "ordering")


# ---------------------------------------------------------------------------
# running the program


def load_program():
    """Import the program from the checkout; fail if it is not there."""
    if not (SRC / "pidcheck" / "cli.py").is_file():
        raise SystemExit(f"error: no pidcheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pidcheck.cli  # noqa: F401


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_inprocess(argv: list[str]) -> tuple[int, str]:
    main = sys.modules["pidcheck.cli"].main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def run_subprocess(cmd: list[str]) -> tuple[int, str]:
    p = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT)
    return p.returncode, p.stdout


def call(argv: list[str]) -> tuple[int, dict]:
    rc, out = run_inprocess(argv)
    return rc, json.loads(out)


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def answer(argv: list[str], rc_expected: int, text: bool = False) -> str:
    """Digest of an op's output, for recording; the exit code must match."""
    rc, out = run_inprocess(argv)
    if rc != rc_expected:
        raise SystemExit(f"{argv}: exit {rc}, expected {rc_expected}")
    return digest(out if text else json.loads(out))


# ---------------------------------------------------------------------------
# expected answers: each returns None when the output is right


Expect = Callable[[int, str], "str | None"]


def expect_digest(rc_expected: int, want: str, text: bool = False) -> Expect:
    def check(rc: int, out: str) -> str | None:
        if rc != rc_expected:
            return f"exit {rc}, expected {rc_expected}"
        got = digest(out if text else json.loads(out))
        return None if got == want else f"output digest {got}, expected {want}"

    return check


def check_w(rc: int, payload: dict, exp: dict) -> str | None:
    if rc != (0 if exp["welldefined"] else 2):
        return f"exit {rc}"
    if payload["welldefined"] != exp["welldefined"]:
        return f"verdict {payload['welldefined']}"
    if sorted(payload["pairs_checked"]) != exp["pairs"]:
        return "pairs checked differ"
    witnesses = sorted(
        [w["chance"], w["decision"], w["utility"], w["clause"]] for w in payload["witnesses"]
    )
    return None if witnesses == exp["witnesses"] else "witness pairs differ"


def expect_w(k: int, shared: bool) -> Expect:
    exp = inputs.w_expected(k, shared)
    return lambda rc, out: check_w(rc, json.loads(out), exp)


def expect_fuzz(entry: dict) -> Expect:
    def check(rc: int, out: str) -> str | None:
        payload = json.loads(out)
        got = {"ok": payload["ok"], "failures": payload["failures"], "checks": payload["checks"]}
        want = {k: entry[k] for k in got}
        if rc != 0:
            return f"exit {rc}"
        return None if got == want else f"fuzz result {got}, expected {want}"

    return check


def expect_meu(meu: float) -> Expect:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        got = json.loads(out)["meu"]
        return None if abs(got - meu) <= 1e-9 * max(1.0, abs(meu)) else f"MEU {got!r}, expected {meu!r}"

    return check


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    label: str
    argv: list[str]
    expect: Expect


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one round of the fixed op mix
    subprocess: bool
    work: pathlib.Path


def _write(work: pathlib.Path, name: str, doc: dict) -> str:
    path = work / f"{name}.pid"
    path.write_text(inputs.dump(doc))
    return str(path)


def build_cli_corpus(rng: random.Random, work: pathlib.Path, expected: dict) -> list[Op]:
    """validate, order, check and export-dot on every fixture; relevant and
    required for one decision of every fixture plus 14 more."""
    docs = inputs.figure_docs()
    ops = []
    asked = []
    rest = []
    for name in sorted(docs):
        exp = expected["fixtures"][name]
        path = _write(work, name, docs[name])
        ops += [
            Op(f"validate {name}", ["validate", path, "--json"], expect_digest(0, exp["validate"])),
            Op(f"order {name}", ["order", path, "--json"], expect_digest(0, exp["order"])),
            Op(f"check {name}", ["check", path, "--json"],
               expect_digest(2 if name in AMBIGUOUS_FIXTURES else 0, exp["check"])),
            Op(f"export-dot {name}", ["export-dot", path, "--json", "--annotate"],
               expect_digest(0, exp["export-dot"], text=True)),
        ]
        decisions = inputs.decisions_of(docs[name])
        rng.shuffle(decisions)
        asked.append((name, path, decisions[0]))
        rest += [(name, path, dec) for dec in decisions[1:]]
    for name, path, dec in asked + rng.sample(rest, CLI_EXTRA_DECISIONS):
        exp = expected["fixtures"][name]
        ops += [
            Op(f"relevant {name} {dec}", ["relevant", path, "--json", "-d", dec],
               expect_digest(0, exp["relevant"][dec])),
            Op(f"required {name} {dec}", ["required", path, "--json", "-d", dec],
               expect_digest(0, exp["required"][dec])),
        ]
    return ops


def _w_check(work: pathlib.Path, k: int, shared: bool) -> tuple[str, Op]:
    name = f"w{k}{'s' if shared else ''}"
    path = _write(work, name, inputs.w_doc(k, shared))
    return path, Op(f"check {name}", ["check", path, "--json"], expect_w(k, shared))


def build_scan_welldefined(rng: random.Random, work: pathlib.Path, expected: dict) -> list[Op]:
    ops = [_w_check(work, 3, False)[1]]
    for entry in inputs.stratified(rng, expected["pool"]["welldefined"], WELLDEFINED_DRAWS):
        path = _write(work, f"pool{entry['rng']}", entry["doc"])
        ops.append(Op(f"check pool{entry['rng']}", ["check", path, "--json"], expect_digest(0, entry["check"])))
    ops += [_w_check(work, 4, False)[1]] * W4_COPIES
    ops.append(_w_check(work, 5, False)[1])
    return ops


def build_scan_ambiguous(rng: random.Random, work: pathlib.Path, expected: dict) -> list[Op]:
    ops = []
    docs = inputs.figure_docs()
    for name in AMBIGUOUS_FIXTURES:
        exp = expected["fixtures"][name]
        path = _write(work, name, docs[name])
        ops += [
            Op(f"check {name}", ["check", path, "--json"], expect_digest(2, exp["check"])),
            Op(f"suggest {name}", ["suggest", path, "--json"], expect_digest(0, exp["suggest"])),
        ]
    for entry in inputs.stratified(rng, expected["pool"]["ambiguous"], AMBIGUOUS_DRAWS):
        path = _write(work, f"pool{entry['rng']}", entry["doc"])
        ops += [
            Op(f"check pool{entry['rng']}", ["check", path, "--json"], expect_digest(2, entry["check"])),
            Op(f"suggest pool{entry['rng']}", ["suggest", path, "--json"], expect_digest(0, entry["suggest"])),
        ]
    path, op = _w_check(work, 3, True)
    ops += [op, Op("suggest w3s", ["suggest", path, "--json"],
                   expect_digest(0, expected["w_suggest"]["3"]))] * W3_SHARED_COPIES
    ops += [_w_check(work, 4, True)[1], _w_check(work, 5, True)[1]]
    return ops


def build_oracle_fuzz(rng: random.Random, work: pathlib.Path, expected: dict) -> list[Op]:
    ops = []
    for n, count in CHAINS.items():
        for s in rng.sample(range(inputs.CHAIN_POOL), count):
            path = _write(work, f"chain{n}_{s}", inputs.chain_doc(n, s))
            ops.append(Op(f"solve chain{n}_{s}", ["solve", path, "--json"],
                          expect_meu(expected["chains"][str(n)][s])))
    docs = inputs.figure_docs()
    fuzz_seed = rng.randrange(10_000)
    for name, trials in FUZZ.items():
        path = _write(work, name, docs[name])
        ops.append(Op(f"fuzz {name}", ["fuzz", path, "--json", "--trials", str(trials), "--seed", str(fuzz_seed)],
                      expect_fuzz(expected["fuzz"][name])))
    return ops


BUILDERS = {
    "cli-corpus": build_cli_corpus,
    "scan-welldefined": build_scan_welldefined,
    "scan-ambiguous": build_scan_ambiguous,
    "oracle-fuzz": build_oracle_fuzz,
}


def setup(name: str, seed: int) -> Workload:
    """Import, generate and write the documents, run one untimed warm-up
    op.  This is the work `setup_s` times."""
    load_program()
    work = ROOT / ".bench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    ops = BUILDERS[name](random.Random(f"{name}-{seed}"), work, inputs.load_expected())
    wl = Workload(name, ops, name == "cli-corpus", work)
    rc, out = execute(wl, ops[0], None, 0)
    problem = ops[0].expect(rc, out)
    if problem:
        raise SystemExit(f"error: warm-up op {ops[0].label} failed: {problem}")
    return wl


# ---------------------------------------------------------------------------
# measuring


def execute(wl: Workload, op: Op, tracer, op_id: int) -> tuple[int, str]:
    if not wl.subprocess:
        if tracer is None:
            return run_inprocess(op.argv)
        tracer.op_id = op_id
        i = tracer.open("op")
        t0 = tracer.enter(i)
        try:
            return run_inprocess(op.argv)
        finally:
            tracer.leave(i, t0)
    if tracer is None:
        return run_subprocess([sys.executable, "-m", "pidcheck.cli", *op.argv])
    span_file = wl.work / "child_spans.gz"
    rc, out = run_subprocess([sys.executable, str(HERE / "cli_child.py"), str(span_file), *op.argv])
    tracer.merge(span_file, op_id)
    return rc, out


@dataclass
class Result:
    rounds: list[list[float]]  # per round, each op's wall time in mix order
    failed: int

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    @property
    def best(self) -> list[float]:
        """Each op's best time over the rounds.  Where cores are shared with
        other work, that load slows every op by 1.4-2x for stretches of 5-70
        s (measured on a 2-vCPU cloud VM); the best round is the op's own
        cost."""
        return [min(times) for times in zip(*self.rounds)]

    @property
    def ops_per_s(self) -> float:
        best = self.best
        return len(best) / sum(best)


def measure(wl: Workload, seconds: float, min_rounds: int, tracer=None) -> Result:
    """Run whole rounds of the op mix in a closed loop until ``seconds``
    have passed and at least ``min_rounds`` rounds are done.  Each round
    runs the ops in a fresh order: the copies of one kind of op are spread
    over the round, and an op's samples do not keep the same distance in
    time, so its best round and a block's order statistics come from
    different moments of the run."""
    rounds: list[list[float]] = []
    failed = 0
    order = list(range(len(wl.ops)))
    shuffle = random.Random(wl.name).shuffle
    begin = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - begin < seconds:
        shuffle(order)
        times = [0.0] * len(wl.ops)
        for j in order:
            op = wl.ops[j]
            t0 = time.perf_counter()
            try:
                rc, out = execute(wl, op, tracer, len(rounds) * len(wl.ops) + j)
            except (Exception, SystemExit) as exc:  # a raising op is a failed op
                rc, out, problem = None, "", f"raised {type(exc).__name__}: {exc}"
            else:
                problem = None
            times[j] = time.perf_counter() - t0
            if problem is None:
                try:
                    problem = op.expect(rc, out)
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem is not None:
                failed += 1
                if failed <= 5:
                    print(f"FAILED {op.label}: {problem}", file=sys.stderr)
        rounds.append(times)
    return Result(rounds, failed)


def setup_seconds(name: str, seed: int) -> list[float]:
    """Wall time of fresh benchmark processes that only set up."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=OP_TIMEOUT,
        )
        out.append(time.perf_counter() - t0)
        if p.returncode != 0:
            raise SystemExit(f"error: set-up run failed: {p.stderr.strip()}")
    return out


def end_to_end(wl: Workload, seed: int, seconds: float) -> tuple[Result, dict]:
    res = measure(wl, seconds, MIN_ROUNDS[wl.name])
    who = resource.RUSAGE_CHILDREN if wl.subprocess else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = setup_seconds(wl.name, seed)
    best = res.best
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res.ops_per_s, "1/s"),
        "op_s.p50": (statistics.median(best), "s"),
        "op_s.p90": (statistics.quantiles(best, n=10)[8], "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"{wl.name}: {len(best)} ops in the mix, {len(res.rounds)} rounds, "
          f"{sum(map(sum, res.rounds)):.2f} s timed; op time is the best round; "
          f"set-up runs {[round(s, 3) for s in setups]} s")
    slowest = sorted(zip(best, (op.label for op in wl.ops)), reverse=True)[:6]
    print("  slowest ops: " + ", ".join(f"{label} {t:.3f} s" for t, label in slowest))
    return res, metrics


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)


def probe(code: str) -> str:
    p = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                       text=True, timeout=OP_TIMEOUT)
    if p.returncode != 0:
        raise SystemExit(f"error: probe failed: {p.stderr.strip()}")
    return p.stdout.strip()


def cli_probes(work: pathlib.Path) -> dict:
    import_s = statistics.median(
        float(probe("import time\nt = time.perf_counter()\nimport pidcheck.cli\n"
                    "print(time.perf_counter() - t)"))
        for _ in range(PROBE_REPEATS)
    )
    path = _write(work, "probe_w3", inputs.w_doc(3, False))
    numpy_loaded = int(probe(
        "import contextlib, io, sys\nfrom pidcheck.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    main(['check', {path!r}, '--json'])\n"
        "print(int('numpy' in sys.modules))"
    ))
    return {"cli.import_s": (import_s, "s"), "cli.numpy_loaded": (numpy_loaded, "flag")}


def source_lines() -> dict:
    out = {}
    total = 0
    for path in sorted((SRC / "pidcheck").glob("*.py")):
        n = len(path.read_text().splitlines())
        total += n
        if path.stem in MODULES:
            out[f"{path.stem.strip('_')}.lines"] = (n, "lines")
    for m in MODULES:
        out.setdefault(f"{m.strip('_')}.lines", (0, "lines"))
    out["src.lines"] = (total, "lines")
    return out


def per_layer(wl: Workload, seconds: float) -> tuple[Result, dict]:
    import spans

    untraced = measure(wl, seconds / 2, 1)
    tracer = spans.Tracer()
    if not wl.subprocess:
        spans.install(tracer)
    traced = measure(wl, seconds / 2, 1, tracer)
    tracer.write(wl.work / "spans.gz")

    rounds = len(traced.rounds)
    self_s = tracer.self_times()
    calls = tracer.span_counts()
    counts = tracer.counts

    def per_round(x: float) -> float:
        return x / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    generated = counts["ordering.enumerate.items"]
    evaluated = counts["analysis.schemas_evaluated"]
    metrics = {
        **cli_probes(wl.work),
        "cli.parse_s": (per_round(self_s.get("cli.parse", 0.0)), "s"),
        "cli.docs": (per_round(calls.get("cli.parse", 0)), "count"),
        "model.validate_s": (per_round(self_s.get("model.validate", 0.0)), "s"),
        "model.validate_calls": (per_round(calls.get("model.validate", 0)), "count"),
        "ordering.induce_s": (per_round(self_s.get("ordering.induce", 0.0)), "s"),
        "ordering.induce_calls": (per_round(calls.get("ordering.induce", 0)), "count"),
        "ordering.enumerate_s": (per_round(self_s.get("ordering.enumerate", 0.0)), "s"),
        "ordering.schemas_generated": (per_round(generated), "count"),
        "dsep.reach_s": (per_round(self_s.get("dsep.reach", 0.0)), "s"),
        "dsep.reach_calls": (per_round(calls.get("dsep.reach", 0)), "count"),
        "analysis.scan_s": (per_round(self_s.get("analysis.scan", 0.0)), "s"),
        "analysis.schemas_evaluated": (per_round(evaluated), "count"),
        "analysis.pair_hit_ratio": (ratio(evaluated, generated), "ratio"),
        "analysis.rules_s": (per_round(self_s.get("analysis.rules", 0.0)), "s"),
        "analysis.checks": (per_round(counts["analysis.checks"]), "count"),
        "analysis.proposals": (per_round(counts["analysis.proposals"]), "count"),
        "analysis.fix_ratio": (ratio(counts["analysis.fixes"], counts["analysis.proposals"]), "ratio"),
        "oracle.solve_s": (per_round(self_s.get("oracle.solve", 0.0)), "s"),
        "oracle.solve_calls": (per_round(calls.get("oracle.solve", 0)), "count"),
        "oracle.cells": (per_round(counts["oracle.cells"]), "count"),
        "oracle.realize_s": (per_round(self_s.get("oracle.realize", 0.0)), "s"),
        "oracle.compare_s": (per_round(self_s.get("oracle.compare", 0.0)), "s"),
        **source_lines(),
        "trace.overhead_ratio": (traced.ops_per_s / untraced.ops_per_s, "ratio"),
    }
    print(f"{wl.name}: {rounds} traced and {len(untraced.rounds)} untraced rounds of "
          f"{len(wl.ops)} ops; per-layer values are per round; "
          f"{len(tracer.name)} spans written to {wl.work / 'spans.gz'}")
    return Result(untraced.rounds + traced.rounds, untraced.failed + traced.failed), metrics


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *sys.argv[1:]], env)
    wl = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    if args.trace:
        res, metrics = per_layer(wl, args.seconds)
    else:
        res, metrics = end_to_end(wl, args.seed, args.seconds)
    attempted = res.attempted
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':28s} {res.failed / attempted:.6g} ratio ({res.failed} of {attempted} ops)")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
