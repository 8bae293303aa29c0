"""Span tracer for the traced benchmark run.

`install` wraps the public functions at each pidcheck module boundary.  It
rebinds the defining module's attribute and every other pidcheck module
attribute bound to the same object, such as `pidcheck.analysis.active_reach`
and `pidcheck.analysis.enumerate_schemas`.  Nothing in the package itself
changes.

Each wrapped call records a span: its name, start, end, the span that was
open when it started, and the op it belongs to.  Spans are kept in memory in
flat arrays and written out once at the end.  A generator
(`enumerate_schemas`) gets one span per generator whose busy time is the sum
of its `next` calls, so the consumer's work between items is not counted as
enumeration.  A layer's self time is a span's busy time minus the busy time
of its child spans.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  A dotted attribute names a method.
SPANS = (
    ("pidcheck.cli", "parse_document", "cli.parse"),
    ("pidcheck.model", "validate_nodes", "model.validate"),
    ("pidcheck.ordering", "induce_partial_order", "ordering.induce"),
    ("pidcheck.dsep", "active_reach", "dsep.reach"),
    ("pidcheck.analysis", "Analysis.is_significant", "analysis.scan"),
    ("pidcheck.analysis", "Analysis.relevant_utilities", "analysis.rules"),
    ("pidcheck.analysis", "Analysis.required_variables", "analysis.rules"),
    ("pidcheck.oracle", "solve", "oracle.solve"),
    ("pidcheck.oracle", "random_realization", "oracle.realize"),
    ("pidcheck.oracle", "strategies_equal", "oracle.compare"),
    ("pidcheck.oracle", "required_from_strategy", "oracle.compare"),
)
GENERATORS = (("pidcheck.ordering", "enumerate_schemas", "ordering.enumerate"),)


class Tracer:
    COLUMNS = ("name", "start", "end", "busy", "parent", "op")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list[int] = [-1]
        self.op_id = -1
        self.counts: Counter[str] = Counter()

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        """New span under the innermost open one; not entered yet."""
        idx = self._intern(name)
        i = len(self.name)
        now = perf_counter()
        self.name.append(idx)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        return i

    def enter(self, i: int) -> float:
        self.stack.append(i)
        return perf_counter()

    def leave(self, i: int, t0: float) -> None:
        now = perf_counter()
        self.stack.pop()
        self.end[i] = now
        self.busy[i] += now - t0

    def merge(self, path, op_id: int) -> None:
        """Append the spans another process wrote to ``path``, tagged with
        ``op_id``; its root spans stay roots."""
        other = read(path)
        base = len(self.name)
        index = [self._intern(name) for name in other["names"]]
        self.name.extend(index[i] for i in other["name"])
        self.start.extend(other["start"])
        self.end.extend(other["end"])
        self.busy.extend(other["busy"])
        self.parent.extend(-1 if p < 0 else base + p for p in other["parent"])
        self.op.extend(op_id for _ in other["op"])
        self.counts.update(other["counts"])

    def write(self, path) -> None:
        """A JSON header line (span names, counters, column types and
        lengths), then each column as raw machine values; gzip-compressed."""
        columns = [(c, getattr(self, c)) for c in self.COLUMNS]
        header = {
            "names": self.names,
            "counts": dict(self.counts),
            "columns": [[c, col.typecode, len(col)] for c, col in columns],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                fh.write(col.tobytes())

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_busy = array("d", bytes(8 * len(self.name)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_busy[p] += self.busy[i]
        out: dict[str, float] = Counter()
        for i, idx in enumerate(self.name):
            out[self.names[idx]] += self.busy[i] - child_busy[i]
        return dict(out)

    def span_counts(self) -> dict[str, int]:
        return dict(Counter(self.names[idx] for idx in self.name))


def read(path) -> dict:
    """The header and columns written by :meth:`Tracer.write`."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {"names": header["names"], "counts": header["counts"]}
        for column, typecode, length in header["columns"]:
            col = array(typecode)
            col.frombytes(fh.read(length * col.itemsize))
            out[column] = col
    return out


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "pidcheck" or mod_name.startswith("pidcheck."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _patch(module: str, attr: str, make) -> None:
    mod = sys.modules[module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        setattr(cls, meth, make(getattr(cls, meth)))
    else:
        original = getattr(mod, attr)
        _rebind(original, make(original))


def _span(tracer: Tracer, name: str, fn, before=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if before is not None:
            before(args)
        i = tracer.open(name)
        t0 = tracer.enter(i)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave(i, t0)

    return wrapped


def _generator(tracer: Tracer, name: str, fn):
    """The span is timed from each resume to the next yield, as the consumer
    sees one `next` call; the bookkeeping stays in locals until the end."""

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        it = fn(*args, **kwargs)
        i = tracer.open(name)
        stack = tracer.stack
        busy = 0.0
        items = 0
        t0 = perf_counter()
        try:
            while True:
                stack.append(i)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    t1 = perf_counter()
                    busy += t1 - t0
                items += 1
                yield item
                t0 = perf_counter()
        finally:
            it.close()
            tracer.end[i] = t1
            tracer.busy[i] = busy
            tracer.counts[name + ".items"] += items

    return wrapped


def _counter(tracer: Tracer, key: str, fn, after=None):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.counts[key] += 1
        out = fn(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    return wrapped


def install(tracer: Tracer) -> None:
    """Wrap every traced function of an imported pidcheck.  Call once, after
    `import pidcheck.cli`."""
    import pidcheck.cli  # noqa: F401  (loads every module that is wrapped)

    def count_cells(args) -> None:
        d = args[0]
        cells = 1
        for v in d.carrier_ids:
            cells *= len(d.states(v))
        tracer.counts["oracle.cells"] += cells

    def count_proposals(proposals) -> None:
        tracer.counts["analysis.proposals"] += len(proposals)
        tracer.counts["analysis.fixes"] += sum(1 for p in proposals if p.welldefined)

    for module, attr, name in SPANS:
        before = count_cells if name == "oracle.solve" else None
        _patch(module, attr, lambda fn, name=name, before=before: _span(tracer, name, fn, before))
    for module, attr, name in GENERATORS:
        _patch(module, attr, lambda fn, name=name: _generator(tracer, name, fn))
    _patch("pidcheck.analysis", "Analysis.significant_rel",
           lambda fn: _counter(tracer, "analysis.schemas_evaluated", fn))
    _patch("pidcheck.analysis", "check_welldefined",
           lambda fn: _counter(tracer, "analysis.checks", fn))
    _patch("pidcheck.analysis", "suggest_resolutions",
           lambda fn: _counter(tracer, "analysis.suggests", fn, after=count_proposals))
