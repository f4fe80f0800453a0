"""Spans at the program's layer boundaries, recorded from outside the program.

The benchmark never edits the lifter.  For a traced run it replaces the
public functions each layer exports with thin wrappers, in every module
that imported them (``repro.hoare.lifter.join_states`` as well as
``repro.semantics.state.join_states``), and wraps a few methods on their
classes.  Each wrapped call becomes one span: name, start, end, parent span
and the task (request) it served.  Spans are kept in flat in-memory arrays
and written out once, at the end of the run.

Self time is computed while recording: a span's self time is its duration
minus the durations of its direct children, which is the part of its
interval that no child span covers, because calls on one thread nest.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

#: (span name, defining module, function name).  Every module under
#: ``repro`` holding the same function object gets the wrapper too.
FUNCTIONS = (
    ("hoare.lift", "repro.hoare.lifter", "lift"),
    ("hoare.schedule", "repro.hoare.schedule", "build_schedule"),
    ("hoare.resolve", "repro.hoare.resolve", "resolve_rip"),
    ("semantics.step", "repro.semantics.tau", "step"),
    ("semantics.join_states", "repro.semantics.state", "join_states"),
    ("semantics.states_equal", "repro.semantics.state", "states_equal"),
    ("pred.join", "repro.pred.predicate", "join_predicates"),
    ("pred.widen", "repro.pred.predicate", "widen_predicate"),
    ("memmodel.join", "repro.memmodel.model", "join_models"),
    ("memmodel.holds", "repro.memmodel.model", "model_holds"),
    ("smt.decide", "repro.smt.solver", "decide_relation"),
    ("smt.possible", "repro.smt.solver", "possible_relations"),
    ("export.theory", "repro.export.isabelle", "export_theory"),
    ("export.check", "repro.export.checker", "check_triples"),
    ("export.witness", "repro.export.checker", "build_witness"),
)

#: (span name, defining module, class, method).
METHODS = (
    ("isa.fetch", "repro.elf.image", "Binary", "fetch"),
    ("pred.holds", "repro.pred.predicate", "Predicate", "holds"),
    ("machine.execute", "repro.machine.cpu", "CPU", "execute"),
    ("serve.request", "repro.serve.client", "ServeClient", "request"),
)

#: Spans whose useful outcome is a non-None result (a witness was found).
USEFUL_IF_NOT_NONE = frozenset({"export.witness"})


class SpanRecorder:
    """Spans in columns, plus per-name calls, total and self time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.task_col = array("i")
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.useful: list[int] = []
        #: Open spans: [span index, time covered by direct children].
        self.stack: list[list] = []
        #: The task (request) id stamped on every span opened from now on.
        self.task = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            self.useful.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """A wrapper around *fn* recording one span named *name* per call."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self.stack
        name_col, start_col, end_col = self.name_col, self.start_col, self.end_col
        parent_col, task_col = self.parent_col, self.task_col
        calls, total_s, self_s, useful = (self.calls, self.total_s,
                                          self.self_s, self.useful)
        count_useful = name in USEFUL_IF_NOT_NONE
        recorder = self

        def traced(*args, **kwargs):
            index = len(name_col)
            name_col.append(nid)
            parent_col.append(stack[-1][0] if stack else -1)
            task_col.append(recorder.task)
            end_col.append(0.0)
            start = clock()
            start_col.append(start)
            frame = [index, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                end_col[index] = end
                duration = end - start
                calls[nid] += 1
                total_s[nid] += duration
                self_s[nid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if count_useful and result is not None:
                useful[nid] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def layer_stats(self) -> dict[str, dict]:
        return {
            name: {"calls": self.calls[i], "total_s": self.total_s[i],
                   "self_s": self.self_s[i], "useful": self.useful[i]}
            for i, name in enumerate(self.names)
        }

    def save(self, directory: str) -> None:
        """Write every span: ``spans.json`` (names, columns, count) and
        ``spans.bin`` (the columns back to back, native byte order)."""
        os.makedirs(directory, exist_ok=True)
        columns = (("name", self.name_col), ("start", self.start_col),
                   ("end", self.end_col), ("parent", self.parent_col),
                   ("task", self.task_col))
        with open(os.path.join(directory, "spans.bin"), "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        header = {
            "names": self.names,
            "count": len(self.name_col),
            "columns": [[label, column.typecode] for label, column in columns],
            "byteorder": sys.byteorder,
        }
        with open(os.path.join(directory, "spans.json"), "w") as handle:
            json.dump(header, handle)


def load_spans(directory: str) -> list[dict]:
    """Read back what :meth:`SpanRecorder.save` wrote, one dict per span."""
    with open(os.path.join(directory, "spans.json")) as handle:
        header = json.load(handle)
    count = header["count"]
    columns = {}
    with open(os.path.join(directory, "spans.bin"), "rb") as handle:
        for label, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(handle, count)
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns[label] = column
    names = header["names"]
    return [
        {"name": names[columns["name"][i]], "start": columns["start"][i],
         "end": columns["end"][i], "parent": columns["parent"][i],
         "task": columns["task"][i]}
        for i in range(count)
    ]


class Patches:
    """Installs the span wrappers and takes them out again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import importlib

        for name, module_name, attr in FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            wrapper = self.recorder.wrap(name, original)
            for consumer in list(sys.modules.values()):
                if not getattr(consumer, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(consumer).items()):
                    if value is original:
                        self._set(consumer, key, wrapper)
        for name, module_name, class_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._set(cls, attr, self.recorder.wrap(name, getattr(cls, attr)))

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
