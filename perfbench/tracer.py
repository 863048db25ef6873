"""Spans and counters recorded from outside the library.

The tracer wraps library functions where they are looked up: every
module namespace that binds the function object (``berge.bit_count`` and
``graphs.bit_count`` are separate bindings of one function), and the
``Graph`` class for its methods.  ``uninstall`` puts every original back.

Three kinds of wrapper, by how hot the function is:

- *count*: only counts calls (``bits``, ``bit_count``, ``Graph.induced``,
  ``berge.derive_split``).  They run millions of times, so their time
  stays in the caller's self time.
- *timed*: calls and busy time, no stored span (``Graph.components_of``,
  ``Graph.is_tree_mask``, ``Graph.girth``).
- *span*: every public function of the solver modules.  A span records
  name, start, end, parent span and instance id, and stays in memory
  until the run ends.

``<module>.self_s`` is span time not covered by child spans; busy time
counts only the outermost call of a function, so recursion is not
counted twice.  Counters go to a per-instance scratch dict that
``end_instance`` merges into ``main``, or into ``limited`` when the
instance hit the time limit (its counts depend on when the limit fired).
"""

from __future__ import annotations

import inspect
import sys
import time

SPAN_MODULES = ("berge", "matching", "linegraph", "oracle", "kintree",
                "decompose", "classify", "detect", "sgraph")
COUNT_ONLY = {("graphs", "bits"), ("graphs", "bit_count"), ("berge", "derive_split")}
GRAPH_COUNTED = ("induced",)
GRAPH_TIMED = ("components_of", "is_tree_mask", "girth")
# busy time of a group of functions, counted once for nested members
GROUPS = {"kintree.validate_square_split": "kintree.validate",
          "kintree.validate_cubic_split": "kintree.validate",
          "kintree.validate_kstruct": "kintree.validate",
          "kintree.validate_k4": "kintree.validate"}


def _add(d: dict, key: str, v=1) -> None:
    d[key] = d.get(key, 0) + v


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, instance]
        self.main: dict[str, float] = {}
        self.limited: dict[str, float] = {}
        self.limited_instances: set[int] = set()
        self.cur: dict[str, float] = {}
        self.instance = -1
        self._stack: list[list] = []    # frames: [child time, span index]
        self._depth: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- per instance ----------------------------------------------------------

    def begin_instance(self, instance: int) -> None:
        self.instance = instance
        self.cur = {}
        self._stack = []
        self._depth = {}

    def end_instance(self, time_limited: bool) -> None:
        into = self.limited if time_limited else self.main
        if time_limited:
            self.limited_instances.add(self.instance)
        for k, v in self.cur.items():
            _add(into, k, v)
        self.cur = {}

    # -- installing ------------------------------------------------------------

    def install(self, lib) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "inducta" or name.startswith("inducta.")]
        targets: dict[int, object] = {}
        for short in SPAN_MODULES + ("graphs",):
            mod = getattr(lib, short)
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__ or attr.startswith("_"):
                    continue
                if short == "graphs" and (short, attr) not in COUNT_ONLY:
                    continue
                if (short, attr) in COUNT_ONLY:
                    targets[id(fn)] = self._counter(fn, f"{short}.{attr}")
                else:
                    targets[id(fn)] = self._span(fn, short, f"{short}.{attr}")
        for mod in modules:
            ns = vars(mod)
            for attr, val in list(ns.items()):
                wrapped = targets.get(id(val))
                if wrapped is not None:
                    self._restore.append((ns, attr, val))
                    ns[attr] = wrapped
        graph_cls = lib.graphs.Graph
        for attr in GRAPH_COUNTED + GRAPH_TIMED:
            fn = graph_cls.__dict__[attr]
            self._restore.append((graph_cls, attr, fn))
            if attr in GRAPH_COUNTED:
                setattr(graph_cls, attr, self._counter(fn, f"graphs.{attr}"))
            else:
                setattr(graph_cls, attr, self._timed(fn, f"graphs.{attr}"))

    def uninstall(self) -> None:
        for where, attr, val in reversed(self._restore):
            if isinstance(where, dict):
                where[attr] = val
            else:
                setattr(where, attr, val)
        self._restore = []

    # -- wrappers --------------------------------------------------------------

    def _counter(self, fn, name: str):
        tracer = self
        calls = name + ".calls"
        if name == "berge.derive_split":
            hits = name + ".hits"

            def counted_split(*a, **k):
                cur = tracer.cur
                cur[calls] = cur.get(calls, 0) + 1
                out = fn(*a, **k)
                if out is not None:
                    cur[hits] = cur.get(hits, 0) + 1
                return out
            return counted_split

        def counted(*a, **k):
            cur = tracer.cur
            cur[calls] = cur.get(calls, 0) + 1
            return fn(*a, **k)
        return counted

    def _enter(self, name: str):
        parent = self._stack[-1] if self._stack else None
        frame = [0.0, -1]
        self._stack.append(frame)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        return parent, frame, depth

    def _leave(self, name: str, module: str, parent, frame, depth: int, dur: float) -> None:
        self._stack.pop()
        self._depth[name] = depth
        if parent is not None:
            parent[0] += dur
        cur = self.cur
        _add(cur, module + ".self_s", dur - frame[0])
        if depth == 0:
            _add(cur, name + ".busy_s", dur)

    def _timed(self, fn, name: str):
        tracer = self
        module = name.split(".")[0]
        calls = name + ".calls"

        def timed(*a, **k):
            _add(tracer.cur, calls)
            parent, frame, depth = tracer._enter(name)
            start = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                tracer._leave(name, module, parent, frame, depth, time.perf_counter() - start)
        return timed

    def _span(self, fn, module: str, name: str):
        tracer = self
        calls = name + ".calls"
        group = GROUPS.get(name)
        post = _POST_HOOKS.get(name)

        def segment(call):
            parent, frame, depth = tracer._enter(name)
            gdepth = 0
            if group is not None:
                gdepth = tracer._depth.get(group, 0)
                tracer._depth[group] = gdepth + 1
            span = [name, time.perf_counter(), None,
                    parent[1] if parent is not None else -1, tracer.instance]
            frame[1] = len(tracer.spans)
            tracer.spans.append(span)
            try:
                return call()
            finally:
                span[2] = end = time.perf_counter()
                dur = end - span[1]
                tracer._leave(name, module, parent, frame, depth, dur)
                if group is not None:
                    tracer._depth[group] = gdepth
                    if gdepth == 0:
                        _add(tracer.cur, group + ".busy_s", dur)

        if inspect.isgeneratorfunction(fn):
            def spanned_gen(*a, **k):
                _add(tracer.cur, calls)
                gen = fn(*a, **k)
                while True:
                    try:
                        item = segment(lambda: next(gen))
                    except StopIteration:
                        return
                    yield item
            return spanned_gen

        def spanned(*a, **k):
            _add(tracer.cur, calls)
            out = segment(lambda: fn(*a, **k))
            if post is not None:
                post(tracer.cur, out)
            return out
        return spanned


def _route(cur: dict, ans) -> None:
    _add(cur, "berge.route.answers")
    if ans.tree.kind == "join":
        _add(cur, "berge.route.join")
    if ans.complemented:
        _add(cur, "berge.route.complemented")


def _kind(cur: dict, res) -> None:
    _add(cur, f"kintree.kind.{res.kind}.count")


_POST_HOOKS = {"berge.berge_alpha_omega": _route, "kintree.k_in_a_tree": _kind}
