"""Span tracing around the calls the benchmark makes into the package.

The tracer wraps chosen functions and methods of ``speedup_learning`` in
place, so calls the package makes internally (for example the harness
calling ``integration.teacher_trace``) are timed as well as the calls made
by the benchmark.  The package itself is not modified.

Each call becomes a span: name, start, end, parent span and run id.  Spans
are kept in memory (the first ``keep`` of them in full, every one in the
per-name aggregates) and written out by the caller at the end of the run.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

# (module, qualified attribute) pairs wrapped in a traced run.  Tiny,
# very hot helpers (apply_move, DomainSpec.apply, cap_matches_tree) are
# deliberately absent: wrapping them would multiply the overhead, and their
# time shows up as self time of the span that calls them.  LEAVES call no
# other traced function and run hundreds of thousands of times, so they are
# only counted and timed, without a span record of their own.
LEAVES = {"integration.unit_matches", "integration.is_goal", "integration.state_size"}

TRACED = (
    ("harness", "run_curve"),
    ("harness", "target_puzzle_table"),
    ("integration", "generate_problem"),
    ("integration", "teacher_trace"),
    ("integration", "teacher_solve"),
    ("integration", "IntegrationRuleDomain.unit_matches"),
    ("integration", "IntegrationRuleDomain.apply"),
    ("integration", "IntegrationRuleDomain.is_goal"),
    ("integration", "IntegrationRuleDomain.state_size"),
    ("control_rules", "rule_solve_ex"),
    ("control_rules", "IncrementalRuleLearner.add_example"),
    ("grammar", "parse"),
    ("grammar", "msc"),
    ("grammar", "msg"),
    ("grammar", "membership"),
    ("macro_tables", "serial_parse_into"),
    ("macro_tables", "macro_solve"),
    ("macro_tables", "check_serial_decomposability"),
    ("macro_tables", "verify_table"),
    ("eight_puzzle", "random_solvable"),
    ("eight_puzzle", "table_trajectory"),
    ("eight_puzzle", "integrated_teacher"),
    ("eight_puzzle", "ida_star_subgoal"),
    ("eight_puzzle", "all_solvable_boards"),
    ("eight_puzzle", "build_exhaustive_table"),
    ("core", "replay"),
    ("core", "is_consistent"),
)

LAYERS = ("harness", "integration", "control_rules", "grammar", "macro_tables",
          "eight_puzzle", "core")


def span_name(module: str, attr: str) -> str:
    """``integration.IntegrationRuleDomain.unit_matches`` -> ``integration.unit_matches``."""
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Stat:
    """Aggregates of one span name."""

    __slots__ = ("calls", "errors", "busy", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.errors = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.durations = array("d") if keep_durations else None


class Tracer:
    def __init__(self, run_id: str, keep: int = 50_000, durations_for=(), hooks=None):
        self.run_id = run_id
        self.keep = keep
        self.durations_for = set(durations_for)
        self.hooks = dict(hooks or {})
        self.stats: dict = {}
        self.parent_calls: dict = {}  # (parent name, name) -> calls
        self.spans: list = []
        self.dropped = 0
        self.active = False
        self._stack: list = []  # frames: [child time, span id, name]
        self._next_id = 0
        self._undo: list = []
        self.start = self.end = 0.0

    # -- installation ------------------------------------------------------

    def install(self, package_modules: dict):
        """Wrap every TRACED target and every alias other modules hold of it."""
        for module, attr in TRACED:
            owner = package_modules[module]
            *cls_path, fname = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[fname]
            wrapper = self._wrap(span_name(module, attr), original)
            self._patch(owner, fname, original, wrapper)
            if not cls_path:
                for other in package_modules.values():
                    if other is not owner and other.__dict__.get(fname) is original:
                        self._patch(other, fname, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- recording ---------------------------------------------------------

    def begin(self):
        self.active = True
        self.start = time.perf_counter()

    def finish(self):
        self.end = time.perf_counter()
        self.active = False

    @contextmanager
    def paused(self):
        """Stop recording, e.g. while the benchmark checks outputs."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat(name in self.durations_for))
        hook = self.hooks.get(name)
        perf = time.perf_counter
        stack = self._stack
        tracer = self

        def traced_leaf(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stat.calls += 1
                stat.busy += d
                stat.self_time += d
                if stack:
                    stack[-1][0] += d

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id, name]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                stat.calls += 1
                stat.busy += d
                stat.self_time += d - frame[0]
                if stat.durations is not None:
                    stat.durations.append(d)
                if parent is not None:
                    parent[0] += d
                    key = (parent[2], name)
                    tracer.parent_calls[key] = tracer.parent_calls.get(key, 0) + 1
                if len(tracer.spans) < tracer.keep:
                    tracer.spans.append(
                        (name, t0, t1, None if parent is None else parent[1], tracer.run_id)
                    )
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(args, result, d)
            return result

        wrapper = traced_leaf if name in LEAVES and hook is None else traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- reporting ---------------------------------------------------------

    @property
    def wall(self) -> float:
        return self.end - self.start

    def layer_self_times(self) -> dict:
        """Self time per package module, plus ``other``: the traced wall time
        not covered by any span (benchmark code and paused checks)."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_time
        out["other"] = self.wall - sum(out.values())
        return out

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "wall_s": self.wall,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "unrecorded_leaves": sorted(LEAVES),
            "fields": ["name", "start", "end", "parent", "run_id"],
            "spans": [
                [n, a - self.start, b - self.start, p, r] for n, a, b, p, r in self.spans
            ],
            "stats": {
                n: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_time}
                for n, s in sorted(self.stats.items())
            },
        }
