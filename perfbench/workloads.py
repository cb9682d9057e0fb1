"""The benchmark's workloads, each run in a fresh interpreter.

``run.py`` starts this file once per measurement, so module caches in the
package (interning table, trace and subgoal caches) start cold, as they do
for a user of the command-line tool.  They are never reset in between.

Protocol: the child prints ``READY`` and its scaled CPU time so far (see
``speed.py``) on stdout when its set-up is done, then (unless
``--setup-only``) runs the timed phase and the output checks and prints
one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

import speed  # noqa: E402  (before the package: the set-up is timed from here)

START_PROBE = speed.probe()

sys.path.insert(0, str(ROOT / "src"))

import speedup_learning  # noqa: E402  (needs the path above)

if Path(speedup_learning.__file__).resolve().parent != (ROOT / "src" / "speedup_learning").resolve():
    raise SystemExit(f"speedup_learning imported from {speedup_learning.__file__}, not from {ROOT / 'src'}")

from speedup_learning import (  # noqa: E402
    control_rules,
    core,
    eight_puzzle,
    grammar,
    harness,
    integration,
    macro_tables,
)

from tracing import Tracer  # noqa: E402

PACKAGE_MODULES = {
    "harness": harness, "integration": integration, "control_rules": control_rules,
    "grammar": grammar, "macro_tables": macro_tables, "eight_puzzle": eight_puzzle,
    "core": core, "speedup_learning": speedup_learning,
}

FAILED = object()


def digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


def percentile(values, pct: float) -> float:
    """The pct-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Ctx:
    """Bookkeeping for one run: work time, latencies, outputs and checks.

    Work time is CPU time of this process (``time.process_time``), summed
    over the package calls made through ``call`` and scaled to a reference
    machine speed (``speed.py``); the benchmark's own checks, input
    generation and speed probes are outside it.  The work is
    single-threaded and CPU-bound, so CPU time leaves out only the time the
    process waits for a CPU, which on a shared machine is noise.  ``call``
    returns a sample, the call's probe segment and unscaled CPU seconds;
    ``ms`` scales it once the segment's closing probe is known.

    With ``fixed_only`` (the traced run) the timed phase does only the
    workload's fixed minimum of work, so per-layer figures cover the same
    work in every run whatever the speed of the code.
    """

    def __init__(self, seed: int, seconds: float, smoke: bool, fixed_only: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.fixed_only = fixed_only
        self.units = 0  # what items_per_s counts (trials, calls, boards, tokens)
        self.latencies: list = []  # samples of one unit each
        self.raw_s = 0.0  # unscaled CPU seconds of every package call
        self.speed = speed.SpeedLog()
        self.segment_raw_s: dict = {}  # unscaled CPU seconds of counted work per segment
        self.counting = True  # whether calls count as work (work_s)
        self.ops = 0
        self.checks = 0
        self.failed = 0
        self.errors: list = []
        self.digests: list = []
        self.work_marks: list = []
        self.accuracy = None
        self.extra: dict = {}
        self.inputs_seen: set = set()
        self.input_draws = 0
        self.phase_start = 0.0
        self.tracer = None
        self.rss_mb = None

    def paused(self):
        """Keep the benchmark's own checks out of the trace."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def call(self, fn, *args):
        """Time one package call; an exception counts as a failed operation.
        Returns the result and the call's sample."""
        self.ops += 1
        segment = self.speed.before()
        t0 = time.process_time()
        try:
            result = fn(*args)
        except Exception as exc:  # every raising input is counted, not fatal
            result = FAILED
            self.fail(f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}"[:300])
        raw = time.process_time() - t0
        self.speed.after(raw)
        self.raw_s += raw
        if self.counting:
            self.segment_raw_s[segment] = self.segment_raw_s.get(segment, 0.0) + raw
        return result, (segment, raw)

    def ms(self, sample) -> float:
        """Scaled milliseconds of one sample."""
        segment, raw = sample
        return raw * self.speed.factor(segment) * 1e3

    def work_s(self) -> float:
        """Scaled CPU seconds of the counted work."""
        return sum(raw * self.speed.factor(k) for k, raw in self.segment_raw_s.items())

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: str):
        self.checks += 1
        if not ok:
            self.fail(message)

    def output(self, value):
        self.digests.append(digest(value))
        self.work_marks.append(self.raw_s)

    def saw_input(self, key):
        self.input_draws += 1
        self.inputs_seen.add(key)

    def repeat_share(self) -> float:
        """Share of drawn inputs already drawn earlier in this run."""
        return 1.0 - len(self.inputs_seen) / self.input_draws if self.input_draws else 0.0

    def fixed_done(self):
        """Mark the end of the fixed minimum of work (the first call counts).

        Peak memory is taken here, so it does not grow with how fast the
        code or the machine happened to be."""
        if self.rss_mb is None:
            self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def start_phase(self):
        self.phase_start = time.perf_counter()

    def remaining(self) -> float:
        """Wall seconds left in the timed phase (none in a fixed-only run)."""
        if self.fixed_only:
            return 0.0
        return self.seconds - (time.perf_counter() - self.phase_start)

    def time_left(self) -> bool:
        return self.remaining() > 0.0


def item_seed(seed: int, k: int) -> int:
    return seed * 1_000_000 + k


class Workload:
    """``setup`` builds what the timed phase needs, ``run`` is the timed
    phase, ``verify`` runs the checks that need the finished run."""

    tail_pct: float

    def setup(self, ctx):
        return None

    def run(self, ctx, state):
        raise NotImplementedError

    def verify(self, ctx, state):
        pass


# ---------------------------------------------------------------------------
# integration-curve: the default learn-and-score path at reduced size
# ---------------------------------------------------------------------------

ICURVE = dict(train_max=30, eval_every=3, test_set_size=30)
PCURVE = dict(train_max=40, eval_every=2, test_set_size=100)
PINNED = {
    "integration": (ICURVE, 3, HERE / "pinned" / "integration-curve-seed0.csv"),
    "eightpuzzle": (PCURVE, 3, HERE / "pinned" / "puzzle-curve-seed0.csv"),
}


def _curve_items(ctx, domain, cfg_fields, min_items):
    finals = []
    k = 0
    expected_grid = list(range(cfg_fields["eval_every"], cfg_fields["train_max"] + 1,
                               cfg_fields["eval_every"]))
    while k < min_items or ctx.time_left():
        cfg = harness.ExperimentConfig(domain, trials=1, seed=item_seed(ctx.seed, k), **cfg_fields)
        points, dt = ctx.call(harness.run_curve, cfg)
        ctx.units += 1
        ctx.latencies.append(dt)
        k += 1
        if k == min_items:
            ctx.fixed_done()
        if points is FAILED:
            continue
        ctx.output(harness.csv_text(points))
        ctx.check(
            [p.num_examples for p in points] == expected_grid
            and all(0.0 <= p.mean_accuracy <= 1.0 and p.stddev == 0.0 for p in points),
            f"{domain} trial {k - 1}: malformed curve",
        )
        finals.append(points[-1].mean_accuracy)
    ctx.accuracy = statistics.fmean(finals[:min_items]) if finals else 0.0


def _check_pinned_curve(ctx, domain):
    fields, trials, path = PINNED[domain]
    cfg = harness.ExperimentConfig(domain, trials=trials, seed=0, **fields)
    text = harness.csv_text(harness.run_curve(cfg))
    ctx.check(text == path.read_text(encoding="utf-8"),
              f"seed-0 {domain} curve differs from {path.name}")


class IntegrationCurve(Workload):
    """Default integration curve (trace scorer), one trial per item."""

    tail_pct = 80
    min_items = 20

    def run(self, ctx, state):
        _curve_items(ctx, "integration", ICURVE, 4 if ctx.smoke else self.min_items)

    def verify(self, ctx, state):
        _check_pinned_curve(ctx, "integration")
        rdomain = integration.IntegrationRuleDomain()
        for k in range(3):
            rng = random.Random(f"{ctx.seed}:{k}:consistency")
            learner = control_rules.IncrementalRuleLearner(rdomain)
            sample = []
            for _ in range(ICURVE["train_max"]):
                p = integration.generate_problem(rng)
                sample.append(core.Example(p, integration.teacher_solve(p)))
                learner.add_example(sample[-1])
            rules = learner.ruleset()
            ctx.check(core.is_consistent(lambda x: control_rules.rule_solve(rules, rdomain, x), sample),
                      f"integration learner {k} does not reproduce its training examples")


# ---------------------------------------------------------------------------
# integration-solve: the learned rule solver run literally
# ---------------------------------------------------------------------------

SOLVE_COUNTS = (1, 2, 4, 8, 16, 30)
SOLVE_HELD_OUT = 16
STATUSES = ("solved", "no_match", "step_limit", "diverged")


class IntegrationSolve(Workload):
    """Learners at several example counts; rule_solve_ex against the teacher.

    The run does a fixed six rounds, about 15 s on the machine the bounds
    were measured on, whatever ``--seconds`` says: learners of different
    rounds cost differently, so a run that went on while time was left
    would mix in more learners the faster the code ran.  Round r trains its
    learner on the same example stream in every run, and the seed draws
    the held-out problems.  Which problems a partly trained
    learner diverges on depends mostly on the learner, so drawing learners
    from the seed would make the run-to-run spread mostly about learners.
    As ``control_rules.learn_rules`` does, every learner snapshot is checked
    for consistency on its own training examples before it is used; that
    check is part of the timed work.
    """

    tail_pct = 95
    min_items = 6 * len(SOLVE_COUNTS) * SOLVE_HELD_OUT  # six rounds

    def setup(self, ctx):
        return {"rdomain": integration.IntegrationRuleDomain()}

    def run(self, ctx, state):
        rdomain = state["rdomain"]
        goal_domain = integration.domain_spec()
        results = []  # (status, exact, rule_solve_ex sample, teacher_solve sample) per held-out problem
        min_items = len(SOLVE_COUNTS) * SOLVE_HELD_OUT if ctx.smoke else self.min_items
        r = 0
        while ctx.units < min_items:
            train_rng = random.Random(f"learner:{r}")
            learner = control_rules.IncrementalRuleLearner(rdomain)
            sample = []
            for count in SOLVE_COUNTS:
                while len(sample) < count:
                    p, _ = ctx.call(integration.generate_problem, train_rng)
                    sol, _ = ctx.call(integration.teacher_solve, p)
                    sample.append(core.Example(p, sol))
                    ctx.call(learner.add_example, sample[-1])
                rules = learner.ruleset()
                consistent, _ = ctx.call(
                    core.is_consistent,
                    lambda x: control_rules.rule_solve(rules, rdomain, x), tuple(sample))
                ctx.check(consistent is True,
                          f"learner with {len(sample)} examples does not reproduce them")
                test_rng = random.Random(f"{ctx.seed}:{r}:{count}:test")
                for _ in range(SOLVE_HELD_OUT):
                    q, _ = ctx.call(integration.generate_problem, test_rng)
                    got, dt = ctx.call(control_rules.rule_solve_ex, rules, rdomain, q)
                    ctx.units += 1
                    ctx.latencies.append(dt)
                    expected, t_dt = ctx.call(integration.teacher_solve, q)
                    if got is FAILED:
                        results.append((None, False, dt, t_dt))
                        continue
                    produced, st = got
                    ctx.output((produced, st))
                    results.append((st, produced is not core.BOTTOM and produced == expected,
                                    dt, t_dt))
                    if st == "solved":
                        with ctx.paused():
                            reached = goal_domain.goal_test(core.replay(goal_domain, q, produced)[-1])
                        ctx.check(reached, f"solved result for {integration.to_text(q)} does not reach a goal")
            r += 1
        ctx.fixed_done()
        ctx.accuracy = sum(w[1] for w in results) / len(results) if results else 0.0
        ctx.extra.update({
            "status": {st: sum(w[0] == st for w in results) for st in STATUSES},
            "rule_p50_ms": percentile([ctx.ms(w[2]) for w in results], 50),
            "rule_tail_ms": percentile([ctx.ms(w[2]) for w in results], self.tail_pct),
            "teacher_p50_ms": percentile([ctx.ms(w[3]) for w in results], 50),
        })


# ---------------------------------------------------------------------------
# puzzle-curve: the default Eight Puzzle curve, one trial per item
# ---------------------------------------------------------------------------


class PuzzleCurve(Workload):
    """Default Eight Puzzle curve (trajectory scorer), one trial per item."""

    tail_pct = 80
    min_items = 20

    def setup(self, ctx):
        harness.target_puzzle_table()

    def run(self, ctx, state):
        _curve_items(ctx, "eightpuzzle", PCURVE, 4 if ctx.smoke else self.min_items)

    def verify(self, ctx, state):
        _check_pinned_curve(ctx, "eightpuzzle")
        dom = eight_puzzle.domain_spec()
        ordering = eight_puzzle.blank_first_ordering()
        for k in range(3):
            rng = random.Random(f"{ctx.seed}:{k}:consistency")
            teacher = macro_tables.MacroTable(9, 9, eight_puzzle.GOAL, ordering)
            learned = macro_tables.MacroTable(9, 9, eight_puzzle.GOAL, ordering)
            sample = []
            for _ in range(PCURVE["train_max"]):
                b = eight_puzzle.random_solvable(rng)
                sample.append(core.Example(b, eight_puzzle.integrated_teacher(b, teacher)))
                macro_tables.serial_parse_into(learned, dom, sample[-1])
            ctx.check(core.is_consistent(lambda b: macro_tables.macro_solve(learned, dom, b), sample),
                      f"puzzle learner {k} does not reproduce its training examples")


# ---------------------------------------------------------------------------
# puzzle-statespace: read-only checks over the whole state space
# ---------------------------------------------------------------------------

STATESPACE_CHUNK = 1000


class PuzzleStatespace(Workload):
    """Decomposability, table verification and macro_solve over a seeded
    share of the 181 440 boards, in chunks; one item per board."""

    tail_pct = 99
    min_items = STATESPACE_CHUNK

    def setup(self, ctx):
        boards = sorted(eight_puzzle.all_solvable_boards())
        table = eight_puzzle.build_exhaustive_table()
        ctx.check(len(boards) == 181440, f"state space has {len(boards)} boards, not 181440")
        ctx.check(table.filled_count() == 44 and table.nonempty_count() == 35,
                  f"exhaustive table has {table.filled_count()} cells, "
                  f"{table.nonempty_count()} nonempty (want 44/35)")
        random.Random(ctx.seed).shuffle(boards)
        return {"boards": boards, "table": table, "domain": eight_puzzle.domain_spec()}

    def run(self, ctx, state):
        boards, table, dom = state["boards"], state["table"], state["domain"]
        first, last = eight_puzzle.blank_first_ordering(), eight_puzzle.blank_last_ordering()
        chunk_size = 200 if ctx.smoke else STATESPACE_CHUNK
        solved = counted = 0
        start = 0
        while start == 0 or ctx.time_left():
            chunk = boards[start:start + chunk_size]
            start = (start + chunk_size) % len(boards)
            for b in chunk:
                ctx.saw_input(b)
            verdict, _ = ctx.call(macro_tables.check_serial_decomposability, dom, first, chunk)
            ctx.check(verdict is not FAILED and verdict[0], "blank-first ordering not decomposable")
            verdict, _ = ctx.call(macro_tables.check_serial_decomposability, dom, last, chunk)
            ctx.check(verdict is not FAILED and not verdict[0], "blank-last ordering decomposable")
            verdict, _ = ctx.call(macro_tables.verify_table, table, dom, chunk)
            ctx.check(verdict is not FAILED and verdict[0], f"verify_table failed: {verdict!r}"[:300])
            outputs = []
            for b in chunk:
                sol, dt = ctx.call(macro_tables.macro_solve, table, dom, b)
                ctx.units += 1
                ctx.latencies.append(dt)
                ok = sol is not FAILED and sol is not core.BOTTOM
                if ok:
                    x = b
                    for op, _ in sol:
                        x = eight_puzzle.apply_move(x, eight_puzzle.MOVE_LETTERS[op - 1])
                    ok = x == eight_puzzle.GOAL
                ctx.check(ok, f"macro_solve fails on board {b}")
                if counted < self.min_items:
                    counted += 1
                    solved += ok
                outputs.append(sol)
            ctx.output(outputs)
            ctx.fixed_done()
        ctx.accuracy = solved / counted


# ---------------------------------------------------------------------------
# grammar-long: Earley parsing, msg and membership on long sentences
# ---------------------------------------------------------------------------

# Sum lengths (in terms) of one cycle.  An odd number of rungs: latency
# rises steeply from rung to rung, and with an even number the median would
# fall between two rungs and jump between them from run to run.
LADDER = (2, 4, 8, 16, 32)
# per-layer parse cost by rung: name suffix -> rungs
RUNG_GROUPS = (("terms2-8", (2, 4, 8)), ("terms16", (16,)), ("terms32", (32,)))


def sentence(rng: random.Random, terms: int) -> tuple:
    """``∫ t1 ± t2 ± ... d x`` with right-nested sums of varied terms."""
    I = integration

    def term():
        base = rng.choice((I.sinx, I.cosx, lambda: I.VAR_X, lambda: I.named(rng.choice("ak")),
                           lambda: I.num(rng.randrange(100)), lambda: I.neg(I.VAR_X)))()
        if rng.random() < 0.6:
            return I.mul(base, I.powx(I.num(rng.randrange(2, 10))))
        return base

    e = term()
    for _ in range(terms - 1):
        e = (I.add if rng.random() < 0.7 else I.sub)(term(), e)
    return tuple(I.to_tokens(I.integral(e)))


class GrammarLong(Workload):
    """parse, msg and membership on integration sentences, from short to as
    long as the run time allows.

    The first cycle walks the ladder; that is the fixed minimum of work.
    Then the ascent doubles the length beyond the ladder for as long as the
    next rung's predicted cost (the last rung's cost times the growth from
    the rung before) fits in the time left, so a faster parser reaches
    longer sentences; nothing caps the length below the parser's
    ``RecursionError`` depth.  Further ladder cycles fill the rest of the
    run.  The end-to-end figures (tokens parsed per second and latency per
    operation) cover the ladder rungs only: the ascent's length depends on
    the speed of the code, so counting it would make a faster parser read as
    a slower one.  The ascent reports the longest sentence parsed, and every
    failure in it counts as a failed operation.
    """

    tail_pct = 92

    def run(self, ctx, state):
        G = integration.GRAMMAR
        parse_cost = {terms: [[], 0] for terms in LADDER}  # parse samples and tokens parsed
        first = []  # (unscaled CPU s, tokens parsed) of each rung of the first cycle
        cycle = 0
        while cycle == 0 or ctx.time_left():
            for terms in LADDER:
                done = self._rung(ctx, G, f"{ctx.seed}:{cycle}:{terms}", terms, parse_cost[terms])
                if cycle == 0:
                    first.append(done or (0.0, 0))
            if cycle == 0:
                ctx.fixed_done()
                ctx.extra["longest_tokens"] = self._ascend(ctx, G, first[-2][0], *first[-1])
            cycle += 1
        ctx.accuracy = 1.0 - ctx.failed / max(1, ctx.checks + ctx.ops)
        ctx.extra["parse_us_per_token"] = {
            label: sum(ctx.ms(x) for t in rungs for x in parse_cost[t][0])
            / max(1, sum(parse_cost[t][1] for t in rungs)) * 1e3
            for label, rungs in RUNG_GROUPS}

    def _ascend(self, ctx, G, prev, last, longest):
        """Rungs beyond the ladder; their work does not count in ``work_s``.
        ``prev`` and ``last`` are unscaled CPU seconds, to compare with the
        wall time left.  Returns the length in tokens of the longest
        sentence parsed."""
        ctx.counting = False
        terms = LADDER[-1]
        while prev > 0 and last * max(2.0, last / prev) <= ctx.remaining():
            terms *= 2
            done = self._rung(ctx, G, f"{ctx.seed}:ascent:{terms}", terms, None)
            if done is None:
                break
            (prev, last), longest = (last, done[0]), done[1]
        ctx.counting = True
        return longest

    def _rung(self, ctx, G, key, terms, parse_cost):
        """Parse one sentence, take the msg of it and a second one, and check
        both are members.  Returns (unscaled CPU seconds, tokens parsed), or None if
        anything failed.  ``parse_cost`` None means an ascent rung, which
        adds no units or latency samples."""
        rng = random.Random(key)
        try:
            s1, s2 = sentence(rng, terms), sentence(rng, terms)
        except Exception as exc:  # the sentence builder is package code too
            ctx.check(False, f"building a {terms}-term sentence raised {type(exc).__name__}")
            return None
        ctx.saw_input(s1)
        ctx.saw_input(s2)
        failed, raw_s = ctx.failed, ctx.raw_s
        tree, dt = self._op(ctx, parse_cost is not None, len(s1), grammar.parse, G, s1)
        if parse_cost is not None:
            parse_cost[0].append(dt)
            parse_cost[1] += len(s1)
        if tree is not FAILED:
            ctx.check(grammar.tree_yield(tree) == s1, f"parse yield differs ({len(s1)} tokens)")
            ctx.output(len(s1))
        form, _ = self._op(ctx, parse_cost is not None, len(s1) + len(s2), grammar.msg, G, [s1, s2])
        if form is not FAILED:
            ctx.output(form.symbols)
            for s in (s1, s2):
                member, _ = self._op(ctx, parse_cost is not None, len(s), grammar.membership, G, form, s)
                if member is not FAILED:
                    ctx.check(member is True, f"msg input is not a member ({len(s)} tokens)")
        return (ctx.raw_s - raw_s, len(s1)) if ctx.failed == failed else None

    @staticmethod
    def _op(ctx, timed, tokens, fn, *args):
        result, dt = ctx.call(fn, *args)
        if timed:
            ctx.units += tokens
            ctx.latencies.append(dt)
        return result, dt


WORKLOADS = {
    "integration-curve": IntegrationCurve,
    "integration-solve": IntegrationSolve,
    "puzzle-curve": PuzzleCurve,
    "puzzle-statespace": PuzzleStatespace,
    "grammar-long": GrammarLong,
}


# ---------------------------------------------------------------------------
# Tracing hooks and per-layer metrics
# ---------------------------------------------------------------------------


def make_tracer(run_id: str, ctx: Ctx, workload: str):
    """The tracer plus the figures its hooks collect: repeated teacher_trace
    arguments and, on the workloads that draw inputs inside the package,
    the drawn inputs."""
    trace_args: set = set()
    repeats = [0]

    def on_teacher_trace(args, result, d):
        if args[0] in trace_args:
            repeats[0] += 1
        else:
            trace_args.add(args[0])

    def on_draw(args, result, d):
        ctx.saw_input(result)

    hooks = {"integration.teacher_trace": on_teacher_trace}
    if workload in ("integration-curve", "integration-solve"):
        hooks["integration.generate_problem"] = on_draw
    if workload == "puzzle-curve":
        hooks["eight_puzzle.random_solvable"] = on_draw
    tracer = Tracer(run_id, durations_for=("integration.teacher_trace",), hooks=hooks)
    return tracer, {"trace_repeats": repeats}


def plain_metrics(ctx: Ctx) -> dict:
    """Per-layer figures the workload loops measure themselves, so that the
    untraced run can report them: latencies without tracing overhead, and
    the longest sentence parsed in the time the run allows."""
    status = ctx.extra.get("status", {})
    m = {
        "integration.teacher_solve.p50_ms": (ctx.extra.get("teacher_p50_ms", 0.0), "ms"),
        "control_rules.rule_solve.p50_ms": (ctx.extra.get("rule_p50_ms", 0.0), "ms"),
        "control_rules.rule_solve.tail_ms": (ctx.extra.get("rule_tail_ms", 0.0), "ms"),
    }
    for st in STATUSES:
        m[f"control_rules.rule_solve.status.{st}"] = (status.get(st, 0), "count")
    per_token = ctx.extra.get("parse_us_per_token", {})
    for label, _ in RUNG_GROUPS:
        m[f"grammar.parse.us_per_token.{label}"] = (per_token.get(label, 0.0), "us")
    m["grammar.parse.longest_tokens"] = (ctx.extra.get("longest_tokens", 0), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def layer_metrics(tracer: Tracer, probes: dict, ctx: Ctx) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def stat(name):
        return tracer.stats.get(name)

    counted = (
        "harness.run_curve", "integration.teacher_trace", "integration.teacher_solve",
        "integration.generate_problem", "integration.unit_matches",
        "control_rules.add_example", "control_rules.rule_solve_ex", "grammar.parse",
        "grammar.msc", "grammar.msg", "grammar.membership",
        "macro_tables.serial_parse_into", "macro_tables.macro_solve",
        "macro_tables.check_serial_decomposability", "macro_tables.verify_table",
        "eight_puzzle.random_solvable", "eight_puzzle.table_trajectory",
        "eight_puzzle.integrated_teacher", "eight_puzzle.ida_star_subgoal",
        "eight_puzzle.all_solvable_boards", "eight_puzzle.build_exhaustive_table",
        "core.replay",
    )
    for name in counted:
        s = stat(name)
        label = "control_rules.rule_solve" if name == "control_rules.rule_solve_ex" else name
        put(f"{label}.calls", s.calls, "count")
        put(f"{label}.busy_s", s.busy, "s")

    tt = stat("integration.teacher_trace")
    put("integration.teacher_trace.p50_us", percentile(tt.durations, 50) * 1e6, "us")
    put("integration.teacher_trace.repeat_share",
        probes["trace_repeats"][0] / tt.calls if tt.calls else 0.0, "share")
    put("integration.intern_size", len(integration.Expr._interned), "count")
    put("grammar.parse.failed", stat("grammar.parse").errors, "count")

    walks = stat("eight_puzzle.integrated_teacher").calls * eight_puzzle.N_TILES
    searched = tracer.parent_calls.get(
        ("eight_puzzle.integrated_teacher", "eight_puzzle.ida_star_subgoal"), 0)
    put("eight_puzzle.teacher.search_share", searched / walks if walks else 0.0, "share")

    for layer, self_s in tracer.layer_self_times().items():
        put(f"layer.{layer}.self_s", self_s, "s")
    put("trace.wall_s", tracer.wall, "s")
    put("trace.spans", sum(s.calls for s in tracer.stats.values()), "count")
    put("workload.repeat_share", ctx.repeat_share(), "share")
    put("workload.distinct_inputs", len(ctx.inputs_seen), "count")
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    # a traced run does the fixed minimum of work only (see Ctx)
    ctx = Ctx(args.seed, args.seconds, args.smoke, fixed_only=bool(args.trace))
    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        run_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
        tracer, probes = make_tracer(run_id, ctx, args.workload)
        ctx.tracer = tracer
        tracer.install(PACKAGE_MODULES)
        tracer.begin()

    state = workload.setup(ctx)
    # CPU seconds since the interpreter started (imports plus set-up), scaled
    # by the mean of the probes at the start and the end of the set-up
    setup_probe = (START_PROBE + speed.probe()) / 2
    print(f"READY {time.process_time() * speed.REF_PROBE_S / setup_probe!r}", flush=True)
    if args.setup_only:
        return 0

    ctx.start_phase()
    workload.run(ctx, state)
    if tracer is not None:
        tracer.finish()
        tracer.uninstall()
    phase_wall = time.perf_counter() - ctx.phase_start
    ctx.fixed_done()
    latencies_ms = [ctx.ms(x) for x in ctx.latencies]

    workload.verify(ctx, state)

    result = {
        "units": ctx.units,
        "work_s": ctx.work_s(),
        "raw_s": ctx.raw_s,
        "probe_median_us": statistics.median(ctx.speed.probes) * 1e6,
        "setup_probe_us": setup_probe * 1e6,
        "phase_wall_s": phase_wall,
        "latencies": len(latencies_ms),
        "p50_ms": percentile(latencies_ms, 50),
        "tail_ms": percentile(latencies_ms, workload.tail_pct),
        "tail_pct": workload.tail_pct,
        "peak_rss_mb": ctx.rss_mb,
        "accuracy": ctx.accuracy,
        "attempted": ctx.ops + ctx.checks,
        "failed": ctx.failed,
        "errors": ctx.errors,
        "digests": ctx.digests,
        "work_marks": ctx.work_marks,
        "repeat_share": ctx.repeat_share() if ctx.input_draws else None,
        "distinct_inputs": len(ctx.inputs_seen) if ctx.input_draws else None,
        "plain": plain_metrics(ctx),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, probes, ctx)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        result["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
