"""Benchmark of the speedup-learning workbench.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each measurement runs in a fresh interpreter (``workloads.py``), so the
package's module caches start cold.  With ``--trace 0`` the command prints
the end-to-end metrics; with ``--trace 1`` it runs the workload once
untraced and once traced, checks that both produce the same outputs, and
prints the per-layer metrics.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (unit of work, why the workload exists)
WORKLOADS = {
    "integration-curve": ("curve trials", "Default integration learning curve (trace scorer) at "
                          "reduced size: teacher_trace and cap matching dominate; home of the "
                          "memoized-engine work."),
    "integration-solve": ("rule_solve_ex calls", "Learned rule solver run literally on held-out "
                          "problems against the teacher: control rules and unit matching "
                          "dominate; diverging solves set the tail."),
    "puzzle-curve": ("curve trials", "Default Eight Puzzle learning curve: table trajectories, "
                     "random boards and serial parsing, with no integration or grammar work."),
    "puzzle-statespace": ("boards", "Read-only state-space checks: serial decomposability, table "
                          "verification and macro_solve over a seeded share of the 181 440 "
                          "boards."),
    "grammar-long": ("tokens", "The only parsing workload: Earley parse, msg and membership on "
                     "integration sentences of 2 to 32 terms, plus an ascent to the longest "
                     "length the run time allows."),
}

# name, unit, better, bound (share of the parent's median it may worsen by).
# Times are CPU seconds of the measuring interpreter, scaled to a reference
# machine speed (see speed.py and workloads.Ctx).
END_TO_END = (
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("accuracy", "share", "higher", 0.2),
    ("setup_s", "s", "lower", 0.25),
)

# name, unit, better, what it should move: "<end-to-end metric> on <workload>".
# Counts, busy and self times come from the traced run, which does only the
# workload's fixed minimum of work, so a call count changes only when the
# code makes more or fewer calls for the same work.  Latencies, statuses
# and grammar.parse.longest_tokens come from the untraced run.
PER_LAYER = (
    ("integration.teacher_trace.calls", "count", "lower", "items_per_s on integration-curve"),
    ("integration.teacher_trace.busy_s", "s", "lower", "items_per_s on integration-curve"),
    ("integration.teacher_trace.p50_us", "us", "lower", "items_per_s on integration-curve"),
    ("integration.teacher_trace.repeat_share", "share", "lower", "items_per_s on integration-curve; repeated calls are work a cache could skip"),
    ("integration.teacher_solve.calls", "count", "lower", "items_per_s on integration-solve"),
    ("integration.teacher_solve.busy_s", "s", "lower", "items_per_s on integration-solve"),
    ("integration.teacher_solve.p50_ms", "ms", "lower", "nothing end to end; teacher side of the solver gap"),
    ("integration.generate_problem.calls", "count", "lower", "item_p50_ms on integration-solve"),
    ("integration.generate_problem.busy_s", "s", "lower", "item_p50_ms on integration-solve"),
    ("integration.unit_matches.calls", "count", "lower", "item_tail_ms on integration-solve"),
    ("integration.unit_matches.busy_s", "s", "lower", "item_tail_ms on integration-solve"),
    ("integration.intern_size", "count", "lower", "peak_rss_mb on integration-curve"),
    ("control_rules.add_example.calls", "count", "lower", "items_per_s on integration-solve"),
    ("control_rules.add_example.busy_s", "s", "lower", "items_per_s on integration-solve"),
    ("control_rules.rule_solve.calls", "count", "lower", "items_per_s on integration-solve"),
    ("control_rules.rule_solve.busy_s", "s", "lower", "items_per_s on integration-solve"),
    ("control_rules.rule_solve.p50_ms", "ms", "lower", "item_p50_ms on integration-solve"),
    ("control_rules.rule_solve.tail_ms", "ms", "lower", "item_tail_ms on integration-solve"),
    ("control_rules.rule_solve.status.solved", "count", "higher", "accuracy on integration-solve"),
    ("control_rules.rule_solve.status.no_match", "count", "lower", "accuracy on integration-solve"),
    ("control_rules.rule_solve.status.step_limit", "count", "lower", "item_tail_ms on integration-solve"),
    ("control_rules.rule_solve.status.diverged", "count", "lower", "item_tail_ms on integration-solve"),
    ("harness.run_curve.calls", "count", "lower", "items_per_s on integration-curve and puzzle-curve"),
    ("harness.run_curve.busy_s", "s", "lower", "items_per_s on integration-curve and puzzle-curve"),
    ("grammar.parse.calls", "count", "lower", "items_per_s on grammar-long"),
    ("grammar.parse.busy_s", "s", "lower", "items_per_s on grammar-long"),
    ("grammar.parse.failed", "count", "lower", "accuracy on grammar-long"),
    ("grammar.parse.us_per_token.terms2-8", "us", "lower", "item_p50_ms on grammar-long"),
    ("grammar.parse.us_per_token.terms16", "us", "lower", "item_p50_ms on grammar-long"),
    ("grammar.parse.us_per_token.terms32", "us", "lower", "item_tail_ms on grammar-long"),
    ("grammar.parse.longest_tokens", "count", "higher", "nothing end to end; how long a sentence the run time allows"),
    ("grammar.msc.calls", "count", "lower", "items_per_s on grammar-long"),
    ("grammar.msc.busy_s", "s", "lower", "items_per_s on grammar-long"),
    ("grammar.msg.calls", "count", "lower", "items_per_s on grammar-long"),
    ("grammar.msg.busy_s", "s", "lower", "items_per_s on grammar-long"),
    ("grammar.membership.calls", "count", "lower", "items_per_s on grammar-long"),
    ("grammar.membership.busy_s", "s", "lower", "items_per_s on grammar-long"),
    ("eight_puzzle.random_solvable.calls", "count", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.random_solvable.busy_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.table_trajectory.calls", "count", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.table_trajectory.busy_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.integrated_teacher.calls", "count", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.integrated_teacher.busy_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.ida_star_subgoal.calls", "count", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.ida_star_subgoal.busy_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.teacher.search_share", "share", "lower", "items_per_s on puzzle-curve"),
    ("eight_puzzle.all_solvable_boards.calls", "count", "lower", "setup_s on puzzle-statespace"),
    ("eight_puzzle.all_solvable_boards.busy_s", "s", "lower", "setup_s on puzzle-statespace"),
    ("eight_puzzle.build_exhaustive_table.calls", "count", "lower", "setup_s on puzzle-statespace and puzzle-curve"),
    ("eight_puzzle.build_exhaustive_table.busy_s", "s", "lower", "setup_s on puzzle-statespace and puzzle-curve"),
    ("macro_tables.serial_parse_into.calls", "count", "lower", "items_per_s on puzzle-curve"),
    ("macro_tables.serial_parse_into.busy_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("macro_tables.macro_solve.calls", "count", "lower", "items_per_s on puzzle-statespace"),
    ("macro_tables.macro_solve.busy_s", "s", "lower", "items_per_s on puzzle-statespace"),
    ("macro_tables.check_serial_decomposability.calls", "count", "lower", "items_per_s on puzzle-statespace"),
    ("macro_tables.check_serial_decomposability.busy_s", "s", "lower", "items_per_s on puzzle-statespace"),
    ("macro_tables.verify_table.calls", "count", "lower", "items_per_s on puzzle-statespace"),
    ("macro_tables.verify_table.busy_s", "s", "lower", "items_per_s on puzzle-statespace"),
    ("core.replay.calls", "count", "lower", "items_per_s on puzzle-curve"),
    ("core.replay.busy_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("layer.harness.self_s", "s", "lower", "items_per_s on integration-curve and puzzle-curve"),
    ("layer.integration.self_s", "s", "lower", "items_per_s on integration-curve and integration-solve"),
    ("layer.control_rules.self_s", "s", "lower", "items_per_s on integration-solve"),
    ("layer.grammar.self_s", "s", "lower", "items_per_s on grammar-long"),
    ("layer.macro_tables.self_s", "s", "lower", "items_per_s on puzzle-statespace"),
    ("layer.eight_puzzle.self_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("layer.core.self_s", "s", "lower", "items_per_s on puzzle-curve"),
    ("layer.other.self_s", "s", "lower", "nothing end to end; benchmark code and checks"),
    ("trace.wall_s", "s", "lower", "nothing end to end; traced set-up plus the fixed minimum of work"),
    ("trace.spans", "count", "lower", "nothing end to end; spans recorded"),
    ("trace.overhead_share", "share", "lower", "nothing end to end; cost of tracing"),
    ("workload.repeat_share", "share", "higher", "items_per_s where a cache keys on whole inputs"),
    ("workload.distinct_inputs", "count", "higher", "items_per_s where a cache keys on whole inputs"),
)

SETUP_SAMPLES = 5  # interpreters started per untraced run; setup_s is their median
CHILD_BUDGET_S = 170.0  # all children of one run must end within this


class ChildFailed(RuntimeError):
    pass


def run_child(workload, seed, seconds, trace, smoke, setup_only, deadline):
    """Start one workload interpreter; return (its set-up CPU seconds, result or None)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, encoding="utf-8")
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline().split()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "READY":
        raise ChildFailed(f"{workload} interpreter exited with code {proc.returncode}")
    setup_s = float(ready[1])
    if setup_only:
        return setup_s, None
    lines = [line for line in rest.splitlines() if line.strip()]
    if not lines:
        raise ChildFailed(f"{workload} interpreter printed no result")
    return setup_s, json.loads(lines[-1])


def environment() -> dict:
    sources = sorted((ROOT / "src" / "speedup_learning").glob("*.py"))
    h = hashlib.sha256()
    for path in sources:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        "commit": commit,
        "source_sha256": h.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
    }


def measure(workload, seed, seconds, trace, smoke):
    """Run one workload; return (correct, attempted, failed, metrics, notes)."""
    deadline = time.monotonic() + CHILD_BUDGET_S
    notes = []
    if trace:
        _, plain = run_child(workload, seed, seconds, 0, smoke, False, deadline)
        _, traced = run_child(workload, seed, seconds, 1, smoke, False, deadline)
        m = min(len(plain["digests"]), len(traced["digests"]))
        same = m > 0 and plain["digests"][:m] == traced["digests"][:m]
        overhead = traced["work_marks"][m - 1] / plain["work_marks"][m - 1] - 1.0 if m else 0.0
        # latencies the workload loops measure themselves come from the untraced run
        metrics = {**traced["layers"], **plain["plain"]}
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
        notes.append(f"traced outputs identical to untraced on the first {m} outputs: {same}")
        notes.append(f"trace file: {traced['trace_file']}")
        layers = {k[6:-7]: v["value"] for k, v in metrics.items() if k.startswith("layer.")}
        notes.append("self time by layer (s): " + ", ".join(f"{k}={v:.3f}" for k, v in layers.items())
                     + f"; sum={sum(layers.values()):.3f} traced wall={metrics['trace.wall_s']['value']:.3f}")
        runs = (plain, traced)
        correct = same and all(r["failed"] == 0 for r in runs)
        if not same:
            notes.append("ERROR: traced outputs differ from untraced outputs")
    else:
        setups = [run_child(workload, seed, seconds, 0, smoke, True, deadline)[0]
                  for _ in range(0 if smoke else SETUP_SAMPLES - 1)]
        setup_s, res = run_child(workload, seed, seconds, 0, smoke, False, deadline)
        setups.append(setup_s)
        metrics = {
            "items_per_s": res["units"] / res["work_s"],
            "item_p50_ms": res["p50_ms"],
            "item_tail_ms": res["tail_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            "accuracy": res["accuracy"],
            "setup_s": statistics.median(setups),
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        n = res["latencies"]
        beyond = int(n * (100 - res["tail_pct"]) / 100)
        notes.append(f"{res['units']} {WORKLOADS[workload][0]} in {res['work_s']:.3f} s of scaled package "
                     f"time ({res['raw_s']:.3f} s unscaled CPU, {res['phase_wall_s']:.3f} s timed phase)")
        notes.append(f"speed probe: median {res['probe_median_us']:.1f} us in the timed phase, "
                     f"{res['setup_probe_us']:.1f} us over set-up, reference {speed.REF_PROBE_S * 1e6:g} us")
        notes.append(f"latency: {n} samples, tail = p{res['tail_pct']:g} with {beyond} beyond it"
                     + ("" if beyond >= 10 else " (fewer than 10)"))
        notes.append("setup samples (scaled CPU s): " + ", ".join(f"{s:.4f}" for s in setups))
        longest = res["plain"]["grammar.parse.longest_tokens"]["value"]
        if longest:
            notes.append(f"longest sentence parsed: {longest} tokens")
        runs = (res,)
        correct = res["failed"] == 0
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes.append(f"attempted={attempted} failed={failed} error_rate={failed / max(1, attempted):.6f}")
    last = runs[-1]
    if last["repeat_share"] is not None:
        notes.append(f"inputs: repeat_share={last['repeat_share']:.6f} "
                     f"distinct={last['distinct_inputs']}")
    for r in runs:
        notes.extend(f"ERROR: {e}" for e in r["errors"])
    return correct, max(1, attempted), failed, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one set-up sample, for the benchmark's own tests")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = {}
    for name in names:
        try:
            results[name] = measure(name, args.seed, args.seconds, args.trace, args.smoke)
        except (ChildFailed, KeyError, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    env["loadavg_end"] = os.getloadavg()[0]

    print(f"# perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          + (" smoke" if args.smoke else ""))
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (correct, attempted, failed, metrics, notes) in results.items():
        print(f"# workload {name}; correct={correct}")
        for note in notes:
            print(f"#   {note}")
        for metric, mv in metrics.items():
            print(f"#   {metric} = {mv['value']:.6g} {mv['unit']}")

    ok = all(r[0] for r in results.values())
    if len(names) == 1:
        _, attempted, failed, metrics, _ = results[names[0]]
    else:
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r[3].items()}
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
