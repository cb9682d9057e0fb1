"""Compare two checkouts of the repository in alternating pairs.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR --workload NAME [--pairs 10]

Both directories must hold the same benchmark (identical ``perfbench``
files); only the package under ``src/`` may differ.  Pair i runs the
benchmark once in each checkout with seed ``--seed-start + i`` and the
run length ``run_seconds`` from ``BENCHMARK.json``, the base
first in even pairs and the change first in odd ones.  For each end-to-end
metric it prints both sides' medians and quartiles, how many pairs the
change won (ties count for neither) and whether the change's median is
worse than the base's by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, WORKLOADS


def bench_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in [root / "BENCHMARK.json", *sorted((root / "perfbench").glob("**/*"))]:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_once(root: Path, workload: str, seed: int, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, encoding="utf-8",
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: benchmark failed (exit {proc.returncode})\n{proc.stdout}{proc.stderr}")
    return {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1000)
    args = ap.parse_args(argv)

    if bench_digest(args.base) != bench_digest(args.change):
        raise SystemExit("the two checkouts hold different benchmark files; "
                         "copy one perfbench/ and BENCHMARK.json into both")
    seconds = json.loads((args.base / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            root = args.base if side == "base" else args.change
            runs[side].append(run_once(root, args.workload, args.seed_start + i, seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}: {args.pairs} alternating pairs, {seconds} s runs")
    for name, unit, better, bound in END_TO_END:
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(b, c))
        mb, mc = statistics.median(b), statistics.median(c)
        qb = statistics.quantiles(b, n=4) if len(b) > 1 else [mb, mb, mb]
        qc = statistics.quantiles(c, n=4) if len(c) > 1 else [mc, mc, mc]
        worse = sign * (mb - mc) / mb if mb else 0.0
        print(f"  {name} ({unit}, {better} is better): base {mb:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
              f"  change {mc:.6g} [{qc[0]:.6g}, {qc[2]:.6g}]  change won {wins}/{args.pairs}"
              f"  change worse by {worse:+.1%}: {'REGRESSION' if worse > bound else 'within'} "
              f"bound {bound:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
