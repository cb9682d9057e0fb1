"""Reproduce both learning-curve experiments and write CSVs.

Run:  python3 demos/learning_curves.py [--quick]

The full run (50 trials per domain) takes a minute or two; --quick drops to
5 trials for a fast look at the curve shapes.
"""

import argparse
import time

from speedup_learning.harness import ExperimentConfig, csv_text, run_curve


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="5 trials instead of 50")
    args = parser.parse_args()
    trials = 5 if args.quick else 50

    for domain in ("eightpuzzle", "integration"):
        config = ExperimentConfig(domain=domain, trials=trials, seed=0)
        start = time.time()
        points = run_curve(config)
        elapsed = time.time() - start
        with open(f"curve_{domain}.csv", "w", encoding="utf-8") as fh:
            fh.write(csv_text(points))
        print(f"== {domain}: {trials} trials in {elapsed:.1f}s "
              f"-> curve_{domain}.csv ==")
        print(csv_text(points))
        bar_scale = 40
        for p in points:
            bar = "#" * round(p.mean_accuracy * bar_scale)
            print(f"{p.num_examples:>3} |{bar:<{bar_scale}}| {p.mean_accuracy:.3f}")
        print()


if __name__ == "__main__":
    main()
