#!/usr/bin/env python3
"""Paired before/after runs of the repository benchmark.

Usage, from the repository root:

    python3 tools/bench_pairs.py --base REV --workload detect_vary_r \\
        --seeds 1-10 --seconds 10

Exports REV into .bench_pairs/<sha>/ (with `git archive`, so the
repository's worktree list stays untouched) and runs perfbench/run.py once
there and once in this working tree per seed, alternating the order: the
base runs first on odd seeds, the working tree first on even ones, so drift
in machine load falls on both sides alike. A pair counts only when both
runs exit 0 and report `correct` with no failed operation; any other pair
is refused and listed.

For every end-to-end metric that BENCHMARK.json declares it prints, as a
Markdown table: each side's median [q1, q3], the ratio of the medians
(working tree / base), the pairs the working tree won, and the gap between
the medians divided by the base's interquartile range. A claimed gain
should win nearly every pair and clear the base's IQR.

Each side builds once into its own .bench_build/ (the first run pays the
build). No CI step runs this: shared runners are too noisy for it.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench_pairs"


def export_base(rev):
    """Exports `rev` into .bench_pairs/<sha>/ once; returns the directory."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True, text=True,
                         check=True).stdout.strip()
    dest = PAIRS_DIR / sha[:12]
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError(f"git archive {sha} failed")
    return sha[:12], dest


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns (result dict or None, reason)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None:
        return None, f"exit {proc.returncode}"
    if not result.get("correct", False) or result.get("failed", 0) != 0:
        return None, (f"correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    return result, ""


def quantile(values, q):
    """Linear-interpolation quantile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    lo = int(lo)
    hi = int(hi) if hi else lo
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text}")
    return list(range(lo, hi + 1))


def fmt(v):
    if abs(v) >= 10000:
        return f"{v / 1000:.1f}K"
    if abs(v) >= 100:
        return f"{v:.1f}"
    return f"{v:.3g}" if abs(v) < 1 else f"{v:.2f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                    help="seed range A-B (default 1-10)")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    base_sha, base_tree = export_base(args.base)
    sides = {"base": base_tree, "head": ROOT}

    pairs = []
    refused = []
    for seed in args.seeds:
        order = ["base", "head"] if seed % 2 == 1 else ["head", "base"]
        got = {}
        for side in order:
            result, why = run_once(sides[side], args.workload, seed,
                                   args.seconds)
            if result is None:
                refused.append(f"seed {seed}: {side} {why}")
                break
            got[side] = result["metrics"]
        else:
            pairs.append(got)
        print(f"seed {seed}: {'ok' if len(got) == 2 else 'refused'}",
              file=sys.stderr)
    if not pairs:
        print("bench_pairs: no valid pair", file=sys.stderr)
        return 1

    print(f"{args.workload}: base {base_sha} vs working tree, "
          f"{len(pairs)} pairs of {args.seconds}-s runs "
          f"(seeds {args.seeds[0]}-{args.seeds[-1]})\n")
    print("| metric | base median [q1, q3] | head median [q1, q3] | ratio "
          "| head wins | gap / base IQR |")
    print("|---|---|---|---|---|---|")
    for m in metrics:
        name = m["name"]
        lower = m["better"] == "lower"
        base = [p["base"][name]["value"] for p in pairs]
        head = [p["head"][name]["value"] for p in pairs]
        bq = [quantile(base, q) for q in (0.25, 0.5, 0.75)]
        hq = [quantile(head, q) for q in (0.25, 0.5, 0.75)]
        wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
        iqr = bq[2] - bq[0]
        gap = (hq[1] - bq[1]) / iqr if iqr > 0 else float("inf")
        ratio = hq[1] / bq[1] if bq[1] else float("inf")
        print(f"| {name} ({m['unit']}) | {fmt(bq[1])} [{fmt(bq[0])}, "
              f"{fmt(bq[2])}] | {fmt(hq[1])} [{fmt(hq[0])}, {fmt(hq[2])}] "
              f"| {ratio:.3f} | {wins}/{len(pairs)} | {gap:+.2f} |")
    for line in refused:
        print(f"\nrefused: {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
