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

With --record it also appends one row to BENCH_<workload>.json at the
repository root (a JSON list, one schema for every workload): both shas,
the head marked dirty when its working tree differs from HEAD; the ENV
stamp perfbench printed before the head's first result; the seeds, the
seconds and the number of pairs; and, per end-to-end metric, each side's
median, q1 and q3 and the head's wins. It refuses to record when any pair
was refused.
"""

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench_pairs"


def export_base(rev):
    """Exports `rev` into .bench_pairs/<sha>/ once; returns (sha, dir)."""
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
    return sha, dest


def head_state():
    """(HEAD's full sha, whether the working tree differs from it)."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                            capture_output=True, text=True,
                            check=True).stdout
    return sha, bool(status.strip())


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns (result dict or None, reason,
    the ENV stamp dict or None)."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = None
    for line in lines:
        if line.startswith("ENV "):
            try:
                env = json.loads(line[len("ENV "):])
            except json.JSONDecodeError:
                env = None
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None:
        return None, f"exit {proc.returncode}", env
    if not result.get("correct", False) or result.get("failed", 0) != 0:
        return None, (f"correct={result.get('correct')} "
                      f"failed={result.get('failed')}"), env
    return result, "", env


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


def summarize(metric, pairs):
    """Each side's median, q1 and q3, and the head's wins."""
    name = metric["name"]
    lower = metric["better"] == "lower"
    base = [p["base"][name]["value"] for p in pairs]
    head = [p["head"][name]["value"] for p in pairs]
    sides = {}
    for side, values in (("base", base), ("head", head)):
        q1, median, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
        sides[side] = {"median": median, "q1": q1, "q3": q3}
    wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
    return sides, wins


def record(path, row):
    """Appends `row` to the JSON list at `path` (created when missing)."""
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(row)
    path.write_text(json.dumps(rows, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="base git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                    help="seed range A-B (default 1-10)")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--record", action="store_true",
                    help="append the result to BENCH_<workload>.json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    base_sha, base_tree = export_base(args.base)
    head_sha, head_dirty = head_state()
    sides = {"base": base_tree, "head": ROOT}

    pairs = []
    refused = []
    head_env = None
    for seed in args.seeds:
        order = ["base", "head"] if seed % 2 == 1 else ["head", "base"]
        got = {}
        for side in order:
            result, why, env = run_once(sides[side], args.workload, seed,
                                        args.seconds)
            if result is None:
                refused.append(f"seed {seed}: {side} {why}")
                break
            got[side] = result["metrics"]
            if side == "head" and head_env is None:
                head_env = env
        else:
            pairs.append(got)
        print(f"seed {seed}: {'ok' if len(got) == 2 else 'refused'}",
              file=sys.stderr)
    if not pairs:
        print("bench_pairs: no valid pair", file=sys.stderr)
        return 1

    print(f"{args.workload}: base {base_sha[:12]} vs working tree, "
          f"{len(pairs)} pairs of {args.seconds}-s runs "
          f"(seeds {args.seeds[0]}-{args.seeds[-1]})\n")
    print("| metric | base median [q1, q3] | head median [q1, q3] | ratio "
          "| head wins | gap / base IQR |")
    print("|---|---|---|---|---|---|")
    summary = {}
    for m in metrics:
        sides_q, wins = summarize(m, pairs)
        b, h = sides_q["base"], sides_q["head"]
        iqr = b["q3"] - b["q1"]
        gap = (h["median"] - b["median"]) / iqr if iqr > 0 else float("inf")
        ratio = h["median"] / b["median"] if b["median"] else float("inf")
        print(f"| {m['name']} ({m['unit']}) | {fmt(b['median'])} "
              f"[{fmt(b['q1'])}, {fmt(b['q3'])}] | {fmt(h['median'])} "
              f"[{fmt(h['q1'])}, {fmt(h['q3'])}] | {ratio:.3f} "
              f"| {wins}/{len(pairs)} | {gap:+.2f} |")
        summary[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              "base": b, "head": h, "head_wins": wins}
    for line in refused:
        print(f"\nrefused: {line}")

    if args.record:
        if refused:
            print("bench_pairs: not recording: a pair was refused",
                  file=sys.stderr)
            return 1
        path = ROOT / f"BENCH_{args.workload}.json"
        record(path, {
            "workload": args.workload,
            "recorded_utc": datetime.now(timezone.utc).strftime(
                "%Y-%m-%dT%H:%M:%SZ"),
            "base": {"sha": base_sha},
            "head": {"sha": head_sha, "dirty": head_dirty},
            "env": head_env,
            "seeds": [args.seeds[0], args.seeds[-1]],
            "seconds": args.seconds,
            "pairs": len(pairs),
            "metrics": summary,
        })
        print(f"\nrecorded: {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
