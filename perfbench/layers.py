#!/usr/bin/env python3
"""Print the measured layer table: Fig. 8's breakdown, per workload.

    python3 perfbench/layers.py [--seed N] [--seconds S] [workload ...]

Runs each workload (all by default) once untraced and once with
--trace 1. For verify, sign and the background plane (Batch.make) it
prints the per-op mean of each layer the traced run replayed the op
through, and the parent's self time: the part no replayed layer
explains. Means add up, so the rows sum to the traced mean. Beside it
are the traced p50 and the untraced run's verify_p50_us / sign_p50_us,
the end-to-end figures. Last come the paper's yardstick ratios beside
the measured ones.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# DSig paper (OSDI '24), Fig. 8 and Sec. 8: sign 0.7 us, fast verify 5.1 us,
# Ed25519 verify 35.6 us; a wrong hint pays the Ed25519 verify inline.
PAPER_SIGN_US = 0.7
PAPER_VERIFY_US = 5.1
PAPER_EDDSA_VERIFY_US = 35.6

# per-layer counters that confirm each workload does what it is for
CHECKS = ("verifier.fast", "verifier.slow", "verifier.rejected", "runtime.bg_busy_ratio",
          "runtime.bg_gate_waits", "trace.overhead_ratio")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        sys.exit(f"layers: workload {workload} failed")
    lines = r.stdout.strip().splitlines()
    layers = next((json.loads(l[len("# layers "):]) for l in lines if l.startswith("# layers ")), None)
    result = json.loads(lines[-1])
    return layers, {k: v["value"] for k, v in result["metrics"].items()}, result


def print_table(title, table, end_to_end=None):
    total = table["total_mean_us"]
    rows = table["rows"]
    *layers, (self_name, self_us) = rows.items()
    print(f"  {title:<32} {'mean us':>12} {'share':>8}")
    for name, v in layers:
        print(f"    {name:<30} {v:>12.1f} {100 * v / total if total else 0:>7.1f}%")
    print(f"    {'unexplained (' + self_name + ')':<30} {self_us:>12.1f} {100 * self_us / total if total else 0:>7.1f}%")
    print(f"    {'= traced mean, ' + str(table['ops']) + ' ops':<30} {total:>12.1f}")
    print(f"    {'traced p50':<30} {table['total_p50_us']:>12.1f}")
    if end_to_end is not None:
        name, v = end_to_end
        print(f"    {name + ' (untraced)':<30} {v:>12.1f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    workloads = args.workloads or names

    verify_p50, sign_p50 = {}, {}
    eddsa_us = []
    for w in workloads:
        _, e2e, _ = run(w, args.seed, args.seconds, 0)
        layers, m, result = run(w, args.seed, args.seconds, 1)
        print(f"{w}: seed {args.seed}, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}")
        print_table("verify", layers["verify"], ("verify_p50_us", e2e["verify_p50_us"]))
        print_table("sign", layers["sign"], ("sign_p50_us", e2e["sign_p50_us"]))
        print_table("background (Batch.make)", layers["background"])
        print("  " + ", ".join(f"{k}={m[k]:.4g}" for k in CHECKS))
        print()
        verify_p50[w] = e2e["verify_p50_us"]
        sign_p50[w] = e2e["sign_p50_us"]
        eddsa_us.append(m["ed25519.verify_us"])

    print("yardsticks (untraced p50s)      measured      paper")
    if "hinted" in verify_p50 and "unhinted" in verify_p50:
        print(f"  slow / fast verify          {verify_p50['unhinted'] / verify_p50['hinted']:>10.2f} "
              f"{(PAPER_EDDSA_VERIFY_US + PAPER_VERIFY_US) / PAPER_VERIFY_US:>10.2f}")
    if "hinted" in verify_p50:
        eddsa = sorted(eddsa_us)[len(eddsa_us) // 2]
        print(f"  EdDSA verify / DSig verify  {eddsa / verify_p50['hinted']:>10.2f} "
              f"{PAPER_EDDSA_VERIFY_US / PAPER_VERIFY_US:>10.2f}")
        print(f"  DSig verify / DSig sign     {verify_p50['hinted'] / sign_p50['hinted']:>10.2f} "
              f"{PAPER_VERIFY_US / PAPER_SIGN_US:>10.2f}")


if __name__ == "__main__":
    main()
