#!/usr/bin/env python3
"""Build and run one DSig benchmark workload.

    python3 perfbench/run.py --workload hinted --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds perfbench/dsigbench.exe with
dune, runs the workload once, and prints a provenance line and then, as
its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Units and directions live only in
BENCHMARK.json. A traced run also prints a "# layers" line that
perfbench/layers.py turns into the layer table.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "dsigbench.exe")
BUILD_TIMEOUT_S = 700
RUN_LIMIT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Build the benchmark program from source inside the checkout."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")) or not os.path.isdir(
        os.path.join(ROOT, "lib", "core")
    ):
        fail("no DSig sources here (dune-project, lib/); run from a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            [dune, "build", "--root", ROOT, "--cache=disabled", "--display=quiet", "./" + EXE],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail("build failed")


def source_rev():
    """The git commit when the checkout is a git repository, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for top in ("dune-project", "dune", "lib", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for p in files:
            if p.endswith((".ml", ".mli", ".py")) or os.path.basename(p) in ("dune", "dune-project"):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def ocaml_version():
    exe = shutil.which("ocamlopt") or shutil.which("ocaml")
    if exe is None:
        return "unknown"
    r = subprocess.run([exe, "-version"], capture_output=True, text=True, timeout=10)
    return r.stdout.strip().split()[-1] if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    build()
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": source_rev(),
        "ocaml": ocaml_version(),
        "nproc": os.cpu_count(),
    }
    print("# provenance " + json.dumps(provenance), flush=True)

    cmd = [
        os.path.join(ROOT, EXE),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # the first run in a checkout may spend most of its time building
    budget = max(RUN_LIMIT_S - (time.monotonic() - started), 60 + 3 * args.seconds)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {budget:.0f} s")
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"workload {args.workload} exited with code {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark program printed nothing")
    out = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = out["metrics"].get(m["name"])
        if value is None:
            fail(f"metric {m['name']} missing from the program's output")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if args.trace:
        print("# layers " + json.dumps({"workload": args.workload, **out["layers"]}))
    print(json.dumps({
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
