"""Benchmark of the burausieve CLI: the sweep, the skeleton cache, the cross-checks.

    python3 perfbench/run.py --workload {sweep,skeleton,crosscheck,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh
single-threaded Python processes (perfbench/worker.py) that import the
package from ./src and drive `cli.main([...])` in-process.  Untraced, it
prints wall_s, setup_s and peak_rss_mb; traced (--trace 1), one process
runs set-up plus one round with every layer wrapped, prints the per-layer
metrics and writes its spans to .perfbench/trace/.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("sweep", "skeleton", "crosscheck")
# Fresh processes whose set-up is timed in one untraced run; setup_s is
# their median.  The skeleton set-up is a ~10 s cold pass, so it gets two
# to keep a run under a minute.
SETUPS = {"sweep": 5, "skeleton": 2, "crosscheck": 5}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DEADLINE_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(workload, seed, seconds, deadline, setup_only=False, trace_out=None):
    """Run one worker in a fresh interpreter and return its JSON result."""
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    cache = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(OUT, "tmp"))
    t_spawn = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--cache-dir", cache,
           "--spawned-at", repr(t_spawn)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ran past the {DEADLINE_S} s deadline")
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(workload, seed, seconds, deadline):
    results = [spawn(workload, seed, seconds, deadline, setup_only=True)
               for _ in range(SETUPS[workload] - 1)]
    results.append(spawn(workload, seed, seconds, deadline))
    main = results[-1]
    metrics = {
        "wall_s": statistics.median(main["rounds"]),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": main["rss_mb"],
    }
    return results, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def run_traced(workload, seed, seconds, deadline):
    from layertrace import per_layer_units
    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    trace_out = os.path.join(OUT, "trace", f"{workload}-seed{seed}.json")
    result = spawn(workload, seed, seconds, deadline, trace_out=trace_out)
    print(f"{workload}: traced round {result['rounds'][0]:.3f} s, spans in {trace_out}",
          file=sys.stderr)
    units = per_layer_units()
    return [result], {k: {"value": v, "unit": units[k]}
                      for k, v in result["per_layer"].items()}


def run_workload(workload, seed, seconds, trace):
    runner = run_traced if trace else run_untraced
    workers, metrics = runner(workload, seed, seconds, time.monotonic() + DEADLINE_S)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for problem in w["problems"]:
            print(f"{workload}: FAILED {problem}", file=sys.stderr)
    rounds = sum(len(w["rounds"]) for w in workers)
    for name, m in metrics.items():
        print(f"{workload:10s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        raw = {"wall_s": statistics.median(workers[-1]["rounds_raw"]),
               "setup_s": statistics.median(w["setup_raw_s"] for w in workers)}
        for name, value in raw.items():
            print(f"{workload:10s} {name + ' as measured':44s} {value:>14.6g} s")
    print(f"{workload:10s} {'rounds':44s} {rounds:>14d}")
    return {"correct": failed == 0, "attempted": sum(w["attempted"] for w in workers),
            "failed": failed, "metrics": metrics}, workers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # subprocess.run kills and reaps its worker on any exception, SystemExit too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "burausieve", "cli.py")):
        print(f"error: no program to measure: {ROOT}/src/burausieve/cli.py is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        runs = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = {w: result for w, (result, _) in runs.items()}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, workers={w: workers for w, (_, workers) in runs.items()}),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
