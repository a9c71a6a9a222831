"""One fresh benchmark process: set up, run whole rounds, check every output.

Started by run.py, never imported by the package.  It imports `burausieve`
from the checkout's `src`, drives the public CLI in-process through
`cli.main([...])` with its own `--cache-dir`, and prints one JSON line: its
set-up seconds, the seconds of each timed round, operation counts, the
first problems found, the peak resident memory and, when traced, the
per-layer metrics.  Untraced, seconds are reference-speed seconds from
`speed.SpeedProbe`, with the measured ones alongside as `*_raw`.

A round is the workload's fixed list of operations.  Rounds are repeated
while the next one is expected to fit in --seconds; at least one always
runs, and a traced process runs exactly one so that its counts repeat.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class Runner:
    """Runs operations through cli.main, times them and keeps the tally."""

    def __init__(self, main, probe):
        self.main = main
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, op):
        """Run one operation; return (seconds, raw seconds, stdout, code, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(op.argv)
            except Exception as exc:  # an uncaught error fails the operation
                code = f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        return (self.seconds(start, end), end - start, out.getvalue(), code,
                err.getvalue())

    def seconds(self, start, end):
        return self.probe.reference_seconds(start, end) if self.probe else end - start

    def judge(self, op, stdout, code, stderr):
        self.attempted += 1
        probs = [f"exit {code}: {stderr.strip()[-300:]}"] if code != 0 else op.check(stdout)
        if probs:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{' '.join(op.argv[2:])}: {probs[0]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "skeleton", "crosscheck"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="trace one round and write its spans here")
    args = ap.parse_args(argv)
    probe = None if args.trace_out else SpeedProbe().start()

    import workloads
    sys.path.insert(0, SRC)
    from burausieve import cli, golden
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "burausieve"):
        print(f"burausieve was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace_out:
        from layertrace import OP_SPAN, Tracer
        tracer = Tracer()
        tracer.install()
    golden.self_check()
    runner = Runner(tracer.wrap(OP_SPAN, cli.main) if tracer else cli.main, probe)

    setup = [(op, runner.run(op))
             for op in workloads.setup_ops(args.workload, args.seed, args.cache_dir)]
    t_ready = time.monotonic()
    for op, (_, _, stdout, code, stderr) in setup:
        runner.judge(op, stdout, code, stderr)
    rounds, rounds_raw = [], []
    if not args.setup_only:
        ops = workloads.round_ops(args.workload, args.seed, args.cache_dir,
                                  [stdout for _, (_, _, stdout, _, _) in setup])
        del setup
        while not rounds or (tracer is None and sum(rounds_raw) + rounds_raw[-1] <= args.seconds):
            rounds.append(0.0)
            rounds_raw.append(0.0)
            for op in ops:
                seconds, raw, stdout, code, stderr = runner.run(op)
                rounds[-1] += seconds
                rounds_raw[-1] += raw
                runner.judge(op, stdout, code, stderr)
    if probe:
        probe.stop()

    result = {
        "setup_s": runner.seconds(args.spawned_at, t_ready),
        "setup_raw_s": t_ready - args.spawned_at,
        "rounds": rounds,
        "rounds_raw": rounds_raw,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_median_s": statistics.median(probe.durations) if probe else None,
    }
    if tracer:
        cache_bytes = sum(entry.stat().st_size for entry in os.scandir(args.cache_dir)
                          if entry.is_file()) if os.path.isdir(args.cache_dir) else 0
        result["per_layer"] = tracer.metrics(cache_bytes)
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                     "wall_s": rounds[0]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
