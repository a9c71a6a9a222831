"""End-to-end timings of the package, written as BENCH_<n>.json.

    python tools/bench.py --out BENCH_44.json [--baseline DIR]

It measures the checkout it lives in and, with --baseline, a second
checkout (say, the parent commit unpacked by `git archive`) in the same
session, so the two can be compared pair by pair.  For each checkout it
records the tier-1 suite's wall time and pass count (one run, without the
TIER1_IGNORED tests), and for each command in COMMANDS, for IMPORT, the
package's import alone, for the two BARE runs and for WARM, the median,
minimum and maximum wall time of RUNS runs and the sha256 of its stdout,
cut to 16 hex digits.  The runs are interleaved: run i times every
command on both checkouts, the baseline first on odd i, so slow drift of
the machine falls on both sides.  Each command runs as
`python -m burausieve.cli`, IMPORT as `python -c "import burausieve.cli"`,
and BARE as `python -S -c pass` and `python -S -c "import burausieve.cli"`,
in a fresh process with PYTHONPATH set to the checkout's src and bytecode
writing off, so both sides compile the package alike and no __pycache__
is left behind.  WARM is the -S import again from cached bytecode, as an
installed package imports: PYTHONPYCACHEPREFIX points at a temporary
directory per checkout, which one untimed run fills before the timed
runs and which is removed afterwards.  A command that exits nonzero
stops the run: a failed run has no time.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = (
    ("sieve", "--n-range", "7..26", "--json"),
    ("table", "--verify", "--json"),
    ("addendum", "--all-groups", "--json"),
    # the largest skeleton of the sweep, 432,636 edges, lifted and printed
    # with no cache: the cold path of skeleton --json
    ("skeleton", "--p", "4651", "--min-poly", "t+3978", "--json"),
    # the equal-degree split's heaviest documented input: phi_59(-t) mod
    # 4651 in 2 factors of degree 29
    ("factors", "--n", "59", "--p", "4651", "--json"),
)
# the start-up every command pays: the interpreter and the package's import
IMPORT = "import burausieve.cli"
# the same start-up without site (-S), whose .pth hooks may import modules
# before the package does and so hide their cost; the bare interpreter's
# start-up lets BENCH files of different sessions and machines be compared
BARE = (("python -S -c pass", ("-S", "-c", "pass")),
        (f"python -S -c {IMPORT}", ("-S", "-c", IMPORT)))
# the -S import from bytecode cached outside the tree (see above)
WARM = (f"python -S -c {IMPORT}, warm bytecode", ("-S", "-c", IMPORT))
# each timed run as (label, the interpreter's arguments)
TIMED = tuple((" ".join(argv), ("-m", "burausieve.cli", *argv))
              for argv in COMMANDS) + ((IMPORT, ("-c", IMPORT)),) + BARE \
    + (WARM,)
# fewer runs cannot resolve a 0.02 s change of the sieve on a shared
# 2-core machine: with 5 against its parent, a change 0.02 s faster read
# 0.311 s against 0.247 s in the median
RUNS = 15
# tests left out of the timed tier-1 run, and recorded in its entry:
# test_bench_file.py reads the newest BENCH_<n>.json of the same checkout,
# which a change to COMMANDS makes stale until this run has written it
TIER1_IGNORED = ("tests/test_bench_file.py",)
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         *(f"--ignore={path}" for path in TIER1_IGNORED))


def environment(checkout, pycache=None):
    """The checkout's environment: bytecode writing off, or with pycache,
    bytecode written to and read from that directory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    if pycache:
        del env["PYTHONDONTWRITEBYTECODE"]
        env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def src_digest(checkout):
    """The sha256 of the checkout's package source, file by file in path
    order, cut to 16 hex digits: which code was measured."""
    h = hashlib.sha256()
    src = os.path.join(checkout, "src", "burausieve")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()[:16]


def run_command(checkout, label, args, pycache=None):
    """(seconds, stdout digest) of one run of the interpreter with args,
    in environment(checkout, pycache)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args],
                          cwd=checkout, env=environment(checkout, pycache),
                          capture_output=True, check=False)
    seconds = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {label} exited "
                         f"{done.returncode}: {done.stderr.decode()[-500:]}")
    return seconds, hashlib.sha256(done.stdout).hexdigest()[:16]


def run_tier1(checkout):
    """The tier-1 suite's wall time and its passed and failed counts, read
    off pytest's summary line, and the tests the run left out."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=checkout,
                          env=environment(checkout), capture_output=True,
                          text=True, check=False)
    seconds = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {"wall_s": round(seconds, 2), "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0)
            + counts.get("error", 0) + counts.get("errors", 0),
            "summary": summary, "ignored": list(TIER1_IGNORED)}


def measure(checkouts):
    """label -> report, the timed runs interleaved across checkouts."""
    times = {label: {text: [] for text, _ in TIMED} for label in checkouts}
    digests = {label: {text: set() for text, _ in TIMED} for label in checkouts}
    labels = list(checkouts)
    caches = {label: tempfile.mkdtemp(prefix=f"bench-{label}-pycache-")
              for label in labels}
    try:
        for label in labels:  # the untimed run that fills the cache
            run_command(checkouts[label], WARM[0], WARM[1], caches[label])
        for i in range(RUNS):
            order = labels if i % 2 == 0 else labels[::-1]
            for text, args in TIMED:
                for label in order:
                    seconds, digest = run_command(
                        checkouts[label], text, args,
                        caches[label] if text == WARM[0] else None)
                    times[label][text].append(seconds)
                    digests[label][text].add(digest)
    finally:
        for cache in caches.values():
            shutil.rmtree(cache, ignore_errors=True)
    report = {}
    for label, checkout in checkouts.items():
        commands = {}
        for text, _ in TIMED:
            if len(digests[label][text]) != 1:
                raise SystemExit(f"{checkout}: {text} printed "
                                 f"different stdout across runs")
            ts = times[label][text]
            commands[text] = {
                "median_s": round(statistics.median(ts), 4),
                "min_s": round(min(ts), 4), "max_s": round(max(ts), 4),
                "runs_s": [round(t, 4) for t in ts],
                "digest": digests[label][text].pop(),
            }
        report[label] = {"src_sha256": src_digest(checkout),
                         "tier1": run_tier1(checkout), "commands": commands}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--baseline", help="a second checkout to measure, "
                        "interleaved with this one")
    args = parser.parse_args(argv)
    checkouts = {"change": ROOT}
    if args.baseline:
        if not os.path.isfile(os.path.join(args.baseline, "src", "burausieve",
                                           "cli.py")):
            parser.error(f"{args.baseline} holds no src/burausieve/cli.py")
        checkouts["baseline"] = os.path.abspath(args.baseline)
    result = {
        "schema": 1,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "runs": RUNS,
        "commands": [text for text, _ in TIMED],
        "checkouts": measure(checkouts),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for label, report in result["checkouts"].items():
        tier1 = report["tier1"]
        print(f"{label}: tier-1 {tier1['passed']} passed, {tier1['failed']} "
              f"failed in {tier1['wall_s']} s")
        for text, entry in report["commands"].items():
            print(f"  {text}: median {entry['median_s']} s "
                  f"({entry['min_s']}-{entry['max_s']}), {entry['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
