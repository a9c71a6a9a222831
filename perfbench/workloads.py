"""The three workloads: their set-up operations, timed rounds and checks.

Each operation is a CLI argument list and the check its stdout must pass.
The `skeleton` mix is the only input drawn from the seed.
"""

from __future__ import annotations

import json
import os
import random

import checks
import paper_table

HERE = os.path.dirname(os.path.abspath(__file__))

SWEEP_NS = range(7, 27)

# The skeleton mix: two fixed walks plus a seeded, stratified sample of the
# sweep's other candidate triples of at most 10,000 edges.
SKELETON_FIXED = ((4651, "t+3978", "I"), (593, "t+201", "I"))
SKELETON_STRATA = ((0, 100, 12), (100, 1000, 12), (1000, 10000, 4))


class Op:
    """One CLI invocation and the check its stdout must pass."""

    __slots__ = ("argv", "check")

    def __init__(self, argv, check):
        self.argv = argv
        self.check = check


def load_candidates():
    with open(os.path.join(HERE, "candidates.json"), encoding="utf-8") as fh:
        return [dict(zip(("N", "p", "minPoly", "type", "edges"), row))
                for row in json.load(fh)]


def skeleton_mix(seed, candidates):
    """The seeded query list of the skeleton workload (same seed, same list)."""
    fixed = [c for key in SKELETON_FIXED for c in candidates
             if (c["p"], c["minPoly"], c["type"]) == key]
    if len(fixed) != len(SKELETON_FIXED):
        raise ValueError("candidates.json lacks a fixed skeleton query")
    rng = random.Random(seed)
    picks = []
    for lo, hi, k in SKELETON_STRATA:
        stratum = [c for c in candidates if lo < c["edges"] <= hi and c not in fixed]
        picks += rng.sample(stratum, k)
    return fixed + picks


def skeleton_argv(cache, q):
    return ["--cache-dir", cache, "skeleton", "--p", str(q["p"]),
            "--min-poly", q["minPoly"], "--type", q["type"], "--json"]


def setup_ops(workload, seed, cache):
    """Operations run before timing starts; they fill the workload's cache."""
    if workload == "sweep":
        return []
    if workload == "crosscheck":
        # `addendum` fills every entry the conjugacy checks and the 78 row
        # pairs read; the queries add the other iso-class representatives.
        ops = [Op(["--cache-dir", cache, "addendum", "--json"],
                  lambda out: checks.addendum_problems(out, all_groups=False))]
        for row in paper_table.ROWS:
            for group in row[3][1:]:
                query = {"N": row[2], "p": row[1], "minPoly": group[0],
                         "type": "I", "edges": paper_table.edges(row)}
                ops.append(Op(skeleton_argv(cache, query),
                              lambda out, q=query: checks.skeleton_problems(out, q)))
        return ops
    return [Op(skeleton_argv(cache, q), lambda out, q=q: checks.skeleton_problems(out, q))
            for q in skeleton_mix(seed, load_candidates())]


def round_ops(workload, seed, cache, cold_outputs):
    """The timed round; `cold_outputs` are the set-up outputs, in order."""
    if workload == "sweep":
        return [Op(["--cache-dir", cache, "sieve", "--n-range", f"{N}..{N}", "--json"],
                   lambda out, N=N: checks.sweep_problems(out, N)) for N in SWEEP_NS]
    if workload == "crosscheck":
        return [
            Op(["--cache-dir", cache, "table", "--verify", "--json"],
               checks.table_verify_problems),
            Op(["--cache-dir", cache, "addendum", "--json"],
               lambda out: checks.addendum_problems(out, all_groups=False)),
            Op(["--cache-dir", cache, "addendum", "--all-groups", "--json"],
               lambda out: checks.addendum_problems(out, all_groups=True)),
        ]
    return [Op(skeleton_argv(cache, q), lambda out, cold=cold: checks.warm_problems(out, cold))
            for q, cold in zip(skeleton_mix(seed, load_candidates()), cold_outputs)]
