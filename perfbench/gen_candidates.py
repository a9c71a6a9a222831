"""Regenerate candidates.json: the sweep's candidate triples with edge counts.

    python3 perfbench/gen_candidates.py

Runs `sieve --raw --json` over 7..26 and `skeleton --no-cache --json` for
each candidate triple, through the public CLI, and writes one
[N, p, minPoly, type, edges] row per triple.  The skeleton workload draws
its seeded query mix from this file.  Takes about a minute.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from burausieve import cli  # noqa: E402


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def main():
    rows = []
    for entry in run(["sieve", "--raw", "--json"])["results"]:
        for branch in entry["branches"]:
            for t in branch["triples"]:
                sk = run(["skeleton", "--no-cache", "--json", "--p", str(t["p"]),
                          "--min-poly", t["minPoly"], "--type", t["type"]])
                rows.append([entry["N"], t["p"], t["minPoly"], t["type"], sk["edges"]])
    with open(os.path.join(HERE, "candidates.json"), "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    print(f"{len(rows)} triples, {sum(r[4] for r in rows)} edges")


if __name__ == "__main__":
    main()
