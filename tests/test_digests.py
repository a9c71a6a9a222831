"""Every command's output, pinned byte for byte.

`stdout_digests.json` holds, for each command line below, the exit code
and the sha256 of stdout and of stderr, in the order the commands run.
`{cache}` in an argv stands for one fresh cache directory shared by the
whole run, so each `skeleton --json` runs first cold and then warm, and
`{config}/NAME` for the config file CONFIGS[NAME], written beside it.  A
digest changes only with a stated reason: the classification itself is
fixed.  To rewrite the file after such a change, run
`PYTHONPATH=src python tests/test_digests.py --write`.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

from burausieve.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "stdout_digests.json")

SKELETONS = [
    ("--p", "2", "--min-poly", "t^3+t+1"),
    ("--p", "19", "--min-poly", "t+4"),
    ("--p", "593", "--min-poly", "t+201"),
    ("--p", "19", "--min-poly", "t+4", "--ambient", "b3"),
    ("--p", "7", "--min-poly", "t^2+3t+1"),
]

CONFIGS = {
    "cap5.json": {"state_cap": 5},
    "sets9.json": {"informative_sets": {"9": [["e"]]}},
    # sets whose raw output holds 96 triples of degree > 1, and whose
    # vectors' points include 0 and infinity at some factors
    "wide.json": {"informative_sets": {
        "11": [["T s2^-1 s1"], ["s1 s2"]],
        "13": [["s1^-1 T s2^-1 s1"]],
        "21": [["T s2 s1^-1"], ["T s2^-1 s1 T s2 s1^-1"]],
        "24": [["s2 T s2 s1^-1"]]}},
    # ["s2 s1"] has a zero resultant on its pair (u, u) at N = 11 on every
    # branch, so it is rejected between two informative sets
    "later11.json": {"informative_sets": {
        "11": [["T s2^-1 s1"], ["s2 s1"], ["s1 s2"]]}},
}

COMMANDS = [
    ("sieve", "--n-range", "7..26", "--json"),
    ("sieve", "--n-range", "7..26"),
    ("sieve", "--n-range", "7..26", "--raw", "--json"),
    ("table",),
    ("table", "--verify", "--json"),
    ("table", "--verify"),
    ("addendum",),
    ("addendum", "--all-groups", "--json"),
    ("factors", "--n", "59", "--p", "19", "--json"),
    ("factors", "--n", "9", "--p", "19"),
    *[cmd for args in SKELETONS for cmd in (
        ("--cache-dir", "{cache}", "skeleton", *args, "--json"),
        ("--cache-dir", "{cache}", "skeleton", *args, "--json"),
        ("skeleton", *args))],
    ("--state-cap", "10", "addendum", "--all-groups"),
    ("--state-cap", "100", "addendum"),
    ("--state-cap", "19", "skeleton", "--p", "19", "--min-poly", "t+4"),
    ("--config", "{config}/cap5.json", "table", "--verify"),
    # {"e"} is not informative for N = 9, so the built-in sets of N = 9 run
    ("--config", "{config}/sets9.json", "sieve", "--n-range", "9..9", "--json"),
    ("--config", "{config}/wide.json", "sieve", "--n-range", "11..24", "--raw",
     "--json"),
    ("--config", "{config}/later11.json", "sieve", "--n-range", "11..11",
     "--json"),
    # root_spec's edge paths: a reducible modulus and one with a square
    # factor (exit 2), N = 1 (walked), a closed form over F_169 (N = 168)
    # and over the largest closed-form prime field, and a prime field over
    # the default cap (exit 3)
    ("skeleton", "--p", "5", "--min-poly", "t^2+1"),
    ("skeleton", "--p", "2", "--min-poly", "t^4+t^2+1"),
    ("skeleton", "--p", "2", "--min-poly", "t+1"),
    ("skeleton", "--p", "13", "--min-poly", "t^2+t+2"),
    ("skeleton", "--p", "4651", "--min-poly", "t+3978"),
    ("skeleton", "--p", "1000000007", "--min-poly", "t+2"),
    # lifts over odd-characteristic extension fields: the sweep's walked
    # F_729, F_81 in B_3, and F_169 with 680 edges
    ("skeleton", "--p", "3", "--min-poly", "t^6+2t^5+t^4+2t^3+t^2+2t+1",
     "--type", "III3", "--json"),
    ("skeleton", "--p", "3", "--min-poly", "t^4+t^3+t^2+t+1", "--type",
     "III3", "--ambient", "b3", "--json"),
    ("skeleton", "--p", "13", "--min-poly", "t^2+11t+3", "--type", "III+",
     "--json"),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_all(tmp):
    """[{argv, exit, stdout, stderr}] for COMMANDS, run in process in order,
    with the cache and the config files in the empty directory tmp."""
    for name, config in CONFIGS.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    cache = os.path.join(tmp, "cache")
    entries = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cache if a == "{cache}" else a.replace("{config}", tmp)
                         for a in argv])
        entries.append({"argv": list(argv), "exit": code,
                        "stdout": sha256(out.getvalue()),
                        "stderr": sha256(err.getvalue())})
    return entries


def test_outputs_match_the_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = run_all(str(tmp_path))
    assert [e["argv"] for e in got] == [e["argv"] for e in pinned]
    for want, have in zip(pinned, got):
        assert have == want, " ".join(want["argv"])


def test_stdout_does_not_depend_on_the_hash_seed():
    argv = ["sieve", "--n-range", "7..26", "--json"]
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONHASHSEED="2", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "burausieve.cli", *argv],
                          env=env, capture_output=True, text=True, check=False)
    with open(DIGESTS, encoding="utf-8") as fh:
        want, = [e for e in json.load(fh) if e["argv"] == argv]
    assert (done.returncode, sha256(done.stdout), sha256(done.stderr)) == (
        want["exit"], want["stdout"], want["stderr"])


# run in a fresh interpreter in which `import sympy` fails: each argv's
# exit code and the sha256 of its stdout and stderr, as JSON
NO_SYMPY = """
import contextlib, hashlib, io, json, sys
sys.modules["sympy"] = None
from burausieve.cli import main
entries = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    entries.append([code] + [hashlib.sha256(f.getvalue().encode()).hexdigest()
                             for f in (out, err)])
print(json.dumps(entries))
"""


def test_runs_without_sympy():
    # sympy is a test-only reference: the package neither imports it nor
    # needs it, and prints the same bytes without it
    pinned = [["sieve", "--n-range", "7..26", "--json"],
              ["table", "--verify", "--json"],
              ["addendum", "--all-groups", "--json"],
              ["factors", "--n", "59", "--p", "19", "--json"]]
    # the 39-digit prime 2^127 - 1 and the 32-digit composite 10^31 + 7
    huge = [["factors", "--n", "9", "--p", str(2 ** 127 - 1)],
            ["factors", "--n", "9", "--p", str(10 ** 31 + 7)]]
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", NO_SYMPY, json.dumps(pinned + huge)],
                          env=env, capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    with open(DIGESTS, encoding="utf-8") as fh:
        want = {tuple(e["argv"]): [e["exit"], e["stdout"], e["stderr"]]
                for e in json.load(fh)}
    assert got[:len(pinned)] == [want[tuple(argv)] for argv in pinned]
    assert [code for code, _, _ in got[len(pinned):]] == [0, 2]
    imported = subprocess.run(
        [sys.executable, "-c", "import sys, burausieve.cli; "
         "print('sympy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert imported.stdout == "False\n"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        entries = run_all(tmp)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
