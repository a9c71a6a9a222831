"""The newest BENCH_<n>.json at the root of the repository has the schema
that tools/bench.py writes: the Python version and processor count, and
for each measured checkout the tier-1 suite's wall time and counts, from
a run without this file, and, per command, for the package's import
alone, for the interpreter's start-up and the import without site, and
for that import from cached bytecode, the median, minimum and maximum of
at least 5 runs with the digest of its stdout (empty for the four
start-up entries)."""

import json
import os
import re
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ["sieve --n-range 7..26 --json", "table --verify --json",
            "addendum --all-groups --json",
            "skeleton --p 4651 --min-poly t+3978 --json",
            "factors --n 59 --p 4651 --json",
            "import burausieve.cli", "python -S -c pass",
            "python -S -c import burausieve.cli",
            "python -S -c import burausieve.cli, warm bytecode"]
# the entries that print nothing: the import with and without site, the
# bare interpreter, and the import without site from cached bytecode
STARTUP = COMMANDS[-4:]
# the sha256 of empty stdout, cut to 16 hex digits
EMPTY = "e3b0c44298fc1c14"
HEX16 = re.compile(r"[0-9a-f]{16}")


def newest_bench_file():
    numbered = []
    for name in os.listdir(ROOT):
        match = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if match:
            numbered.append((int(match.group(1)), name))
    assert numbered, "no BENCH_<n>.json at the root of the repository"
    return os.path.join(ROOT, max(numbered)[1])


def test_newest_bench_file_has_the_schema():
    with open(newest_bench_file(), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["schema"] == 1
    assert re.fullmatch(r"\d+\.\d+\.\d+", bench["python"])
    assert isinstance(bench["nproc"], int) and bench["nproc"] >= 1
    runs = bench["runs"]
    assert isinstance(runs, int) and runs >= 5
    assert bench["commands"] == COMMANDS
    assert "change" in bench["checkouts"]
    assert set(bench["checkouts"]) <= {"change", "baseline"}
    for label, report in bench["checkouts"].items():
        assert HEX16.fullmatch(report["src_sha256"]), label
        tier1 = report["tier1"]
        assert isinstance(tier1["passed"], int) and tier1["passed"] > 0
        assert isinstance(tier1["failed"], int) and tier1["failed"] >= 0
        assert tier1["wall_s"] > 0 and isinstance(tier1["summary"], str)
        # the timed run leaves out this file, which reads the file it writes
        assert tier1["ignored"] == ["tests/test_bench_file.py"], label
        assert list(report["commands"]) == COMMANDS, label
        for text, entry in report["commands"].items():
            times = entry["runs_s"]
            assert len(times) == runs and min(times) > 0, (label, text)
            assert entry["min_s"] == min(times) and entry["max_s"] == max(times)
            assert abs(entry["median_s"] - statistics.median(times)) < 1e-3
            assert HEX16.fullmatch(entry["digest"]), (label, text)
        for text in STARTUP:
            assert report["commands"][text]["digest"] == EMPTY, (label, text)
