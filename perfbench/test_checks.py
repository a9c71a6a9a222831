"""The benchmark's output checks must reject broken outputs.

    python3 -m pytest -q perfbench/test_checks.py

Each check is fed a correct output built from the typed paper table (or a
hand-made three-edge skeleton), then the same output with one deliberate
fault.  The last test pins the speed probe's arithmetic.  Needs sympy, not
the burausieve package.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402
import paper_table  # noqa: E402
import speed  # noqa: E402


def _sweep_stdout(N, drop=None, edit=None):
    survivors = [{"p": p, "minPoly": m, "N": n, "types": ["I"]}
                 for p, m, n in paper_table.survivor_pairs() if n == N and m != drop]
    if edit:
        edit(survivors)
    return json.dumps({"schemaVersion": 1, "results": [
        {"N": N, "sets": [], "branches": [], "survivors": survivors}]})


def test_sweep_accepts_every_paper_row():
    for N in sorted({n for _, _, n in paper_table.survivor_pairs()}):
        assert checks.sweep_problems(_sweep_stdout(N), N) == []
    assert len(paper_table.survivor_pairs()) == 52


def test_sweep_rejects_a_missing_row():
    probs = checks.sweep_problems(_sweep_stdout(7, drop="t^3+t+1"), 7)
    assert probs == ["missing survivor (2, 't^3+t+1', 7)"]


def test_sweep_rejects_a_wrong_survivor():
    def wrong_prime(survivors):
        survivors[0]["p"] = 31
    assert checks.sweep_problems(_sweep_stdout(7, edit=wrong_prime), 7)


def test_survivor_checks_are_arithmetic():
    assert checks.survivor_problems(19, "t+2", 18) == []
    assert "reducible" in checks.survivor_problems(5, "t^2+4", 8)[0]
    assert "does not divide" in checks.survivor_problems(19, "t+3", 9)[0]
    # -xi = -1 has order 2 mod 3, not 8
    assert checks.survivor_problems(3, "t+2", 8)


def _skeleton(black, white, region, genus=0, signature=None):
    payload = {"schemaVersion": 1, "p": 7, "minPoly": "t+3", "N": 7, "M": 14,
               "type": "I", "ambient": "bu3", "edges": 3,
               "black": black, "white": white, "regions": region,
               "signature": signature or "(3;3,0;3^1)", "genus": genus}
    return json.dumps(payload, indent=2, sort_keys=True)


QUERY = {"N": 7, "p": 7, "minPoly": "t+3", "type": "I", "edges": 3}
GOOD = ([[0, 1, 2]], [[0], [1], [2]], [[0, 2, 1]])


def test_skeleton_accepts_a_consistent_output():
    assert checks.skeleton_problems(_skeleton(*GOOD), QUERY) == []


def test_skeleton_rejects_a_genus_off_by_one():
    probs = checks.skeleton_problems(_skeleton(*GOOD, genus=1), QUERY)
    assert probs == ["genus 1 but V - E + F gives 0"]


def test_skeleton_rejects_bad_cycles():
    black, white, region = copy.deepcopy(GOOD)
    assert checks.skeleton_problems(_skeleton([[0, 1], [2]], white, region), QUERY)
    assert checks.skeleton_problems(_skeleton(black, [[0, 1, 2]], region), QUERY)
    assert checks.skeleton_problems(_skeleton(black, [[0], [1]], region), QUERY)
    assert checks.skeleton_problems(_skeleton(black, white, [[0, 1, 2]]), QUERY)


def test_skeleton_rejects_a_wrong_signature_or_query():
    assert checks.skeleton_problems(_skeleton(*GOOD, signature="(3;2,0;3^1)"), QUERY)
    assert checks.skeleton_problems(_skeleton(*GOOD), dict(QUERY, edges=4))


def test_warm_must_equal_cold():
    cold = _skeleton(*GOOD)
    assert checks.warm_problems(cold, cold) == []
    assert checks.warm_problems(cold + "\n", cold) == ["warm stdout differs from cold stdout"]


def _table_report():
    rows = []
    for index, p, N, groups, starred, sig in paper_table.ROWS:
        factors = [{"minPoly": f, "signature": sig, "genus": 0,
                    "b3Genus": 0 if starred else 1, "widthsDivideN": True, "ok": True}
                   for group in groups for f in group]
        rows.append({"row": index, "p": p, "N": N, "starred": starred,
                     "expected": sig, "factors": factors, "ok": True})
    return {"schemaVersion": 1, "rows": rows, "ok": True}


def test_table_verify_accepts_the_paper_and_rejects_a_missing_row():
    report = _table_report()
    assert checks.table_verify_problems(json.dumps(report)) == []
    del report["rows"][3]
    assert "row 4 missing" in checks.table_verify_problems(json.dumps(report))


def test_table_verify_rejects_a_flipped_star():
    report = _table_report()
    report["rows"][4]["factors"][0]["b3Genus"] = 0
    assert checks.table_verify_problems(json.dumps(report))


def _addendum(all_groups):
    labels = paper_table.group_labels() if all_groups else \
        [paper_table.row_label(r) for r in paper_table.ROWS]
    pairs = [{"rowA": a, "rowB": b, "components": 1, "minGenus": 1}
             for i, a in enumerate(labels) for b in labels[i + 1:]]
    conj = [{"row": paper_table.row_label(r), "minPoly": paper_table.factors(r)[0],
             "types": ["I"], "ok": True} for r in paper_table.ROWS]
    return {"schemaVersion": 1, "pairs": pairs, "conjugacy": conj, "ok": True}


def test_addendum_counts_and_rejections():
    for all_groups, count in ((False, 78), (True, 465)):
        doc = _addendum(all_groups)
        assert len(doc["pairs"]) == count
        assert checks.addendum_problems(json.dumps(doc), all_groups) == []
        doc["pairs"][5]["minGenus"] = 0
        assert checks.addendum_problems(json.dumps(doc), all_groups)
        doc = _addendum(all_groups)
        doc["pairs"].pop()
        assert checks.addendum_problems(json.dumps(doc), all_groups)
        doc = _addendum(all_groups)
        doc["conjugacy"][2]["ok"] = False
        assert checks.addendum_problems(json.dumps(doc), all_groups)


def test_benchmark_json_lists_every_traced_metric():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layertrace.per_layer_units()


def test_reference_seconds_scale_by_the_probe_speed():
    probe = speed.SpeedProbe()
    # 1 s interval, two samples inside at half the reference speed
    probe.starts = [10.2, 10.6]
    probe.durations = [2 * speed.REF_KERNEL_S] * 2
    spent = sum(probe.durations)
    assert abs(probe.reference_seconds(10.0, 11.0) - (1.0 - spent) / 2) < 1e-12
    # an interval with no sample inside uses the nearby ones and removes nothing
    assert abs(probe.reference_seconds(10.3, 10.31) - 0.005) < 1e-12
