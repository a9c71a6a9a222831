"""Command-line behavior: outputs, exit codes, caching, determinism."""

import contextlib
import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from array import array

import pytest
from covector_oracle import FieldElem
from helpers import checked_skeleton, count_calls, cycle_tuples, \
    reference_unit_tables

from burausieve import burau, cli, exactalg, intersect, sieve, skeleton, \
    typesys
from burausieve.cli import _cache_key, _dump, main
from burausieve.golden import GOLDEN_ROWS


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        invoke.err = captured.err
        return code, captured.out

    return invoke


class TestFactors:
    def test_golden_row(self, run):
        code, out = run("factors", "--n", "9", "--p", "19")
        assert code == 0
        assert out.strip().endswith("t+4, t+5, t+6, t+9, t+16, t+17")

    def test_json_shape(self, run):
        code, out = run("factors", "--n", "7", "--p", "2", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["schemaVersion"] == 1
        assert data["factors"] == ["t^3+t+1", "t^3+t^2+1"]

    def test_p_dividing_n_repeats_the_factors(self, run):
        # phi_25 = phi_1^20 mod 5, and phi_1(-t) = t+1
        code, out = run("factors", "--n", "25", "--p", "5", "--json")
        assert code == 0
        assert json.loads(out)["factors"] == ["t+1"] * 20

    def test_non_prime_p_is_input_error(self, run):
        code, _ = run("factors", "--n", "9", "--p", "1")
        assert code == 2
        assert "error: 1 is not prime" in run.err

    @pytest.mark.parametrize("argv", [
        ("factors", "--n", "100000000000", "--p", "3"),
        ("--state-cap", "8", "factors", "--n", "9", "--p", "19"),
    ], ids=["default-cap", "given-cap"])
    def test_n_above_the_state_cap_is_resource_error(self, run, argv):
        # refused before phi_N's coefficients are built
        code, _ = run(*argv)
        assert code == 3
        assert "exceeds the state cap" in run.err

    @pytest.mark.parametrize("n", ["2003", "10007"])
    def test_costly_split_is_resource_error(self, run, monkeypatch, n):
        # phi(N)^2 ord_N(3) log2(3) is 8.0e9 for N = 2003 and 1.0e12 for
        # N = 10007, over 100 times the default state cap: refused before
        # the equal-degree split starts
        calls = count_calls(monkeypatch, exactalg, "cyclotomic_factors")
        code, _ = run("factors", "--n", n, "--p", "3")
        assert code == 3 and calls == []
        assert "over 100 times the state cap" in run.err

    @pytest.mark.parametrize("n, p, count", [
        (59, 4651, 2), (301, 3, 6), (401, 3, 1),
    ], ids=["59-mod-4651", "301-mod-3", "401-mod-3"])
    def test_affordable_split_prints_its_factors(self, run, n, p, count):
        # costs 1.3e6 and 5.3e6, and N = 401 needs no split (ord_401(3) =
        # phi(401)): count factors of degree phi(N) / count each
        code, out = run("factors", "--n", str(n), "--p", str(p), "--json")
        factors = json.loads(out)["factors"]
        assert code == 0 and len(factors) == count
        degree = len(exactalg.cyclotomic(n).coeffs) - 1
        assert all(f.startswith(f"t^{degree // count}+") for f in factors)


def _entry_ints(data):
    """A cache entry's header, black and white, as lists of ints."""
    ints = array("q", data).tolist()
    n = (len(ints) - 1) // 2
    return ints[:1], ints[1:1 + n], ints[1 + n:]


def _entry_bytes(header, black, white):
    return array("q", header + black + white).tobytes()


def _repeat_first_black_image(data):
    """An entry whose black permutation maps edges 0 and 1 alike."""
    header, black, white = _entry_ints(data)
    black[0] = black[1]
    return _entry_bytes(header, black, white)


def _out_of_range(data):
    """An entry whose white permutation maps edge 0 to edge n."""
    header, black, white = _entry_ints(data)
    white[0] = len(white)
    return _entry_bytes(header, black, white)


def _black_of_order_twelve(data):
    """An entry whose black permutation joins a fixed edge d to a 3-cycle
    (a b c) as the 4-cycle (a b c d): a permutation of order 12."""
    header, black, white = _entry_ints(data)
    d = next(e for e, b in enumerate(black) if b == e)
    a = next(e for e, b in enumerate(black) if b != e)
    c = black[black[a]]
    black[c], black[d] = d, a
    return _entry_bytes(header, black, white)


def _two_copies(data):
    """An entry holding the skeleton twice, on edges 0..n-1 and n..2n-1:
    valid permutations of a disconnected pair."""
    header, black, white = _entry_ints(data)
    n = len(black)
    return _entry_bytes(header, black + [e + n for e in black],
                        white + [e + n for e in white])


def _not_breadth_first(data):
    """An entry whose edges 1 and n - 1 swap labels: the same skeleton,
    valid and connected, but edge n - 1, now labelled 1, is no black or
    white image of edge 0, so the numbering is not the lift's."""
    header, black, white = _entry_ints(data)
    n = len(black)
    swap = list(range(n))
    swap[1], swap[n - 1] = n - 1, 1
    black = [swap[black[swap[e]]] for e in range(n)]
    white = [swap[white[swap[e]]] for e in range(n)]
    checked_skeleton(black, white)
    return _entry_bytes(header, black, white)


def _top_bit_set(data):
    """An entry whose white image w of edge 0 is written as w - n: the
    signed 'q' the writer uses reads it as a negative index of the same
    edge, and read unsigned it has its top bit set, 2^64 + w - n."""
    header, black, white = _entry_ints(data)
    white[0] -= len(white)
    return _entry_bytes(header, black, white)


def _old_json_entry(data):
    """The same skeleton in the JSON format that cache entries had before."""
    _, black, white = _entry_ints(data)
    return json.dumps({"schemaVersion": 1, "blackPerm": black,
                       "whitePerm": white}).encode()


def _version_one_header(data):
    """An entry whose header names version 1 of the format: the header's
    last byte is its version."""
    header, black, white = _entry_ints(data)
    return _entry_bytes([cli._CACHE_HEADER - 1], black, white)


def _other_byte_order(data):
    """The entry as a machine of the other byte order would write it."""
    ints = array("q", data)
    ints.byteswap()
    return ints.tobytes()


class TestSkeleton:
    def test_row_one(self, run):
        code, out = run("skeleton", "--p", "2", "--min-poly", "t^3+t+1",
                        "--type", "I", "--ambient", "bu3")
        assert code == 0
        assert "(9;1,0;1^2 7^1)" in out

    def test_row_p3(self, run):
        code, out = run("skeleton", "--p", "3", "--min-poly", "t^2+2t+2")
        assert code == 0
        assert "(10;0,1;1^2 8^1)" in out

    def test_reducible_poly_is_input_error(self, run):
        code, _ = run("skeleton", "--p", "2", "--min-poly", "t^2+1")
        assert code == 2

    def test_state_cap_is_resource_error(self, run):
        # a cap of q = 43 admits the field; the walk stops at its 44th line
        code, _ = run("--state-cap", "43", "skeleton", "--p", "43",
                      "--min-poly", "t+4")
        assert code == 3
        assert "more than 43 cosets" in run.err

    def test_cap_message_names_the_group(self, run):
        code, _ = run("--state-cap", "593", "skeleton", "--p", "593",
                      "--min-poly", "t+201")
        assert code == 3
        assert "p=593" in run.err and "t+201" in run.err
        assert "UniversalGroupSpec(" not in run.err

    def test_text_mode_builds_no_payload(self, run, monkeypatch, tmp_path):
        # the text line is read off the orbit: no skeleton is lifted or
        # built, and the cache is neither read nor written
        lifts = count_calls(monkeypatch, skeleton, "enumerate_universal")
        skeletons = count_calls(monkeypatch, skeleton.Skeleton, "_certified")
        code, out = run("--cache-dir", str(tmp_path / "cache"), "skeleton",
                        "--p", "19", "--min-poly", "t+4")
        assert (code, out) == (0, "(20;0,2;1^2 9^2)  genus=0\n")
        assert lifts == [] and skeletons == []
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("argv", [
        ("--p", "2", "--min-poly", "t^3+t+1"),
        ("--p", "19", "--min-poly", "t+4"),
        ("--p", "593", "--min-poly", "t+201"),
        ("--p", "19", "--min-poly", "t+4", "--ambient", "b3"),
        # a root whose trace field is smaller than F_49: its orbit is walked
        ("--p", "7", "--min-poly", "t^2+3t+1"),
    ], ids=["row-1", "p-19", "p-593", "b3", "walked"])
    def test_text_line_matches_the_payload(self, run, argv):
        code, text = run("skeleton", *argv)
        assert code == 0
        code, out = run("skeleton", *argv, "--json")
        data = json.loads(out)
        assert code == 0
        assert text == f"{data['signature']}  genus={data['genus']}\n"

    def test_json_schema(self, run):
        code, out = run("skeleton", "--p", "13", "--min-poly", "t+2", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["edges"] == 14
        assert data["signature"] == "(14;0,2;1^2 12^1)"
        assert data["genus"] == 0
        assert sorted(len(c) for c in data["regions"]) == [1, 1, 12]

    def test_cache_transparency(self, run, tmp_path):
        args = ("--cache-dir", str(tmp_path / "cache"), "skeleton", "--p",
                "19", "--min-poly", "t+4", "--json")
        code1, cold = run(*args)
        assert os.listdir(tmp_path / "cache")
        code2, warm = run(*args)
        assert code1 == code2 == 0
        assert cold == warm

    def test_warm_cache_honours_state_cap(self, run, tmp_path):
        # the p=19 t+4 skeleton has 20 edges; a filled cache must not
        # let it past a cap the cold walk enforces
        cache = str(tmp_path / "cache")
        assert run("--cache-dir", cache, "skeleton", "--p", "19",
                   "--min-poly", "t+4", "--json")[0] == 0
        assert os.listdir(cache)
        code, _ = run("--cache-dir", cache, "--state-cap", "19", "skeleton",
                      "--p", "19", "--min-poly", "t+4", "--json")
        assert code == 3

    @pytest.mark.parametrize("corrupt", [
        # 8 header bytes, then 16 per edge: the p=19 t+4 entry has 20 edges
        lambda data: data[:8 + 16 * 10],
        lambda data: data[:-8],
        lambda data: data[:8],
        lambda data: data[:5],
        _old_json_entry,
        _version_one_header,
        _other_byte_order,
        _out_of_range,
        _repeat_first_black_image,
        _black_of_order_twelve,
        _two_copies,
        _not_breadth_first,
        _top_bit_set,
    ], ids=["truncated", "partial-record", "no-edges", "short-header",
            "old-json", "wrong-header", "other-byte-order", "out-of-range",
            "bad-permutation", "black-of-order-12", "disconnected",
            "not-breadth-first", "image-over-2^63"])
    def test_corrupt_cache_entry_is_a_miss(self, run, tmp_path, corrupt):
        args = ("--cache-dir", str(tmp_path / "cache"), "skeleton", "--p",
                "19", "--min-poly", "t+4", "--json")
        _, cold = run(*args)
        [entry] = (tmp_path / "cache").iterdir()
        data = entry.read_bytes()
        assert len(data) == 8 + 16 * 20
        entry.write_bytes(corrupt(data))
        code, warm = run(*args)
        assert code == 0
        assert warm == cold
        assert entry.read_bytes() == data

    def test_concurrent_writers_of_one_entry(self, run, tmp_path,
                                             monkeypatch):
        # a second run of the same query writes its entry while the first
        # is about to move its own into place: each writes a temp file of
        # its own, so both print the cold stdout and the entry reads back
        query = ("skeleton", "--p", "19", "--min-poly", "t+4", "--json")
        _, cold = run(*query)
        args = ("--cache-dir", str(tmp_path / "cache"), *query)
        real_replace = os.replace
        nested = []

        def replace_after_a_nested_run(src, dst):
            if not nested:
                nested.append(None)  # the nested run replaces at once
                nested[0] = run(*args)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_a_nested_run)
        assert run(*args) == (0, cold)
        assert nested == [(0, cold)]
        [entry] = (tmp_path / "cache").iterdir()
        sk = cli._read_cached(entry)
        assert sk is not None and sk.edge_count == 20
        assert run(*args) == (0, cold)

    def test_field_over_the_cap_skips_the_irreducibility_test(self, run,
                                                               monkeypatch):
        # q = 2^600 is known from the text's degree, so the unit table
        # that would prove t^600+t^5+1 irreducible is never started
        tables = count_calls(monkeypatch, exactalg, "_unit_tables")
        code, _ = run("--state-cap", "100", "skeleton", "--p", "2",
                      "--min-poly", "t^600+t^5+1")
        assert code == 3 and tables == []
        assert f"field of order {2 ** 600} for p=2" in run.err

    def test_one_irreducibility_test_per_run(self, run, monkeypatch):
        # the field's one irreducibility test needs no table: text mode
        # reads t^3+t+1 over F_2 in closed form and builds none, and the
        # lift builds the one table its walk multiplies through
        proofs = count_calls(monkeypatch, exactalg, "root_order")
        tables = count_calls(monkeypatch, exactalg, "_unit_tables")
        assert run("skeleton", "--p", "2", "--min-poly", "t^3+t+1")[0] == 0
        assert len(proofs) == 1 and proofs[0][0].order == 8 and tables == []
        assert run("skeleton", "--p", "2", "--min-poly", "t^3+t+1",
                   "--json")[0] == 0
        assert len(proofs) == 2 and len(tables) == 1
        assert tables[0][0].order == 8

    def test_field_over_the_cap_is_resource_error(self, run, monkeypatch):
        # q = 2^17 exceeds the cap, so the field's O(q) tables are never built
        tables = count_calls(monkeypatch, exactalg, "_unit_tables")
        code, _ = run("--state-cap", "100", "skeleton", "--p", "2",
                      "--min-poly", "t^17+t^3+1")
        assert code == 3
        assert "field of order 131072 for p=2 m=t^17+t^3+1" in run.err
        assert tables == []

    def test_inadmissible_type(self, run):
        code, _ = run("skeleton", "--p", "2", "--min-poly", "t^3+t+1",
                      "--type", "III+")
        assert code == 2

    @pytest.mark.parametrize("home", ["file", "empty-dir"])
    def test_without_cache_dir_no_file_is_touched(self, run, tmp_path,
                                                  monkeypatch, home):
        # the cache lives only where --cache-dir puts it: neither HOME nor
        # any variable of the package's own names a default
        for key in list(os.environ):
            if key.startswith("BURAU_"):
                monkeypatch.delenv(key)
        home_path = tmp_path / "home"
        if home == "file":
            home_path.write_text("not a directory")
        else:
            home_path.mkdir()
        monkeypatch.setenv("HOME", str(home_path))
        query = ("skeleton", "--p", "19", "--min-poly", "t+4", "--json")
        code, cold = run("--cache-dir", str(tmp_path / "cache"), *query)
        assert code == 0
        assert run(*query) == (0, cold)
        # --no-cache wins over --cache-dir
        assert run("--cache-dir", str(tmp_path / "unused"), *query,
                   "--no-cache") == (0, cold)
        assert sorted(path.relative_to(tmp_path).as_posix()
                      for path in tmp_path.rglob("*")) == [
            "cache", "cache/" + _cache_key(19, "t+4", "I", "bu3"), "home"]

    @pytest.mark.parametrize("name", ["file", ""], ids=["regular-file", "empty"])
    def test_unusable_cache_dir_fails_before_the_lift(self, run, tmp_path,
                                                      monkeypatch, name):
        monkeypatch.setenv("HOME", str(tmp_path))  # no default to fall back on
        if name:
            (tmp_path / name).write_text("")
            name = str(tmp_path / name)
        lifts = count_calls(monkeypatch, skeleton, "enumerate_universal")
        code, out = run("--cache-dir", name, "skeleton", "--p", "19",
                        "--min-poly", "t+4", "--json")
        assert (code, out, lifts) == (2, "", [])
        assert run.err.startswith("error: ")


class TestFieldTables:
    def test_only_walks_and_lifts_build_tables(self, monkeypatch):
        # the sweep builds the tables of the five fields it walks, of
        # 257; table --verify and addendum --all-groups read closed forms
        # only and build none
        tables = count_calls(monkeypatch, exactalg, "_unit_tables")
        sieve.full_sweep((7, 26))
        assert sorted(ring.order for ring, in tables) == \
            [49, 49, 64, 81, 729]
        tables.clear()
        skeleton.table_verify()
        intersect.addendum_report(all_groups=True)
        assert tables == []

    def test_tables_match_the_reference(self, run, monkeypatch):
        # every field the sweep, table --verify and addendum --all-groups
        # build has, once a walk asks for them, the exp and log tables that
        # stepping each power by a polynomial product and division of base-p
        # codes gives, with the same generator
        roots = count_calls(monkeypatch, typesys, "root_spec")
        for argv in (("sieve", "--n-range", "7..26", "--json"),
                     ("table", "--verify", "--json"),
                     ("addendum", "--all-groups", "--json")):
            assert run(*argv)[0] == 0
        fields = {(p, exactalg.monic_modulus(p, m)) for p, m in roots}
        assert len(fields) == 257
        assert sum(len(m) > 2 for _, m in fields) == 35  # extension fields
        for p, modulus in fields:
            ring = exactalg.quotient_ring(p, modulus)
            exp, log = exactalg._unit_tables(ring)
            want = [FieldElem.decode(ring, code).element()
                    for code in reference_unit_tables(p, modulus)[0]]
            assert exp == want, (p, modulus)
            assert log == {a: i for i, a in enumerate(want)}, (p, modulus)


class TestSieve:
    def test_range_floor(self, run):
        code, _ = run("sieve", "--n-range", "6..7")
        assert code == 2

    def test_bad_range_text(self, run):
        code, _ = run("sieve", "--n-range", "x..y")
        assert code == 2

    def test_small_range_survivors(self, run):
        code, out = run("sieve", "--n-range", "12..13", "--json")
        assert code == 0
        data = json.loads(out)
        by_n = {entry["N"]: entry for entry in data["results"]}
        pairs = {(s["p"], s["minPoly"]) for s in by_n[12]["survivors"]}
        assert pairs == {(5, "t^2+2t+4"), (5, "t^2+3t+4"), (13, "t+2"),
                         (13, "t+7"), (13, "t+6"), (13, "t+11")}
        assert by_n[13]["survivors"] == []

    def test_deterministic_json(self, run):
        code1, first = run("sieve", "--n-range", "13..14", "--json")
        code2, second = run("sieve", "--n-range", "13..14", "--json")
        assert code1 == code2 == 0
        assert first == second

    def test_raw_mode_skips_filter(self, run, monkeypatch):
        code, out = run("sieve", "--n-range", "13..13", "--json")
        assert code == 0
        filtered = json.loads(out)["results"][0]

        def no_walk(*args, **kwargs):
            raise AssertionError("a raw sieve ran the genus filter")

        monkeypatch.setattr(sieve, "orbit_signatures", no_walk)
        code, out = run("sieve", "--n-range", "13..13", "--raw", "--json")
        assert code == 0
        raw = json.loads(out)["results"][0]
        assert raw["survivors"] is None
        assert raw["branches"] and raw["branches"] == filtered["branches"]


class TestTable:
    def test_listing(self, run):
        code, out = run("table")
        assert code == 0
        assert len(out.strip().splitlines()) == 13

    def test_verify_single_row(self, run):
        code, out = run("table", "--verify", "--row", "1")
        assert code == 0
        assert "1/1 rows pass" in out

    def test_unknown_row(self, run):
        code, _ = run("table", "--verify", "--row", "99")
        assert code == 2

    def test_verify_specializes_nothing(self, run, monkeypatch):
        # every golden factor is read in closed form, integer logs in
        # Z/(q - 1), so no generator matrix is specialized and no field
        # table is built
        specialized = count_calls(monkeypatch, burau, "specialize")
        tables = count_calls(monkeypatch, exactalg, "_unit_tables")
        assert run("table", "--verify", "--json")[0] == 0
        assert specialized == [] and tables == []

    def test_config_file(self, run, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"informative_sets": {"13": [["e"], ["T s2^-1 s1"]]},
             "state_cap": 500000}))
        code, out = run("--config", str(cfg), "sieve", "--n-range", "13..13",
                        "--json")
        assert code == 0
        assert len(json.loads(out)["results"][0]["sets"]) == 2


class TestAddendum:
    def test_leaves_the_cache_alone(self, run, tmp_path):
        # the representatives are read in closed form, never from or to
        # the skeleton cache, even where it holds a corrupt entry of row 1's
        # representative
        cache = tmp_path / "addendum-cache"
        cache.mkdir()
        row = GOLDEN_ROWS[0]
        entry = cache / _cache_key(row.p, row.factors[0], "I", "bu3")
        corrupt = '{"schemaVersion": 1, "blackPerm": [0]'
        entry.write_text(corrupt)
        for argv in (("addendum",), ("addendum", "--all-groups")):
            code, cached = run("--cache-dir", str(cache), *argv)
            assert (code, cached) == run("--cache-dir",
                                         str(tmp_path / "absent"), *argv)
            assert code == 0
        assert os.listdir(cache) == [entry.name]
        assert entry.read_text() == corrupt
        assert not (tmp_path / "absent").exists()

    def test_walks_nothing(self, run, monkeypatch):
        # every row's orbits of type lines and every product of two
        # representatives are read in closed form, so neither the rows nor
        # the iso-class representatives are walked over lines or lifted
        lifts = count_calls(monkeypatch, skeleton, "enumerate_universal")
        walks = count_calls(monkeypatch, skeleton, "_LineWalk")
        for argv in (("addendum", "--json"), ("addendum", "--all-groups")):
            assert run(*argv)[0] == 0
        assert lifts == [] and walks == []

    def test_specializes_nothing(self, run, monkeypatch):
        # the rows' orbits and every product are read from integer logs in
        # Z/(q - 1), so no generator matrix is specialized and no field
        # table is built
        specialized = count_calls(monkeypatch, burau, "specialize")
        tables = count_calls(monkeypatch, exactalg, "_unit_tables")
        for argv in (("addendum",), ("addendum", "--all-groups")):
            assert run(*argv)[0] == 0
        assert specialized == [] and tables == []

    @pytest.mark.parametrize("argv, skeletons", [
        (("addendum", "--json"), 0),
        (("addendum", "--all-groups", "--json"), 0),
    ], ids=["rows", "all-groups"])
    def test_warm_run_builds_only_the_representatives(self, run, tmp_path,
                                                      monkeypatch, argv, skeletons):
        # the fibered products are read in closed form, so not even the
        # representatives are lifted to skeletons, on any run
        cache = str(tmp_path / "addendum-cache")
        assert run("--cache-dir", cache, *argv)[0] == 0
        calls = count_calls(monkeypatch, skeleton.Skeleton, "_certified")
        assert run("--cache-dir", cache, *argv)[0] == 0
        assert len(calls) == skeletons

    def test_no_cache_flag_is_gone(self, run):
        assert run("addendum", "--no-cache")[0] == 2
        assert "unrecognized arguments: --no-cache" in run.err


@pytest.mark.parametrize("cap, argv", [
    ("10", ("sieve", "--n-range", "12..12")),
    ("10", ("addendum",)),
    # a cap of q admits the field; the walk stops at its (q+1)-th line
    ("100003", ("skeleton", "--p", "100003", "--min-poly", "t+2")),
], ids=["sieve", "addendum", "skeleton-large-field"])
def test_state_cap_is_resource_error(run, cap, argv):
    assert run("--state-cap", cap, *argv)[0] == 3
    assert f"more than {cap} cosets" in run.err


def _nested(value):
    """json's default= hook: a Cycles as a list of its cycles, each a list
    of ints."""
    if type(value) is not skeleton.Cycles:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return [list(cycle) for cycle in cycle_tuples(value)]


def _reference_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2, default=_nested)


def _random_skeleton(rng, n, fixed_black, fixed_white):
    """A random connected skeleton on n edges with the given numbers of
    fixed black and white edges, n - fixed_black divisible by 3 and
    n - fixed_white by 2."""
    while True:
        edges = rng.sample(range(n), n)
        black = list(range(n))
        for k in range(fixed_black, n, 3):
            a, b, c = edges[k:k + 3]
            black[a], black[b], black[c] = b, c, a
        edges = rng.sample(range(n), n)
        white = list(range(n))
        for a, b in zip(edges[fixed_white::2], edges[fixed_white + 1::2]):
            white[a], white[b] = b, a
        try:
            return checked_skeleton(black, white)
        except ValueError as exc:
            assert str(exc) == "skeleton is not connected"


class TestPrinter:
    """_dump prints what json.dumps(payload, sort_keys=True, indent=2)
    does, byte for byte, on every command's payload, with a skeleton's
    Cycles rendered as nested lists."""

    @pytest.mark.parametrize("argv", [
        ("sieve", "--n-range", "7..26"),
        ("addendum", "--all-groups"),
        ("table", "--verify"),
        ("factors", "--n", "59", "--p", "19"),
        # row 1: a white fixed edge; p = 19: two black fixed edges
        ("skeleton", "--p", "2", "--min-poly", "t^3+t+1"),
        ("skeleton", "--p", "19", "--min-poly", "t+4"),
        ("skeleton", "--p", "593", "--min-poly", "t+201"),
    ], ids=["sieve", "addendum-all-groups", "table-verify", "factors",
            "skeleton-row-1", "skeleton-fixed-black", "skeleton-593"])
    def test_command_payloads(self, run, monkeypatch, argv):
        payloads = []

        def recording(payload):
            payloads.append(payload)
            return _dump(payload)

        monkeypatch.setattr(cli, "_dump", recording)
        code, out = run(*argv, "--json")
        assert code == 0 and len(payloads) == 1
        text = _reference_text(payloads[0])
        assert "".join(_dump(payloads[0])) == text and out == text + "\n"

    def test_printing_leaves_no_cyclic_garbage(self, run, monkeypatch):
        # the non-Cycles values are laid out with no encoder, so with the
        # cyclic collector off, printing a sweep payload leaves nothing for
        # it to free; json's pure-Python encoder, the negative control,
        # does.  With c_make_encoder gone, json.dumps takes that encoder on
        # every version; from 3.13 on it would otherwise indent in C
        payloads = []
        monkeypatch.setattr(cli, "_dump", lambda payload: payloads.append(
            payload) or iter(()))
        assert run("sieve", "--n-range", "7..26", "--json")[0] == 0
        payload, = payloads
        gc.collect()
        gc.disable()
        try:
            text = "".join(_dump(payload))
            garbage = gc.collect()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(json.encoder, "c_make_encoder", None)
                json.dumps(payload, sort_keys=True, indent=2)
            control = gc.collect()
        finally:
            gc.enable()
        assert (garbage, control > 0) == (0, True)
        assert text == json.dumps(payload, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        [["a", "b"]],
        ["a", "b"],
        [[0, True]],
        [[False]],
        [["0,1", "],["], [1]],
        "],[",
        "a,b",
        [],
        [[]],
        [[0], []],
        [[0.5]],
        [[0, {"a": 1}]],
        {"b": [[1]], "a": [[2]]},
        [[-1, 2 ** 70], [3]],
        ((4,), (5, 6)),
        [[7]],
        None,
        ((True,), (2,)),
        # lists of dicts of one key set, laid out by column
        [{"a": 1, "b": "x"}, {"a": True, "b": "y"}, {"a": 2, "b": "z"}],
        [{"n": 2 ** 70}, {"n": -(2 ** 65)}, {"n": 0}],
        [{"a": 1, "f": 0.5}, {"a": 2, "f": 1}],
        [{"a": 1, "b": [2, {"c": None}]}, {"b": "%s", "a": 3}],
        [{"a": 1, "b": 2}, {"a": 3, "c": 4}, {"a": 5, "b": 6}],
        [{}, {}],
        [{1: "a", 2: True}, {2: None, 1: "b"}],
    ])
    def test_hand_made_payloads(self, value):
        payload = {"schemaVersion": 1, "value": value, "after": [[1, 2]]}
        assert "".join(_dump(payload)) == json.dumps(payload, sort_keys=True,
                                                     indent=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_payloads(self, seed):
        # nested dicts, lists and tuples whose keys hold %, %s, a mapping
        # key, quotes, backslashes and non-ASCII text, drawn from a few key
        # sets at every depth, with empty containers, bools, None and ints
        # beyond 2^64, and lists that repeat one key set in every item, in
        # shuffled insertion orders; a float anywhere sends its top-level
        # value through json's encoder.  Each text is json's, byte for byte
        rng = random.Random(seed)
        names = ["a", "b", "%", "%s", "%d%%", "%(a)s", '"', "\\", "\n",
                 "é", "日本", "\x7f", ""]
        key_sets = [rng.sample(names, rng.randint(1, 5)) for _ in range(4)]

        def value(depth):
            kind = rng.randrange(12 if depth < 5 else 6)
            if kind < 6:
                return rng.choice([
                    rng.randint(-9, 9), rng.randint(2 ** 64, 2 ** 80),
                    -rng.randint(2 ** 64, 2 ** 80), rng.choice(names),
                    True, False, None])
            if kind < 8:
                return {key: value(depth + 1) for key in rng.choice(key_sets)}
            if kind == 11:  # one key set in every item: laid out by column
                keys = rng.choice(key_sets)
                return [{key: value(depth + 1) for key in rng.sample(
                    keys, len(keys))} for _ in range(rng.randrange(1, 5))]
            items = [value(depth + 1) for _ in range(rng.randrange(4))]
            return tuple(items) if kind == 8 else items

        floats = 0
        for _ in range(40):
            payload = {key: value(1) for key in rng.choice(key_sets)}
            if rng.random() < 0.2:
                payload[rng.choice(names)] = [{"x": value(2)}, 0.5, value(2)]
                floats += 1
            assert "".join(_dump(payload)) == json.dumps(
                payload, sort_keys=True, indent=2), payload
        assert floats > 0

    def test_one_key_set_at_several_depths(self):
        # one key set at three depths and three key sets at one depth, each
        # with a key that % would read as a conversion; the float sends
        # only its own top-level value to json's encoder
        keys = {"%": 1, "%s": "%s", "%(a)s": None, "\\\"é": [], "b": {}}
        payload = {
            "%s": [dict(keys, b={"%": dict(keys)}), {"%": 2 ** 65, "b": ()}],
            "%": [keys, {"%d": [True, False]}, {"é": {"%s": {}}}],
            "f": {"%s": [1.5, keys]},
        }
        assert cli._json_text(payload["f"], "  ") is None
        assert cli._json_text(payload["%"], "  ") is not None
        assert "".join(_dump(payload)) == json.dumps(payload, sort_keys=True,
                                                     indent=2)

    @pytest.mark.parametrize("count", [4095, 4096, 4097, 8193])
    def test_skeleton_cycles_across_pieces(self, count):
        # two random skeletons whose black cycles, then white cycles, fall
        # one short of a 4,096-cycle piece, fill it, pass it by one, and
        # pass two pieces by one.  Each has fixed black and white edges,
        # and its regions have mixed widths.
        rng = random.Random(count)
        for counted in ("black", "white"):
            if counted == "black":
                fixed_black = 3
                n = 3 * count - 2 * fixed_black
                fixed_white = 2 + n % 2
            else:
                fixed_white = (2 * count) % 3 or 3
                n = 2 * count - fixed_white
                fixed_black = 3
            sk = _random_skeleton(rng, n, fixed_black, fixed_white)
            payload = {"schemaVersion": 1, **sk.to_json_dict()}
            assert len(payload[counted].lengths) == count
            assert payload["black"].lengths.count(1) == fixed_black
            assert payload["white"].lengths.count(1) == fixed_white
            assert len(set(payload["regions"].lengths)) > 2
            assert "".join(_dump(payload)) == _reference_text(payload)

    @pytest.mark.parametrize("lengths, lookups", [
        ([3] * 4101, 2),
        ([2] * 4095 + [1], 4096),
        ([1] + [2] * 8191, 4097),
        ([25] * 4096 + [1, 25], 3),
    ], ids=["runs", "mixed-last", "mixed-then-run", "region-runs"])
    def test_a_run_of_one_length_takes_one_template(self, monkeypatch,
                                                    lengths, lookups):
        # a piece whose cycles all have one length looks up its template
        # once, any other piece once per cycle; the text is json's
        flat = tuple(range(sum(lengths)))
        payload = {"schemaVersion": 1,
                   "cycles": skeleton.Cycles(lengths, flat)}
        calls = count_calls(monkeypatch, cli, "_cycle_template")
        assert "".join(_dump(payload)) == _reference_text(payload)
        assert len(calls) == lookups

    def test_error_after_output_leaves_stdout_empty(self, run, monkeypatch):
        # main writes nothing until the command returns, so a command that
        # hands over outputs and then fails still prints none of them
        def failing(args, cfg, out):
            out("a line")
            out(_dump({"schemaVersion": 1, "cycles": [[0, 1]]}))
            raise ValueError("failed after its output")

        monkeypatch.setattr(cli, "cmd_factors", failing)
        code, out = run("factors", "--n", "9", "--p", "19", "--json")
        assert code == 2 and out == ""
        assert "error: failed after its output" in run.err

    def test_one_parser_keeps_no_state(self, run, monkeypatch):
        # main parses with the parser the import built; a command run twice
        # in one process, a usage error and a resource error included, gives
        # the same stdout, stderr and exit code both times
        def refuse():
            raise AssertionError("a parser built after import")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv, code, err in [
                (("sieve", "--n-range", "9..9", "--json"), 0, ""),
                (("sieve", "--no-such-option"), 2, "usage: burau-sieve"),
                (("--state-cap", "10", "addendum", "--all-groups"), 3,
                 "error: ")]:
            first = (*run(*argv), run.err)
            assert first == (*run(*argv), run.err), argv
            assert first[0] == code and (first[1] != "") == (code == 0), argv
            assert first[2].startswith(err), argv

    def test_skeleton_peak_memory_is_bounded_by_its_output(self, tmp_path):
        # Printing holds no whole copy of the text, and the constructor no
        # set of the edges: a cold and a warm skeleton --json each peak
        # below 5 times their stdout in traced memory (6.5 to 6.9 times
        # when both were built whole).  With flat cycles and binary cache
        # entries read by fromfile, cold reads 2.24 and warm 2.92 (2.84
        # and 2.98 with a tuple per cycle and JSON entries).  The cold
        # ratio stays 2.24 now that the lift, certified on the walk's
        # lines, skips the validating constructor: the lift peaks at
        # 3.5 MB (3.9 MB through the constructor), below the peak that
        # listing the cycles and printing them set afterwards.
        argv = ["--cache-dir", str(tmp_path / "cache"), "skeleton", "--p",
                "593", "--min-poly", "t+201", "--json"]
        for run_kind in ("cold", "warm"):
            path = tmp_path / f"{run_kind}.json"
            with open(path, "w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh):
                tracemalloc.start()
                try:
                    code = main(argv)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            size = path.stat().st_size
            assert code == 0 and size > 2 * 10 ** 6
            assert peak < 5 * size, (run_kind, peak / size)


class TestBadInput:
    """Bad numbers and config end in exit 2, never in a traceback."""

    @pytest.mark.parametrize("argv", [
        ("--state-cap", "0", "skeleton", "--p", "19", "--min-poly", "t+4"),
        ("--state-cap", "-1", "skeleton", "--p", "19", "--min-poly", "t+4"),
        ("factors", "--n", "0", "--p", "19"),
        # numbers are ASCII decimal digits, as --n-range takes them
        ("factors", "--n", "٩", "--p", "19"),
        ("factors", "--n", "9", "--p", "1_9"),
        ("table", "--row", "١"),
    ], ids=["state-cap-zero", "state-cap-negative", "factors-n-zero",
            "factors-n-non-ascii", "factors-p-underscore", "table-row-non-ascii"])
    def test_bad_number(self, run, argv):
        assert run(*argv)[0] == 2

    @pytest.mark.parametrize("min_poly, message", [
        # refused before a dense list of 10^11 coefficients is built
        ("t^99999999999+1", "exceeds 1000"),
        ("t^1001+1", "exceeds 1000"),
        ("t^3+t^-1001", "exceeds 1000"),
        ("t^1_0+1", "malformed polynomial text"),
        ("t^٢+1", "malformed polynomial text"),
        ("1_0t+1", "malformed polynomial text"),
        ("t^", "malformed polynomial text"),
        ("t+", "malformed polynomial text"),
        ("2*t+1", "malformed polynomial text"),
    ], ids=["exponent-huge", "exponent-too-large", "exponent-too-small",
            "exponent-underscore", "exponent-non-ascii",
            "coefficient-underscore", "exponent-empty", "term-empty",
            "star"])
    def test_bad_polynomial(self, run, min_poly, message):
        code, _ = run("skeleton", "--p", "2", "--min-poly", min_poly)
        assert code == 2
        assert message in run.err

    @pytest.mark.parametrize("text", ["٧..٨", "1_0..12", " 7..8", "7.."],
                             ids=["non-ascii", "underscore", "space", "no-end"])
    def test_bad_n_range(self, run, text):
        assert run("sieve", "--n-range", text, "--raw")[0] == 2
        assert f"bad range {text!r}" in run.err

    def test_missing_config(self, run, tmp_path):
        code, _ = run("--config", str(tmp_path / "absent.json"), "table")
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ('{"state_cap": "abc"}', "positive integer"),
        ('{"informative_sets": {"9": [["e", "s3"]]}}', "s3"),
        ('{"informative_sets": {"9": [["e", "T s1 s1^-1"]]}}', "projection"),
        ('{"state-cap": 5}', "unknown config key 'state-cap'"),
        ('{"informative_sets": {"99": [["e"]]}}', "informative_sets key '99'"),
        ('{"informative_sets": {"nine": [["e"]]}}',
         "informative_sets key 'nine'"),
        ('{"informative_sets": {"9": [["e", "s1^99999999999"]]}}',
         "exceeds 1000"),
        ('{"informative_sets": {"9": [["e", "s1^-1001"]]}}', "exceeds 1000"),
        ('{"informative_sets": {"9": [["e", "s1^"]]}}', "malformed exponent"),
        ('{"informative_sets": {"9": [["e", "s1^1_000"]]}}',
         "malformed exponent"),
        ('{"informative_sets": {"9": [["e", "s1^٣"]]}}', "malformed exponent"),
        ('{"cache_dir": "elsewhere"}', "unknown config key 'cache_dir'"),
        # too deep for json's parser, which raises RecursionError
        ("[" * 200_000, "malformed config file"),
        # keys are ASCII digits, as --n-range takes them
        ('{"informative_sets": {"٩": [["e"]]}}', "informative_sets key '٩'"),
        ('{"state_cap": "12"}', "state_cap must be a positive integer"),
        # "09" would name the N of "9" a second time, and one set be lost
        ('{"informative_sets": {"9": [["e", "T s2^-1 s1"]], '
         '"09": [["s1 s1 s1"]]}}', "informative_sets key '09'"),
    ], ids=["state-cap-text", "unknown-letter", "shared-projection",
            "unknown-key", "n-out-of-range", "n-not-an-integer",
            "exponent-too-large", "exponent-too-small", "exponent-empty",
            "exponent-underscore", "exponent-non-ascii", "cache-dir-key",
            "nested", "n-non-ascii", "state-cap-digit-text", "n-leading-zero"])
    def test_bad_config(self, run, tmp_path, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        code, _ = run("--config", str(cfg), "sieve", "--n-range", "9..9",
                      "--raw")
        assert code == 2
        assert message in run.err


# The fuzz's valid command lines, each cheap at a state cap of 2,000
_FUZZ_LINES = (
    ("factors", "--n", "9", "--p", "19"),
    ("factors", "--n", "15", "--p", "2", "--json"),
    ("skeleton", "--p", "19", "--min-poly", "t+4"),
    ("skeleton", "--p", "2", "--min-poly", "t^3+t+1", "--json"),
    ("skeleton", "--p", "43", "--min-poly", "t+4", "--type", "II",
     "--ambient", "b3", "--json", "--no-cache"),
    ("sieve", "--n-range", "9..9", "--raw"),
    ("table", "--verify", "--row", "1", "--json"),
    ("addendum", "--all-groups"),
)
# What a mutation writes: every option and choice, and hostile values.
# No value names a sweep wider than one N; the widest a case can run is
# the default 7..26, about half a second.
_FUZZ_TOKENS = (
    "factors", "skeleton", "sieve", "table", "addendum", "--help",
    "--config", "--state-cap", "--n", "--p", "--min-poly", "--type",
    "--ambient", "--json", "--no-cache", "--n-range", "--raw", "--verify",
    "--row", "--all-groups", "--", "-", "I", "II", "III+", "IV", "b3",
    "bu3", "0", "1", "2", "3", "7", "9", "19", "26", "43", "-1", "1_9",
    "٩", "1" * 40, str(2 ** 127 - 1), "9..9", "9..8", "0..3", "26..27",
    "t+4", "t^3+t+1", "t^2+1", "t^", "t+", "2*t+1", "t^99999999999+1",
    "t^3000+1", "t^" + "9" * 3000, "9" * 5000, "", " ", "x",
)
_FUZZ_CONFIGS = (
    '{"state_cap": 100}', '{"state_cap": 0}', '{"state_cap": "12"}',
    '{"informative_sets": {"9": [["e", "s1"]]}}',
    '{"informative_sets": {"9": [["e", "s3"]]}}', '{"cache_dir": "x"}',
    "{", "[]", "", "[" * 5000,
)
_FUZZ_CAPS = ("1", "8", "50", "500", "2000")


def _fuzz_case(rng, configs):
    """One mutated command line: 1-3 replacements, insertions, deletions
    or swaps of a valid one, sometimes after a --config."""
    argv = list(rng.choice(_FUZZ_LINES))
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.randrange(4) if argv else 1
        i = rng.randrange(len(argv) + (op == 1))
        if op == 0:
            argv[i] = rng.choice(_FUZZ_TOKENS)
        elif op == 1:
            argv.insert(i, rng.choice(_FUZZ_TOKENS))
        elif op == 2:
            del argv[i]
        elif i + 1 < len(argv):
            argv[i], argv[i + 1] = argv[i + 1], argv[i]
    if rng.random() < 0.25:
        argv[:0] = ["--config", rng.choice(configs)]
    # a later --state-cap wins: keep every one small, as the factors
    # guard admits a split that costs up to 100 times the cap
    for i in range(len(argv) - 1):
        value = argv[i + 1]
        if argv[i] == "--state-cap" and value.isascii() and value.isdigit() \
                and (len(value) > 4 or int(value) > 2000):
            argv[i + 1] = "2000"
    return argv


def test_seeded_fuzz_never_tracebacks(capsys, tmp_path, monkeypatch):
    # 1,000 mutated command lines, in process: each exits 0-3 and none
    # raises or prints a traceback
    monkeypatch.chdir(tmp_path)
    configs = []
    for n, text in enumerate(_FUZZ_CONFIGS):
        path = tmp_path / f"cfg{n}.json"
        path.write_text(text, encoding="utf-8")
        configs.append(str(path))
    rng = random.Random(26)
    failures = []
    for _ in range(1000):
        argv = ["--state-cap", rng.choice(_FUZZ_CAPS), "--cache-dir",
                str(tmp_path / "cache"), *_fuzz_case(rng, configs)]
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - reported with its argv
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            failures.append((argv, code))
    assert not failures, "\n".join(f"{code}: {argv!r}"
                                   for argv, code in failures)


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader takes one line and closes the pipe, as `| head -1`
    # does; the 2.2 MB output outgrows the pipe's buffer, so a later
    # write meets the closed pipe
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "burausieve.cli", "skeleton", "--p", "593",
         "--min-poly", "t+201", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""  # no traceback, no error line
    assert proc.returncode == cli.EXIT_PIPE == 141


def test_start_up_loads_no_tempfile_or_random():
    # tempfile is imported by the cache writer alone and random by the
    # split over F_p alone, so neither the import nor a command that
    # does neither loads them; -S keeps out site, whose modules may
    # load either
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = ("import sys, burausieve.cli\n"
              "loaded = lambda: [m for m in ('tempfile', 'random')"
              " if m in sys.modules]\n"
              "after_import = loaded()\n"
              "code = burausieve.cli.main(['table', '--verify', '--json'])\n"
              "print(code, after_import, loaded())\n")
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 [] []"
