"""Command-line front end.

Subcommands: factors (irreducible factors of phi_N(-t) mod p), skeleton
(a universal subgroup's signature and genus, or with --json its whole
skeleton, the one output with an on-disk cache, kept only in the directory
that --cache-dir names), sieve (candidate
extraction plus genus filter over a sweep range), table (golden-data
verification, skeleton.table_verify), addendum (pairwise exclusion and
conjugacy, intersect.addendum_report).  Exit codes: 0 ok, 1 verification
failure, 2 bad input, 3 resource cap, 141 stdout closed before the output
was written (128 + SIGPIPE, as a shell reports a process that SIGPIPE ends).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from array import array
from contextlib import suppress
from functools import cache, partial
from json.encoder import encode_basestring_ascii

from .exactalg import cyclotomic_factors, cyclotomic_split_cost, monic_modulus
from .golden import GOLDEN_ROWS, self_check
from .intersect import addendum_report
from .sieve import SWEEP_RANGE, full_sweep
from .skeleton import DEFAULT_STATE_CAP, Cycles, EnumerationCapExceeded, \
    Skeleton, UniversalGroupSpec, _cap_exceeded, enumerate_universal, \
    orbit_signatures, table_verify
from .typesys import TYPE_TAGS, admissible_types, root_spec

SCHEMA_VERSION = 1  # of every --json output; cache entries have their own header

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141


class RunConfig:
    """Sweep settings, optionally loaded from a JSON file."""

    __slots__ = ("informative_sets", "state_cap")

    def __init__(self):
        self.informative_sets = {}
        self.state_cap = DEFAULT_STATE_CAP

    @staticmethod
    def load(path):
        """Read and check a JSON config file; raises OSError or ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except RecursionError:  # json.JSONDecodeError is a ValueError
                raise ValueError(f"malformed config file {path}: JSON "
                                 f"nested too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = sorted(set(raw) - {"informative_sets", "state_cap"})
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        cfg = RunConfig()
        if "informative_sets" in raw:
            cfg.informative_sets = _checked_word_sets(raw["informative_sets"])
        if "state_cap" in raw:
            cap = raw["state_cap"]
            if type(cap) is not int or cap < 1:  # a JSON integer, not text
                raise ValueError(f"state_cap must be a positive integer, "
                                 f"got {cap!r}")
            cfg.state_cap = cap
        return cfg


def positive_int(text):
    """An integer >= 1, given as command-line text in ASCII decimal digits."""
    if re.fullmatch(r"[0-9]+", text) is None or int(text) < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(text)


def _checked_word_sets(raw):
    """informative_sets {"N": [[word, ...], ...]}; the sweep rejects a bad
    word, or two words with one modular projection, with ValueError.  N
    is in decimal digits with no leading zero, so no two keys name one
    N."""
    if not isinstance(raw, dict) or not all(
            isinstance(sets, list) and all(isinstance(ws, list) and all(
                isinstance(w, str) for w in ws) for ws in sets)
            for sets in raw.values()):
        raise ValueError("informative_sets must map N to lists of braid words")
    lo, hi = SWEEP_RANGE
    for key in raw:
        if not (re.fullmatch(r"[1-9][0-9]*", key) and lo <= int(key) <= hi):
            raise ValueError(f"informative_sets key {key!r} is not an N in "
                             f"{lo}..{hi} with no leading zero")
    return {int(key): sets for key, sets in raw.items()}


# cycles printed per piece of _dump's text
_CYCLES_PER_PIECE = 4096


@cache
def _cycle_template(length):
    """The %-template of one cycle of length ints in _dump's layout.  The
    cache holds one per length met: 1, 2, 3 and the region widths."""
    return "[\n      " + ",\n      ".join(["%d"] * length) + "\n    ]"


@cache
def _dict_template(keys, pad):
    """The %-template of a non-empty dict with these sorted keys in
    _json_text's layout at pad, one %s per value: the keys' text through
    encode_basestring_ascii, with each % doubled.  The cache holds one
    per shape met, a tuple of keys at one depth: 8 over every command's
    payloads."""
    inner = f",\n{pad}  "
    return "{" + inner[1:] + inner.join(
        [encode_basestring_ascii(key).replace("%", "%%") + ": %s"
         for key in keys]) + f"\n{pad}}}"


def _json_text(value, pad):
    """The text of json.dumps(value, sort_keys=True, indent=2) with pad
    after each newline, for a value built of dicts with str keys, lists,
    tuples, str, int, bool and None; None for any other value, and
    TypeError, as json.dumps(sort_keys=True) raises, for a dict whose
    keys do not sort.  Strings and keys go through
    encode_basestring_ascii, which json's encoders call for them, and
    ints through int.__repr__, as json's do; the containers are laid out
    here, so no encoder is built.  The type is read once, and str and
    int, most of every payload's leaves, are tested first.  A dict fills
    its shape's _dict_template with its values' text; a list of dicts of
    one key set, such as the 465 pairs of addendum --all-groups, is laid
    out by column (_rows_text), its keys sorted and tested once."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        first = value[0]
        if type(first) is dict and first and all(
                type(item) is dict and item.keys() == first.keys()
                for item in value):
            keys = _str_keys(first)
            if keys is None:
                return None
            parts = _rows_text(value, keys, inner)
        else:
            parts = [_json_text(item, inner) for item in value]
        if parts is None or None in parts:
            return None
        return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}]"
    if kind is not dict:
        return None
    if not value:
        return "{}"
    keys = _str_keys(value)
    if keys is None:
        return None
    inner = pad + "  "
    parts = tuple([_json_text(value[key], inner) for key in keys])
    if None in parts:
        return None
    return _dict_template(keys, pad) % parts


def _str_keys(mapping):
    """mapping's keys, sorted, or None if one is not a str; TypeError, as
    json.dumps(sort_keys=True) raises, when they do not sort."""
    keys = tuple(sorted(mapping))
    return keys if set(map(type, keys)) == {str} else None


def _rows_text(rows, keys, pad):
    """_json_text of each of rows, dicts of these sorted str keys, at pad,
    or None: a column of exact strs or exact ints (not bools) by one map,
    others cell by cell; each row fills one _dict_template."""
    inner, columns = pad + "  ", []
    for key in keys:
        column = [row[key] for row in rows]
        kinds = set(map(type, column))
        if kinds == {str}:
            column = list(map(encode_basestring_ascii, column))
        elif kinds == {int}:
            column = list(map(int.__repr__, column))
        else:
            column = [_json_text(cell, inner) for cell in column]
            if None in column:
                return None
        columns.append(column)
    return list(map(_dict_template(keys, pad).__mod__, zip(*columns)))


def _dump(payload):
    """The text of json.dumps(payload, sort_keys=True, indent=2), yielded
    piece by piece, for a non-empty dict with str keys: the one printer of
    every --json output.  "".join(_dump(payload)) is that text, byte for
    byte.

    A skeleton's cycles, a value of type Cycles, hold nothing but ints, so
    they are printed _CYCLES_PER_PIECE cycles at a time, and no piece
    holds more than that many cycles' text: the piece's template is
    filled with % straight from the matching slice of Cycles.flat, at C
    speed; %d would print True as 1.  A piece whose cycles all have one
    length, as nearly every piece of black's and white's does, repeats
    that length's _cycle_template, and only another piece looks one up
    per cycle.  The piece's template is built for it and dropped with
    it, so only the per-length templates are kept.  Every other value is
    laid out by _json_text, which builds no encoder: up to Python 3.12,
    json indents with its pure-Python encoder, whose mutually
    referencing closures are garbage that only the cyclic collector
    frees (3.13 indents in C).  A value _json_text does not know, such
    as a float, goes through json.dumps.
    """
    sep = "{\n"
    for key in sorted(payload):
        value = payload[key]
        yield f"{sep}  {json.dumps(key)}: "
        sep = ",\n"
        if type(value) is Cycles:
            lengths, flat = value.lengths, value.flat
            between = "[\n    "
            stop = 0
            for start in range(0, len(lengths), _CYCLES_PER_PIECE):
                piece = lengths[start:start + _CYCLES_PER_PIECE]
                begin, stop = stop, stop + sum(piece)
                yield between
                if piece.count(piece[0]) == len(piece):  # one length
                    cells = [_cycle_template(piece[0])] * len(piece)
                else:
                    cells = map(_cycle_template, piece)
                yield ",\n    ".join(cells) % flat[begin:stop]
                between = ",\n    "
            yield "\n  ]"
        else:
            text = _json_text(value, "  ")
            yield json.dumps(value, sort_keys=True, indent=2).replace(
                "\n", "\n  ") if text is None else text
    yield "\n}"


# -- skeleton cache ----------------------------------------------------------

# An entry is one header int, then black's and then white's images as
# machine ints, array('q') written with tofile: 16 bytes per edge, and n
# is read off the file size.  The header names the format and its version
# (2; version 1 was JSON, under *.json names).  It is written in the
# machine's byte order, so an entry from a machine of the other order
# reads as a wrong header.  This versions the cache only: every --json
# output prints schemaVersion SCHEMA_VERSION.
_CACHE_HEADER = int.from_bytes(b"burausk\x02", "big")
_INT_BYTES = array("q").itemsize


def _cache_key(p, min_poly_text, tag, ambient):
    poly = min_poly_text.replace("^", "").replace("+", "_").replace("-", "m")
    tag = tag.replace("+", "p").replace("-", "m")
    return f"p{p}-{poly}-{tag}-{ambient}.skel"


def _read_cached(path):
    """The skeleton cached at path, or None when the entry is missing or
    corrupt: unreadable, shorter than one edge, a body that is not whole
    (black, white) records, a wrong header (a foreign file, an old JSON
    entry, another byte order), or permutations that Skeleton._from_entry
    refuses.  The entry is read with fromfile into array('Q')s, with no
    intermediate bytes: the bytes the writer's array('q') wrote, read as
    ints >= 0, so an image with the top bit set is one >= 2^63 and out
    of range.  _from_entry checks the rest with compositions and the
    lift's breadth-first certificate of connectedness."""
    try:
        with open(path, "rb") as fh:
            n, rest = divmod(os.fstat(fh.fileno()).st_size - _INT_BYTES,
                             2 * _INT_BYTES)
            if n < 1 or rest:
                return None
            header, black, white = array("Q"), array("Q"), array("Q")
            header.fromfile(fh, 1)
            if header[0] != _CACHE_HEADER:
                return None
            black.fromfile(fh, n)
            white.fromfile(fh, n)
    except (OSError, EOFError):
        return None
    return Skeleton._from_entry(black, white)


def _write_cached(path, sk):
    """Write sk's entry at path through a temp file unique to this writer,
    moved into place by os.replace, so that concurrent writers of one
    entry never share a file and a reader sees a whole entry or none."""
    import tempfile  # here, as no other code needs it
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            array("q", (_CACHE_HEADER,)).tofile(fh)
            array("q", sk.black).tofile(fh)
            array("q", sk.white).tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def cached_enumerate(root, tag, ambient, state_cap, cache_dir):
    """enumerate_universal with a transparent on-disk cache in cache_dir,
    for skeleton --json; with cache_dir None it is the lift alone, and no
    file is read or written.

    The directory is created before the entry is read, so one that
    cannot be made (a regular file, an empty name) raises OSError before
    the lift.  A missing or corrupt entry is a miss and gets overwritten.
    A cached skeleton with more than state_cap edges raises, as the cold
    walk would; the cap is compared after the entry has been checked, so
    a corrupt entry of any size stays a miss.
    """
    spec = UniversalGroupSpec(root, tag, ambient)
    if cache_dir is None:
        return enumerate_universal(spec, state_cap)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, _cache_key(root.p, str(root.min_poly), tag,
                                              ambient))
    sk = _read_cached(path)
    if sk is not None:
        if sk.edge_count > state_cap:
            raise _cap_exceeded(state_cap, spec)
        return sk
    sk = enumerate_universal(spec, state_cap)
    _write_cached(path, sk)
    return sk


# -- subcommands ---------------------------------------------------------------


def cmd_factors(args, cfg, out):
    if args.n > cfg.state_cap:  # checked before phi_N's O(N) coefficients
        raise EnumerationCapExceeded(f"N={args.n} exceeds the state cap "
                                     f"{cfg.state_cap}")
    cost = cyclotomic_split_cost(args.n, args.p)
    if cost > 100 * cfg.state_cap:  # checked before the equal-degree split
        raise EnumerationCapExceeded(
            f"splitting phi_{args.n}(-t) mod {args.p} costs about {cost} steps, "
            f"over 100 times the state cap {cfg.state_cap}")
    factors = cyclotomic_factors(args.n, args.p)
    texts = [str(f) for f in factors]
    if args.json:
        out(_dump({"schemaVersion": SCHEMA_VERSION, "N": args.n, "p": args.p,
                   "factors": texts}))
    else:
        out(f"phi_{args.n}(-t) mod {args.p}: " + ", ".join(texts))
    return EXIT_OK


def cmd_skeleton(args, cfg, out):
    q = args.p ** (len(monic_modulus(args.p, args.min_poly)) - 1)
    # checked before root_spec's proof of irreducibility, which factors
    # q - 1, and before a walk builds the field's O(q) exp and log tables
    if q > cfg.state_cap:
        raise EnumerationCapExceeded(f"the field of order {q} for p={args.p} "
                                     f"m={args.min_poly} exceeds the state cap")
    root = root_spec(args.p, args.min_poly)
    if args.type not in admissible_types(root):
        raise ValueError(f"type {args.type} not admissible for {root}")
    if not args.json:  # one line, read off the orbit without a lift
        (sig, g, _), = orbit_signatures(root, [args.type], args.ambient,
                                        cfg.state_cap)
        out(f"{sig}  genus={g}")
        return EXIT_OK
    sk = cached_enumerate(root, args.type, args.ambient, cfg.state_cap,
                          None if args.no_cache else args.cache_dir)
    payload = {"schemaVersion": SCHEMA_VERSION, "p": args.p,
               "minPoly": str(root.min_poly), "N": root.N, "M": root.M,
               "type": args.type, "ambient": args.ambient}
    payload.update(sk.to_json_dict())
    out(_dump(payload))
    return EXIT_OK


def _parse_range(text):
    """'lo..hi' or one N, in ASCII decimal digits."""
    m = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    if m is None:
        raise ValueError(f"bad range {text!r}")
    return int(m.group(1)), int(m.group(2) or m.group(1))


def cmd_sieve(args, cfg, out):
    results = full_sweep(_parse_range(args.n_range),
                         informative_sets=cfg.informative_sets,
                         state_cap=cfg.state_cap, raw=args.raw)
    payload = {"schemaVersion": SCHEMA_VERSION, "results": []}
    for N in sorted(results):
        entry = results[N]
        payload["results"].append({
            "N": N,
            "sets": entry["sets"],
            "branches": [{"N": N, "branch": br,
                          "triples": [{"p": tr.p, "minPoly": str(tr.min_poly),
                                       "type": tr.type_tag} for tr in trs]}
                         for br, trs in sorted(entry["branches"].items()) if trs],
            "survivors": entry["survivors"],
        })
    if args.json:
        out(_dump(payload))
    else:
        for entry in payload["results"]:
            n_cand = sum(len(b["triples"]) for b in entry["branches"])
            out(f"N={entry['N']}: {n_cand} candidate triples")
            if entry["survivors"] is not None:
                for s in entry["survivors"]:
                    out(f"  survivor p={s['p']} minPoly={s['minPoly']} "
                        f"types={','.join(s['types'])}")
    return EXIT_OK


def cmd_table(args, cfg, out):
    rows = None
    if args.row is not None:
        if not 1 <= args.row <= len(GOLDEN_ROWS):
            raise ValueError(f"row must be 1..{len(GOLDEN_ROWS)}")
        rows = [args.row]
    if not args.verify:
        for row in GOLDEN_ROWS if rows is None else \
                [r for r in GOLDEN_ROWS if r.index in rows]:
            star = "*" if row.starred else " "
            out(f"{star} {row.index:2d} p={row.p:<3d} N={row.N:<3d} "
                f"{', '.join(row.factors)}")
        return EXIT_OK
    report = table_verify(state_cap=cfg.state_cap, rows=rows)
    if args.json:
        out(_dump({"schemaVersion": SCHEMA_VERSION, **report}))
    else:
        for row in report["rows"]:
            status = "pass" if row["ok"] else "FAIL"
            out(f"row {row['row']:2d} p={row['p']:<3d} N={row['N']:<3d} "
                f"{row['expected']:28s} {status}")
        n_ok = sum(1 for r in report["rows"] if r["ok"])
        out(f"{n_ok}/{len(report['rows'])} rows pass")
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def cmd_addendum(args, cfg, out):
    report = addendum_report(cfg.state_cap, args.all_groups)
    if args.json:
        out(_dump({"schemaVersion": SCHEMA_VERSION, **report}))
    else:
        n = len(report["pairs"])
        n_ok = sum(1 for p in report["pairs"] if p["minGenus"] >= 1)
        out(f"{n_ok}/{n} pairwise products have all components of genus >= 1")
        for c in report["conjugacy"]:
            out(f"conjugate-to-e2 {c['row']:12s} types={','.join(c['types'])} "
                f"{'pass' if c['ok'] else 'FAIL'}")
    return EXIT_OK if report["ok"] else EXIT_VERIFY


def _help_width():
    """The width argparse's default formatter wraps help to, found as
    shutil.get_terminal_size finds the columns: COLUMNS when it is a
    positive integer, else the terminal's columns (80 if it reports 0),
    else 80; minus 2.  Only os is needed, so building the parser loads no
    shutil."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
        except (AttributeError, ValueError, OSError):
            columns = 80
    return columns - 2


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's default formatter, given its width (_help_width)."""

    def __init__(self, prog):
        super().__init__(prog, width=_help_width())


def build_parser():
    ap = argparse.ArgumentParser(
        prog="burau-sieve", formatter_class=_HelpFormatter,
        description="Exact re-execution of the exceptional-root classification: "
                    "resultant sieve, universal-subgroup skeletons, genus filter, "
                    "and pairwise exclusion.")
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--cache-dir", help="directory of the skeleton --json "
                    "cache (default: no cache)")
    ap.add_argument("--state-cap", type=positive_int,
                    help="coset enumeration state cap")
    sub = ap.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, formatter_class=_HelpFormatter)

    p = add_parser("factors", help="factor phi_N(-t) over F_p")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--p", type=positive_int, required=True)
    p.add_argument("--json", action="store_true")

    p = add_parser("skeleton", help="enumerate one universal subgroup")
    p.add_argument("--p", type=positive_int, required=True)
    p.add_argument("--min-poly", required=True)
    p.add_argument("--type", default="I", choices=list(TYPE_TAGS))
    p.add_argument("--ambient", default="bu3", choices=["bu3", "b3"])
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-cache", action="store_true")

    p = add_parser("sieve", help="run the resultant sieve over a range of N")
    p.add_argument("--n-range", default=f"{SWEEP_RANGE[0]}..{SWEEP_RANGE[1]}")
    p.add_argument("--raw", action="store_true",
                   help="report candidates only, skip the genus filter")
    p.add_argument("--json", action="store_true")

    p = add_parser("table", help="print or verify the embedded table")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--row", type=positive_int)
    p.add_argument("--json", action="store_true")

    p = add_parser("addendum", help="pairwise exclusion and conjugacy checks")
    p.add_argument("--all-groups", action="store_true",
                   help="one representative per skeleton iso-class instead of per row")
    p.add_argument("--json", action="store_true")
    return ap


# built once: parse_args keeps nothing between calls
_PARSER = build_parser()


def main(argv=None):
    """Run one command and print its outputs; return the exit code.

    Every call parses with the one _PARSER, and looks up the command's
    function by its name when it runs.  A command hands main each output
    through out(): a line of text, or the pieces _dump yields for a
    --json payload.  Nothing is written until the command has returned,
    so an error leaves stdout empty.  Then each output is written piece
    by piece, with the separators and the final newline of
    print("\\n".join(outputs)), and flushed.  A reader that closes the
    pipe early (`| head -1`) ends the run with EXIT_PIPE and no traceback:
    stdout's file descriptor is pointed at os.devnull, so that the text
    still buffered is dropped silently when the interpreter flushes it at
    exit.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code) if exc.code else EXIT_OK
    self_check()
    outputs = []
    # The one error boundary: bad input of any kind raises OSError or
    # ValueError, and a coset walk raises at the state cap.
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.state_cap is not None:
            cfg.state_cap = args.state_cap
        command = {"factors": cmd_factors, "skeleton": cmd_skeleton,
                   "sieve": cmd_sieve, "table": cmd_table,
                   "addendum": cmd_addendum}[args.command]
        code = command(args, cfg, outputs.append)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    stdout = sys.stdout
    try:
        for i, text in enumerate(outputs):
            if i:
                stdout.write("\n")
            stdout.writelines((text,) if isinstance(text, str) else text)
        if outputs:
            stdout.write("\n")
        stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
