"""Output checks that do not trust the program under test.

Every function takes the stdout of one CLI operation and returns a list of
problems; an empty list means the output is correct.  The reference data
is the table typed into `paper_table`, and the arithmetic facts about
sweep survivors are re-derived with sympy, so none of these checks imports
the `burausieve` package.
"""

from __future__ import annotations

import json
import re
from itertools import combinations

import sympy

import paper_table

_T = sympy.Symbol("t")
_TERM = re.compile(r"^(\d*)(t(?:\^(\d+))?)?$")
TYPE_TAGS = {"I", "II", "III+", "III-", "III3", "IV"}


def _load(stdout):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def parse_poly(text):
    """Parse the CLI's polynomial text ('t^2+2t+2', 't+3978') into {exp: coeff}."""
    terms = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text.replace(" ", "")):
        match = _TERM.match(body)
        if not match or not (match.group(1) or match.group(2)):
            raise ValueError(f"bad term {body!r} in {text!r}")
        coeff = int(match.group(1)) if match.group(1) else 1
        exp = (int(match.group(3)) if match.group(3) else 1) if match.group(2) else 0
        terms[exp] = terms.get(exp, 0) + (-coeff if sign == "-" else coeff)
    return terms


def survivor_problems(p, text, N):
    """m irreducible mod p, m | phi_N(-t) mod p, and -xi of order exactly N."""
    try:
        terms = parse_poly(text)
    except ValueError as exc:
        return [str(exc)]
    m = sympy.Poly(sum(c * _T ** e for e, c in terms.items()), _T, modulus=p)
    if m.degree() < 1 or m.LC() != 1:
        return [f"{text} is not monic of positive degree mod {p}"]
    if not m.is_irreducible:
        return [f"{text} is reducible mod {p}"]
    cyc = sympy.Poly(sympy.cyclotomic_poly(N, _T).subs(_T, -_T), _T, modulus=p)
    if not cyc.rem(m).is_zero:
        return [f"{text} does not divide phi_{N}(-t) mod {p}"]
    one = sympy.Poly(1, _T, modulus=p)
    neg_xi = sympy.Poly(-_T, _T, modulus=p)

    def power(e):
        return (neg_xi ** e).rem(m)

    if power(N) != one:
        return [f"(-xi)^{N} != 1 for {text} mod {p}"]
    for q in sympy.factorint(N):
        if power(N // q) == one:
            return [f"-xi has order dividing {N // q} for {text} mod {p}"]
    return []


def sweep_problems(stdout, N):
    """`sieve --n-range N..N --json`: exactly the paper's survivors for N."""
    payload, probs = _load(stdout)
    if probs:
        return probs
    results = payload.get("results", [])
    if [r.get("N") for r in results] != [N]:
        return [f"expected one result for N={N}, got {[r.get('N') for r in results]}"]
    survivors = results[0].get("survivors") or []
    got = sorted((s["p"], s["minPoly"], s["N"]) for s in survivors)
    want = [pair for pair in paper_table.survivor_pairs() if pair[2] == N]
    for pair in sorted(set(want) - set(got)):
        probs.append(f"missing survivor {pair}")
    for pair in sorted(set(got) - set(want)):
        probs.append(f"unexpected survivor {pair}")
    if len(got) != len(set(got)):
        probs.append("duplicate survivors")
    for s in survivors:
        if not s.get("types") or not set(s["types"]) <= TYPE_TAGS:
            probs.append(f"bad types {s.get('types')} for {s['minPoly']}")
        probs.extend(survivor_problems(s["p"], s["minPoly"], N))
    return probs


def _perm_from_cycles(cycles, edges, lengths, name):
    perm = [-1] * edges
    probs = []
    for cyc in cycles:
        if not cyc or (lengths and len(cyc) not in lengths):
            probs.append(f"{name} cycle of length {len(cyc)}")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 0 <= a < edges or perm[a] != -1:
                return None, probs + [f"{name} cycles do not partition the edges"]
            perm[a] = b
    if -1 in perm:
        return None, probs + [f"{name} cycles do not cover the edges"]
    return perm, probs


def skeleton_problems(stdout, query):
    """`skeleton --json`: echoed query, cycle shapes, composition, genus.

    `query` holds the N, p, minPoly, type and edge count of the request.
    The black cycles must have length 1 or 3 and the white ones 1 or 2;
    black, white and region cycles must each partition the edges, and the
    region permutation must equal white o black^-1.  The genus is
    recomputed from V - E + F and the signature from the cycles.
    """
    payload, probs = _load(stdout)
    if probs:
        return probs
    for key in ("N", "p", "minPoly", "type", "edges"):
        if payload.get(key) != query[key]:
            probs.append(f"{key} is {payload.get(key)!r}, expected {query[key]!r}")
    if payload.get("ambient") != "bu3":
        probs.append(f"ambient is {payload.get('ambient')!r}")
    edges = payload.get("edges")
    if not isinstance(edges, int) or edges < 1:
        return probs + [f"bad edge count {edges!r}"]
    black, p1 = _perm_from_cycles(payload["black"], edges, (1, 3), "black")
    white, p2 = _perm_from_cycles(payload["white"], edges, (1, 2), "white")
    region, p3 = _perm_from_cycles(payload["regions"], edges, (), "region")
    probs += p1 + p2 + p3
    if black is None or white is None or region is None:
        return probs
    black_inv = [0] * edges
    for i, j in enumerate(black):
        black_inv[j] = i
    if any(region[i] != white[black_inv[i]] for i in range(edges)):
        probs.append("region permutation is not white o black^-1")
    chi = len(payload["black"]) + len(payload["white"]) - edges + len(payload["regions"])
    if chi > 2 or chi % 2:
        probs.append(f"impossible Euler characteristic {chi}")
    elif payload.get("genus") != (2 - chi) // 2:
        probs.append(f"genus {payload.get('genus')!r} but V - E + F gives {(2 - chi) // 2}")
    widths = sorted(len(c) for c in payload["regions"])
    counts = {w: widths.count(w) for w in sorted(set(widths))}
    sig = "({};{},{};{})".format(
        edges, sum(1 for c in payload["white"] if len(c) == 1),
        sum(1 for c in payload["black"] if len(c) == 1),
        " ".join(f"{w}^{n}" for w, n in counts.items()))
    if payload.get("signature") != sig:
        probs.append(f"signature {payload.get('signature')!r}, cycles give {sig!r}")
    return probs


def warm_problems(warm_stdout, cold_stdout):
    """A cache hit must print exactly what the cold run printed."""
    if warm_stdout != cold_stdout:
        return ["warm stdout differs from cold stdout"]
    return []


def table_verify_problems(stdout):
    """`table --verify --json`: 13/13 rows, each against the typed table."""
    payload, probs = _load(stdout)
    if probs:
        return probs
    rows = payload.get("rows", [])
    if len(rows) != len(paper_table.ROWS):
        probs.append(f"{len(rows)} rows, expected {len(paper_table.ROWS)}")
    by_index = {r.get("row"): r for r in rows}
    for want in paper_table.ROWS:
        index, p, N, _, starred, sig = want
        got = by_index.get(index)
        if got is None:
            probs.append(f"row {index} missing")
            continue
        if (got.get("p"), got.get("N"), got.get("starred"), got.get("expected")) != \
                (p, N, starred, sig):
            probs.append(f"row {index} header differs from the paper")
        if sorted(f.get("minPoly") for f in got.get("factors", [])) != \
                sorted(paper_table.factors(want)):
            probs.append(f"row {index} factor list differs from the paper")
        for fac in got.get("factors", []):
            if (fac.get("signature") != sig or fac.get("genus") != 0
                    or (fac.get("b3Genus") == 0) != starred or not fac.get("ok")
                    or not fac.get("widthsDivideN")):
                probs.append(f"row {index} factor {fac.get('minPoly')} fails")
        if not got.get("ok"):
            probs.append(f"row {index} not ok")
    if not payload.get("ok"):
        probs.append("report not ok")
    return probs


def addendum_problems(stdout, all_groups):
    """`addendum [--all-groups] --json`: every pair excluded, every row conjugate.

    78 row pairs, or 465 iso-class pairs with --all-groups, each with all
    fibered-product components of genus >= 1; and conjugacy to the e2 line
    for every row.
    """
    payload, probs = _load(stdout)
    if probs:
        return probs
    labels = paper_table.group_labels() if all_groups else \
        [paper_table.row_label(r) for r in paper_table.ROWS]
    want = {frozenset(pair) for pair in combinations(labels, 2)}
    pairs = payload.get("pairs", [])
    got = [frozenset((p.get("rowA"), p.get("rowB"))) for p in pairs]
    if len(got) != len(want) or set(got) != want:
        probs.append(f"{len(set(got) & want)}/{len(want)} expected pairs present, "
                     f"{len(got)} reported")
    low = [p for p in pairs if not (p.get("minGenus", 0) >= 1 and p.get("components", 0) >= 1)]
    if low:
        probs.append(f"{len(low)} pairs with a component of genus 0, "
                     f"first {low[0].get('rowA')} x {low[0].get('rowB')}")
    conj = payload.get("conjugacy", [])
    want_conj = [(paper_table.row_label(r), paper_table.factors(r)[0])
                 for r in paper_table.ROWS]
    if [(c.get("row"), c.get("minPoly")) for c in conj] != want_conj:
        probs.append("conjugacy rows differ from the paper's rows")
    for c in conj:
        if not c.get("ok") or not c.get("types") or not set(c["types"]) <= TYPE_TAGS:
            probs.append(f"conjugacy fails for {c.get('row')}")
    if not payload.get("ok"):
        probs.append("report not ok")
    return probs
