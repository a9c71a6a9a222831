"""Skeletons of modular-group subgroups and universal-subgroup enumeration.

A skeleton is a finite edge set with two permutations: an order-dividing-3
action (orbits are black vertices) and an order-dividing-2 action (orbits
are white vertices); regions are the orbits of the derived third action.
The cosets of a universal subgroup are its annihilator covectors up to
scalar, a cyclic cover of the projective line.  Each generator's
(length, net voltage, count) cycles on an orbit's lines describe the
orbit, and `_signature_of` lifts them to its signature and genus.  They
come from a walk or in closed form:
- `_LineWalk` walks at most q + 1 lines, recording each step's voltage
  in the fiber Z/r, and reads them off its steps.  `enumerate_universal`
  checks black^3 = 1, white^2 = 1 and s1 = white o black^2 on the lines,
  lifts black and white to the edges by `_LineWalk.edge_steps` and
  numbers them breadth-first.
  `_orbit_walks` walks once per braid orbit of type lines, as conjugate
  lines share a skeleton up to isomorphism.
- When the trace field F_p(xi + 1/xi) is F_q, the braid image holds
  PSL2(F_q) and is transitive on lines, and `_generator_cycles` reads
  the cycles off each generator's eigenvalues and projective order, for
  `_closed_form` and `intersect`'s fibered products.  It is integer
  arithmetic on logs in Z/(q - 1), with no matrix and no field element:
  a voltage enters a signature only through its order in the fiber
  (`_fiber_cycles`), so only walks and lifts specialize the generators
  or build the field's tables.  Those orders depend on (q, N, M, |S|)
  alone, not on the root (`_closed_form`), so a caller may share one
  closed form among the roots of one field size and ambient.
`orbit_signatures` dispatches between the two, so the sweep's genus
filter, the table check and text-mode `skeleton` walk only the roots
whose trace field is smaller than F_q, and the addendum walks none.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import compress
from math import gcd
from operator import countOf, eq, ge, itemgetter

from .burau import BraidWord, specialize, to_burau
from .exactalg import Value
from .typesys import root_spec, type_coefficient_laurent, type_tags, \
    type_vector

DEFAULT_STATE_CAP = 10 ** 6

# The Burau images of the black, white and region generators, by name
_GENERATORS = {name: to_burau(BraidWord.parse(word)) for name, word in (
    ("black", "s2 s1"), ("white", "s2 s1 s1"), ("region", "s1"))}


class EnumerationCapExceeded(RuntimeError):
    """Raised when the coset enumeration outgrows the configured cap."""


def _compose(outer, inner):
    """The tuple of outer[i] for i in inner, at C speed: the permutation
    inner, then outer.  itemgetter of one index would return no tuple."""
    if len(inner) == 1:
        return (outer[inner[0]],)
    return itemgetter(*inner)(outer)


class Cycles:
    """The cycles of one of a Skeleton's permutations, stored flat: lengths
    holds each cycle's length and flat the cycles' ints one after another,
    as a tuple of the ints the permutation holds, with no tuple per cycle.
    Only Skeleton._cycles_of builds one, on permutations proved to hold
    ints, by the lift's numbering or, for a cache entry, by its typecode,
    so the type marks cycle lists that cli._dump may print with
    %d templates, straight from slices of flat."""

    __slots__ = ("lengths", "flat")

    def __init__(self, lengths, flat):
        self.lengths = lengths
        self.flat = flat


def _short_cycles(perm, starts, order):
    """The Cycles of perm, a permutation with perm^order = 1 for the prime
    order 3 or 2, from its cycle starts, the smallest edge of each cycle,
    in increasing order.  Each cycle is (s, perm[s], ...), order ints long, or (s,) when
    s is fixed.  The images of the starts are composed at C speed and
    written into flat by extended slices; s itself is read back as perm
    applied order times, so flat holds perm's own ints.  Only the few
    fixed edges cost a Python step each, to drop the repeats of s."""
    count = len(starts)
    flat = [None] * (order * count)
    image = nxt = _compose(perm, starts)
    for k in range(1, order):
        flat[k::order] = image
        image = _compose(perm, image)
    flat[::order] = image
    lengths = [order] * count
    fixed = list(compress(range(count), map(eq, image, nxt)))
    if fixed:
        keep = bytearray(b"\x01") * len(flat)
        for k in fixed:
            lengths[k] = 1
            keep[k * order + 1:(k + 1) * order] = bytes(order - 1)
        flat = compress(flat, keep)
    return Cycles(lengths, tuple(flat))


class Skeleton:
    """An edge set with its black/white/region permutations.

    The region permutation is determined by the other two through the fixed
    convention region = white o black^-1 (acting on the right by s1 =
    (s2 s1)^-1 (s2 s1^2)); _certified derives it.  A Skeleton is built by
    enumerate_universal or, from a cache entry, by _from_entry.
    """

    __slots__ = ("edge_count", "black", "white", "region", "_cycles")

    @classmethod
    def _certified(cls, black, white, black2=None):
        """The Skeleton of black and white, sequences of ints that the
        caller proved to be permutations of range(n), n >= 1, with
        black^3 = 1 and white^2 = 1, acting transitively: enumerate_universal
        proves that on the walk's lines, and _from_entry on the edges.
        Every Skeleton is built here.  Only region = white o black^2 is
        derived, from black2 = black o black when the caller composed it,
        with no further pass over the edges."""
        self = object.__new__(cls)
        black = tuple(black)
        white = tuple(white)
        if black2 is None:
            black2 = _compose(black, black)
        object.__setattr__(self, "edge_count", len(black))
        object.__setattr__(self, "black", black)
        object.__setattr__(self, "white", white)
        object.__setattr__(self, "region", _compose(white, black2))
        object.__setattr__(self, "_cycles", {})
        return self

    @classmethod
    def _from_entry(cls, black, white):
        """The Skeleton of a cache entry's black and white, two array('Q')s
        of one length n >= 1, or None unless they are permutations that
        the lift could have written, each check a C-level pass.

        The typecode makes every image an int >= 0, and composing black and
        white with themselves indexes with every image, which raises
        IndexError for one >= n, so both map range(n) into itself.  Then
        black^3 = 1 and white^2 = 1 make both permutations.  Connectedness
        has a certificate in the lift's breadth-first numbering: every edge
        e >= 1 is the black or the white image of an earlier edge, that is
        black^2[e] < e or white[e] < e, so by induction on e every edge is
        reached from edge 0.  The edges with white[e] >= e are white's
        cycle starts, listed once here, so the certificate is black^2[e] < e
        for every start e >= 1, and the starts go on to _cycles_of.
        black^3, proved to be the identity, supplies each e for those
        comparisons.  An entry numbered any other way is refused, and the
        lift writes it again.
        """
        black = tuple(black)
        white = tuple(white)
        n = len(black)
        try:
            black2 = _compose(black, black)
            white2 = _compose(white, white)
        except IndexError:
            return None
        identity = _compose(black, black2)
        if not (all(map(eq, identity, range(n))) and white2 == identity):
            return None
        starts = list(compress(identity, map(ge, white, identity)))
        later = starts[1:]  # edge 0, the first, needs no earlier edge
        if later and any(map(ge, _compose(black2, later), later)):
            return None
        sk = cls._certified(black, white, black2)
        sk._cycles_of("white", starts)
        return sk

    def __setattr__(self, name, value):
        raise AttributeError("Skeleton is immutable")

    def _cycles_of(self, which, starts=None):
        """The Cycles of black, white or region, each from its smallest
        edge, in the order of those edges.  flat holds the permutation's
        own ints: a cycle's first edge i is read back as the image of its
        last, so no new int is made.  black^3 = 1 and white^2 = 1 were
        proved by _LineWalk.check_relations on the walk's lines or, for a
        cache entry, by Skeleton._from_entry on the edges, so their cycle
        starts are the edges i no greater than black[i] and black^2[i], or
        than white[i], and _short_cycles composes the rest; white's starts
        are the given ones when _from_entry has listed them.  Region's
        cycles are walked from the edges no earlier cycle holds, appending
        to one list."""
        cycles = self._cycles.get(which)
        if cycles is None:
            perm = getattr(self, which)
            if which == "black":
                cycles = _short_cycles(perm, [
                    i for i, b in enumerate(perm) if i <= b and i <= perm[b]],
                    3)
            elif which == "white":
                if starts is None:
                    starts = [i for i, w in enumerate(perm) if i <= w]
                cycles = _short_cycles(perm, starts, 2)
            else:
                unseen = bytearray(b"\x01") * self.edge_count
                flat, lengths = [], []
                append = flat.append
                for i in compress(range(self.edge_count), unseen):
                    start = len(flat)
                    append(i)
                    j = perm[i]
                    while j != i:
                        unseen[j] = 0
                        append(j)
                        j = perm[j]
                    flat[start] = j
                    lengths.append(len(flat) - start)
                cycles = Cycles(lengths, tuple(flat))
            self._cycles[which] = cycles
        return cycles

    def black_cycles(self):
        return self._cycles_of("black")

    def white_cycles(self):
        return self._cycles_of("white")

    def region_cycles(self):
        return self._cycles_of("region")

    def region_widths(self):
        return sorted(self.region_cycles().lengths)

    def to_json_dict(self):
        """The payload of skeleton --json.  The cycles stay Cycles, which
        only cli._dump prints: json.dumps needs a default= hook that
        renders each as a list of lists."""
        return {
            "edges": self.edge_count,
            "black": self.black_cycles(),
            "white": self.white_cycles(),
            "regions": self.region_cycles(),
            "signature": str(signature(self)),
            "genus": genus(self),
        }


class SkeletonSignature(Value):
    """(e; v_white, v_black; region width partition), the partition as
    ((width, count), ...) in increasing width, each count positive."""

    __slots__ = ("edges", "v_white", "v_black", "partition")

    def __init__(self, edges, v_white, v_black, partition):
        widths = [w for w, _ in partition]
        if widths != sorted(set(widths)) or any(n < 1 for _, n in partition):
            raise ValueError(f"partition {partition} is not in "
                             f"increasing width with positive counts")
        self.edges, self.v_white, self.v_black = edges, v_white, v_black
        self.partition = partition

    def partition_text(self):
        return " ".join(f"{w}^{n}" for w, n in self.partition)

    def __str__(self):
        return (f"({self.edges};{self.v_white},{self.v_black};"
                f"{self.partition_text()})")


def signature(sk):
    """Monovalent vertex counts and the region width partition."""
    v_black = countOf(sk.black_cycles().lengths, 1)
    v_white = countOf(sk.white_cycles().lengths, 1)
    partition = tuple(Counter(sk.region_widths()).items())  # widths sorted
    return SkeletonSignature(sk.edge_count, v_white, v_black, partition)


def genus(sk):
    """Genus of the minimal supporting surface, from Euler's formula."""
    return _euler_genus(
        len(sk.black_cycles().lengths) + len(sk.white_cycles().lengths),
        sk.edge_count, len(sk.region_cycles().lengths))


def _euler_genus(V, E, F):
    chi = V - E + F
    if (2 - chi) % 2 != 0 or chi > 2:
        raise AssertionError(f"impossible Euler characteristic {chi}")
    return (2 - chi) // 2


def euler_lhs(sig, N):
    """3*v_white + 4*v_black + sum (6 - i) n_i; equals 12 iff genus zero."""
    if max((w for w, _ in sig.partition), default=0) > N:
        raise ValueError("region width exceeds N")
    return (3 * sig.v_white + 4 * sig.v_black
            + sum((6 - w) * n for w, n in sig.partition))


class UniversalGroupSpec(Value):
    """A root (a typesys.RootSpec), a type tag, and the ambient group (bu3
    or b3)."""

    __slots__ = ("root", "type_tag", "ambient")

    def __init__(self, root, type_tag, ambient="bu3"):
        if ambient not in ("bu3", "b3"):
            raise ValueError("ambient must be 'bu3' or 'b3'")
        self.root, self.type_tag, self.ambient = root, type_tag, ambient

    def __str__(self):
        return (f"p={self.root.p} m={self.root.min_poly} type {self.type_tag} "
                f"in {self.ambient}")


def _cap_exceeded(state_cap, spec):
    return EnumerationCapExceeded(f"more than {state_cap} cosets for {spec}")


def _fiber_order(spec):
    """r = |F_q*/S|, with S the scalars: xi in bu3, xi^3 in b3."""
    M = spec.root.M
    return (spec.root.ring.order - 1) // (
        M // gcd(M, 3 if spec.ambient == "b3" else 1))


def _signature_of(spec, lines, k, cycles):
    """(SkeletonSignature, genus) of spec's orbit, from the (length, order,
    count) cycles of black, white and region on its lines: count cycles
    of that length whose net voltage has that order in the fiber Z/r.

    Its local group K <= Z/r has order k, and k edges lie over each line.
    A cycle of length L and net voltage mu in K lifts to k / o cycles of
    length L o, where o is the order of mu.  This is exact on every orbit,
    transitive or not.
    """
    lifted = []  # length -> number of cycles, for black, white and region
    for base in cycles:
        lifts = Counter()
        for length, o, count in base:
            if k % o:
                raise AssertionError(f"cycle voltage outside the local group "
                                     f"for {spec}")
            lifts[length * o] += count * k // o
        lifted.append(lifts)
    black, white, region = lifted
    edges = lines * k
    sig = SkeletonSignature(edges, white[1], black[1],
                            tuple(sorted(region.items())))
    return sig, _euler_genus(sum(black.values()) + sum(white.values()),
                             edges, sum(region.values()))


def _seed_line(root, tag):
    """The line of v_T_perp = (-1, a_T(xi)), where a walk of type tag
    starts: the element -a_T(xi)."""
    ring = root.ring
    return ring.sub(ring.zero, type_vector(tag, root))


class _LineWalk:
    """The projective lines reached from the line of v_T_perp, with voltages.

    The cosets of a universal subgroup are its annihilator covectors modulo
    the scalar subgroup S, a cyclic cover of P^1(F_q) with fiber
    F_q*/S = Z/r.  The walk follows s2 s1 and s2 s1^2 breadth-first over
    the base, so it visits at most q + 1 lines.  The line (1, x) is the
    element x of the root's ring and the line (0, 1) is None; lines[i] is
    the i-th line reached and index[line] its position.  black[i],
    white[i] and region[i] are the steps (j, d) of s2 s1, s2 s1^2 and s1,
    where rep(lines[i]) g = lambda rep(lines[j]) and d is the discrete log
    of lambda mod r, read off the field's log table like every product
    and quotient of the walk (exactalg._unit_tables); potential[i] is the
    net voltage of the tree path from the seed line.  The net voltages of
    the non-tree steps generate the orbit's local group K <= Z/r, of
    order k, and the orbit has lines * k edges.
    The walk raises EnumerationCapExceeded when that exceeds state_cap,
    and already once it holds more than state_cap lines, since k >= 1.
    """

    def __init__(self, spec, state_cap=DEFAULT_STATE_CAP):
        root = spec.root
        ring = root.ring
        add, zero, n1 = ring.add, ring.zero, ring.order - 1
        exp, log = ring.unit_tables
        r = _fiber_order(spec)

        def times(a, b):
            return exp[(log[a] + log[b]) % n1] if a and b else zero

        def move(line, g):
            """(line', d) with rep(line) g = lambda rep(line'), d = log lambda."""
            if line is None:
                a0, a1 = g[2], g[3]
            else:
                a0 = add(g[0], times(line, g[2]))
                a1 = add(g[1], times(line, g[3]))
            if a0:
                e = log[a0]
                return (exp[(log[a1] - e) % n1] if a1 else zero), e % r
            return None, log[a1] % r

        g_black, g_white, g_region = (specialize(_GENERATORS[name], ring)
                                      for name in ("black", "white", "region"))
        seed = _seed_line(root, spec.type_tag)
        index = {seed: 0}
        lines = [seed]
        potential = [0]
        black, white = [], []
        i = 0
        while i < len(lines):
            for g, images in ((g_black, black), (g_white, white)):
                line2, d = move(lines[i], g)
                j = index.get(line2)
                if j is None:
                    j = index[line2] = len(lines)
                    if j == state_cap:
                        raise _cap_exceeded(state_cap, spec)
                    lines.append(line2)
                    potential.append((potential[i] + d) % r)
                images.append((j, d))
            i += 1
        region = []
        for line in lines:
            line2, d = move(line, g_region)
            region.append((index[line2], d))
        m = r  # K = m Z / r Z: tree steps close no cycle and add 0
        for i, steps in enumerate(zip(black, white)):
            for j, d in steps:
                m = gcd(m, potential[i] + d - potential[j])
        if len(lines) * (r // m) > state_cap:
            raise _cap_exceeded(state_cap, spec)
        self.spec, self.r, self.k = spec, r, r // m
        self.lines, self.index, self.potential = lines, index, potential
        self.black, self.white, self.region = black, white, region

    def cycles(self, step):
        """The cycles of step on the walk's lines: (length, net voltage, 1)
        for each, the voltage a sum of logs, not reduced mod r."""
        seen = bytearray(len(step))
        cycles = []
        for start in range(len(step)):
            length = mu = 0
            j = start
            while not seen[j]:
                seen[j] = 1
                length += 1
                j, d = step[j]
                mu += d
            if length:
                cycles.append((length, mu, 1))
        return cycles

    def signature(self):
        """(SkeletonSignature, genus) of the orbit, lifted from the cycles
        of black, white and region on its lines; a net voltage mu has the
        order r / gcd(r, mu) in Z/r."""
        r = self.r
        return _signature_of(self.spec, len(self.lines), self.k, [
            [(length, r // gcd(r, mu), count)
             for length, mu, count in self.cycles(step)]
            for step in (self.black, self.white, self.region)])

    def edge_steps(self, step):
        """The lift of step to the edges (i, t), numbered i * k + t, as an
        array('q') of their images.

        Edge (i, t) is the state (i, potential[i] + m t) with m = r / k, and a
        step (j, d) maps it to (j, t + delta) with delta = (potential[i] + d -
        potential[j]) / m, which is exact: every such difference lies in the
        local group K = m Z / r Z.  The images of line i's edges are
        therefore line j's edges rotated by delta: two ranges.
        """
        k = self.k
        m, potential = self.r // k, self.potential
        images = array("q")
        for i, (j, d) in enumerate(step):
            delta = (potential[i] + d - potential[j]) // m % k
            first = j * k
            images.extend(range(first + delta, first + k))
            images.extend(range(first, first + delta))
        return images

    def check_relations(self):
        """Raise ValueError, naming the line and the relation, unless every
        line satisfies black^3 = 1, white^2 = 1 and s1 = white o black^2:
        from line i, black three times returns to i with voltages summing
        to 0 mod r, white twice does the same, and the s1 step (j, d) is
        black twice, then white, ending at j with the same voltage mod r.

        In the braid group (s2 s1)^2 (s2 s1^2) = (s2 s1)^3 s1, and
        (s2 s1)^3 maps to the scalar xi^3, which lies in S; so on the cover
        s1 is white o black^2, the convention of Skeleton._certified.  Each
        check is exact for the lifts.  A step (j, d) from line i lifts to
        (i, t) -> (j, t + (potential[i] + d - potential[j]) / m) mod k,
        where m divides every black and white step's numerator, being
        their gcd with r.  So the potentials telescope along a word of
        steps (i, d1), ..., ending at line i', whose composite lifts to
        the shift (potential[i] + d1 + ... - potential[i']) / m.  Two
        words from line i lift to the same map on its k edges exactly when
        they end on one line with the same voltage sum mod m k = r; the
        identity is the empty word, with sum 0.  So the lifted black^3 and
        white^2 are the identity, and the lifted s1 is white o black^2, on
        every edge exactly when this O(q) pass passes: both lifts are
        permutations, and no third lift is needed for s1.
        """
        black, white, r = self.black, self.white, self.r
        for i, (j, d) in enumerate(self.region):
            i1, d1 = black[i]
            i2, d2 = black[i1]
            i3, d3 = black[i2]
            if i3 != i or (d1 + d2 + d3) % r:
                raise ValueError(f"black step of line {i} violates "
                                 f"black^3 = 1")
            w1, e1 = white[i]
            w2, e2 = white[w1]
            if w2 != i or (e1 + e2) % r:
                raise ValueError(f"white step of line {i} violates "
                                 f"white^2 = 1")
            i3, d3 = white[i2]
            if i3 != j or (d1 + d2 + d3 - d) % r:
                raise ValueError(f"region step of line {i} violates the "
                                 f"composition convention")


def enumerate_universal(spec, state_cap=DEFAULT_STATE_CAP):
    """The skeleton of a universal subgroup, lifted from the walk over lines.

    The walk's steps are first checked on its lines
    (_LineWalk.check_relations), which proves black^3 = 1, white^2 = 1
    and s1 = white o black^2 on the lifts, so only black and white are
    lifted: _LineWalk.edge_steps lifts each to the walk's lines * k edges,
    ints in range(lines * k), edge 0 being the seed's coset.  The edges
    are then renumbered breadth-first from edge 0, black before white,
    exactly as a covector orbit walk numbers its cosets, and the numbered
    black and white are built as the walk numbers each edge's images.
    The numbering must reach all lines * k edges, so it is a bijection
    onto range(lines * k), the skeleton is connected, and the numbered
    black and white are permutations of the orders the line check proved.
    So the skeleton is built by Skeleton._certified, which only derives
    region, with no edge-level check.  The numbering is also the
    certificate of connectedness that Skeleton._from_entry checks on a
    cache entry: each edge but 0 is first met as an image of an earlier
    edge.  The lifts and the numbering are dropped first,
    which bounds the peak memory.
    """
    walk = _LineWalk(spec, state_cap)
    walk.check_relations()
    lifted_black = walk.edge_steps(walk.black)
    lifted_white = walk.edge_steps(walk.white)
    number = [-1] * len(lifted_black)  # the breadth-first number of each edge
    number[0] = 0
    order = array("q", [0])  # the edges, breadth-first, as machine ints
    black, white = [], []  # their images, numbered, in that order
    for e in order:
        f = lifted_black[e]
        x = number[f]
        if x < 0:
            x = number[f] = len(order)
            order.append(f)
        black.append(x)
        f = lifted_white[e]
        x = number[f]
        if x < 0:
            x = number[f] = len(order)
            order.append(f)
        white.append(x)
    if len(order) != len(walk.lines) * walk.k:
        raise ValueError(f"the lift of {spec} is not connected")
    del lifted_black, lifted_white, number, order
    return Skeleton._certified(black, white)


def _orbit_walks(root, tags, ambient, state_cap):
    """Yield (walk, tags) for each braid orbit of type lines, as walked.

    Conjugate module lines have conjugate universal subgroups: if
    rep(line of v_T_perp) g = lambda rep(line of v_T'_perp), the
    stabilizer of v_T'_perp modulo the scalars is the g-conjugate of that
    of v_T_perp, since scaling a covector leaves its stabilizer alone.
    Their skeletons are then isomorphic.  A walk's index holds every line
    in the orbit of its seed, so the tags, taken in the given order, join
    the first orbit whose walk reached their seed line, and start a walk
    of their own otherwise.  Each orbit is yielded when its first tag is
    walked; its list of tags gains the later tags folded into it, and is
    complete once the generator is exhausted.  Only each walk's index is
    kept here.  Its one caller is orbit_signatures, for the roots that
    _closed_form does not read.
    """
    orbits = []  # (index, tags)
    for tag in tags:
        seed = _seed_line(root, tag)
        for index, members in orbits:
            if seed in index:
                members.append(tag)
                break
        else:
            walk = _LineWalk(UniversalGroupSpec(root, tag, ambient), state_cap)
            orbits.append((walk.index, [tag]))
            yield walk, orbits[-1][1]


def _trace_generates(root):
    """Whether _closed_form applies to root: N >= 7, and s = xi + 1/xi,
    which generates the trace field of the braid image, generates F_q.
    That is, p^e is neither 1 nor -1 mod M = ord(xi) for every proper
    divisor e of d = deg m, which integer arithmetic decides.

    s lies in the subfield F_(p^e), e dividing d, exactly when the
    Frobenius x -> x^(p^e) fixes it.  That map is a field automorphism,
    so it sends s to y + 1/y with y = xi^(p^e), and
    y + 1/y - xi - 1/xi = (y - xi)(1 - 1/(xi y)) is 0 exactly when
    y = xi or y = 1/xi: when xi^(p^e - 1) = 1 or xi^(p^e + 1) = 1, that is
    p^e = 1 or -1 mod M.  So s generates F_q exactly when that fails for
    every proper divisor e.  N >= 7 gives M >= 4, where 1 and M - 1 are
    distinct residues.  The answer depends on (p, d, N, M) alone, the
    same for every root of one (N, p)."""
    p, d, M = root.p, root.ring.degree, root.M
    return root.N >= 7 and all(pow(p, e, M) not in (1, M - 1)
                               for e in range(1, d) if d % e == 0)


def _xi_logs(root):
    """(q - 1, log xi, log -xi) in Z/(q - 1), for a generator w of F_q*
    with xi = w^((q - 1) / M) (see _closed_form); AssertionError unless
    -xi has order N.  -1 is w^((q - 1) / 2) for odd q and 1 for even q."""
    n1 = root.ring.order - 1
    c = n1 // root.M
    x = (c + (n1 // 2 if root.p != 2 else 0)) % n1
    if n1 // gcd(n1, x) != root.N:
        raise AssertionError(f"log -xi has not the order N for {root}")
    return n1, c, x


def _generator_cycles(root):
    """The (length, log, count) cycles of black, white and region on all
    q + 1 lines, in that order: count cycles of that length, each of net
    voltage w^log, the logs in Z/(q - 1) as _xi_logs takes them.  Integer
    arithmetic; _closed_form proves it."""
    n1, c, x = _xi_logs(root)
    if root.p == 3:
        black = [c]
    elif n1 % 3:
        black = []
    else:
        black = [(c + n1 // 3) % n1, (c + 2 * n1 // 3) % n1]
    if root.p == 2:
        white = [3 * c * pow(2, -1, n1) % n1]
    elif c % 2:
        white = []
    else:
        white = [3 * c // 2 % n1, (3 * c // 2 + n1 // 2) % n1]
    cycles = []
    for eigen, n, log_c in ((black, 3, 3 * c % n1), (white, 2, 3 * c % n1),
                            ([x, 0], root.N, 0)):
        rest = root.ring.order + 1 - len(eigen)
        if rest % n:
            raise AssertionError(f"{rest} lines do not fall into cycles of "
                                 f"length {n} for {root}")
        cycles.append([(1, a, 1) for a in eigen] + [(n, log_c, rest // n)])
    return cycles


def _fiber_cycles(spec):
    """_generator_cycles of spec's root as (length, order, count), each
    order that of the log a in spec's fiber Z/r: r / gcd(r, a)."""
    r = _fiber_order(spec)
    return [[(length, r // gcd(r, a), count) for length, a, count in base]
            for base in _generator_cycles(spec.root)]


def _closed_form(spec, state_cap, cycles=None):
    """(SkeletonSignature, genus) of a root whose trace field is F_q,
    without a walk over lines, lifted from cycles, spec's _fiber_cycles,
    which are read here unless the caller has them.

    Black, white and region have projective orders 3, 2 and N >= 7, so the
    braid image in PGL2(F_q) is a quotient of the (2, 3, N) triangle group.
    Among the subgroups of PSL2 (Dickson; Macbeath, "Generators of the
    linear fractional groups", 1969) such a quotient is not cyclic or
    dihedral (there a product of elements of orders 2 and 3 has order 6
    or 2), not A4, S4 or A5 (no element of order N >= 7), and not in a
    Borel subgroup (there that product has order dividing 6 unless both
    factors are translations, which needs p = 2 and p = 3).  So it is
    PSL2 or PGL2 of the field its traces generate, up to conjugacy.  tr^2 / det is
    invariant under scaling and conjugation, and it is 2 - xi - 1/xi on s1;
    when _trace_generates holds, the image therefore holds PSL2(F_q) and
    is transitive on all q + 1 lines.  The commutator subgroup of the
    braid matrices lies in SL2(F_q) and covers PSL2(F_q), and SL2(F_q) is
    perfect for q >= 4, so it is SL2(F_q).  In a basis whose first row
    spans the seed line, diag(a, 1/a) fixes that line with eigenvalue a,
    for every a in F_q*, so the local group is K = F_q*/S = Z/r and the
    orbit has (q + 1) r edges, and _signature_of lifts the generator cycles
    with k = r.  Raises EnumerationCapExceeded exactly when _LineWalk
    would: when (q + 1) r exceeds state_cap.

    Its input is, for each generator g, its fixed lines and its cycles.
    If g^n = c_g I for its projective order n, no power g^L with L < n
    is scalar, so g^L fixes only g's eigenlines, one for each distinct
    eigenvalue lambda in F_q, each a cycle of length 1 and voltage
    lambda; the other q + 1 - #eigenvalues lines fall into cycles of
    length n, each of net voltage c_g.  A voltage enters the signature
    only through its order in Z/r = F_q*/S, with lines = q + 1 and
    k = r = (q - 1) / |S|.  The generators, as burau.to_burau builds
    them, give:
    - region s1 = [[-xi, 1], [0, 1]] is triangular, with the eigenvalues
      -xi and 1, distinct as ord(-xi) = N; so n = N and c_g = 1;
    - black s2 s1 = [[-xi, 1], [-xi^2, 0]] has trace -xi, determinant
      xi^2 and black^3 = xi^3 I, and is not scalar; so n = 3, c_g = xi^3,
      and its eigenvalues are the xi u for the roots u in F_q of
      u^2 + u + 1: the elements of order 3 when p != 3, as
      u^3 - 1 = (u - 1)(u^2 + u + 1), and u = 1 alone when p = 3, where
      u^2 + u + 1 = (u - 1)^2;
    - white s2 s1^2 = [[xi^2, 1 - xi], [xi^3, -xi^2]] has trace 0 and
      white^2 = xi^3 I, and is not scalar (xi != 1); so n = 2, c_g = xi^3,
      and its eigenvalues are the square roots of xi^3 in F_q, one of
      them when p = 2.

    Every set above, and S = <xi> or <xi^3>, is defined from xi in the
    cyclic group F_q* alone, with -1, so each is a set of logs in
    Z/(q - 1) (_generator_cycles).  Let n1 = q - 1 and c = n1 / M.  For
    a generator w0 of F_q*, xi = w0^(c i) with i prime to M, and some
    j = i mod M is prime to n1 (add to i M times the primes of n1 that
    divide neither i nor M), so w = w0^j is a generator with xi = w^c.
    So xi may be taken as any element of order M.  In logs to w: -1 is
    h = n1 / 2 for odd q and 0 for even q, the one element of
    order 2 (or 1), so -xi is x = c + h; the elements of order 3 are
    n1 / 3 and 2 n1 / 3 when 3 divides n1, and there are none otherwise;
    a square root y of xi^3 solves 2 y = 3 c mod n1, which has the one
    solution 3 c 2^-1 for even q (n1 odd), the two 3 c / 2 and
    3 c / 2 + n1 / 2 for odd q and even c, and none for odd c.  So black
    has the eigenvalues {c + n1 / 3, c + 2 n1 / 3} when p != 3 and
    3 | n1, {c} when p = 3 and none otherwise, white those just listed,
    region {x, 0}, and log c_g is 3 c, 3 c and 0.  S is the subgroup of
    order |S| = n1 / r, which is <w^r>, so w^a S has the order
    r / gcd(r, a) in Z/r.  Every log depends on (q, N, M) alone, and
    _trace_generates, read from (p, d, N, M), is shared as well, so the
    result depends only on (q, N, M, |S|), not on the root, and
    orbit_signatures may read one closed form per (q, N, ambient) when
    asked to: M adds nothing to that key, as q fixes p and root_spec
    asserts M = epsilon_p(N, p), and M with the ambient fixes |S|.
    """
    lines, r = spec.root.ring.order + 1, _fiber_order(spec)
    if lines * r > state_cap:
        raise _cap_exceeded(state_cap, spec)
    return _signature_of(spec, lines, r,
                         _fiber_cycles(spec) if cycles is None else cycles)


def orbit_signatures(root, tags, ambient="bu3", state_cap=DEFAULT_STATE_CAP,
                     closed_forms=None, cycles=None):
    """[(signature, genus, tags)], one entry per braid orbit of type lines.

    The one dispatcher between the closed form and the walk.  Conjugate
    lines share a skeleton up to isomorphism, with one signature and genus.
    When the root's trace field is F_q, all q + 1 lines form one orbit,
    whose signature _closed_form gives without a walk; only the roots whose
    trace field is smaller than F_q are walked, once per orbit, by
    _orbit_walks, and each walk is dropped once its signature is read.
    A closed form depends only on (q, N, ambient) (see _closed_form),
    so a caller may pass a dict as closed_forms, which then keeps one per
    key for the roots it is passed with, under one state_cap; the tags
    are still checked for each root.  A caller that has proved
    _trace_generates(root) and read root's _fiber_cycles in ambient, as
    intersect._product_input does, may pass them as cycles, so that
    neither is done again; they do not depend on the tag.  Raises
    EnumerationCapExceeded as _LineWalk does on the orbit's first tag.
    """
    if tags and (cycles is not None or _trace_generates(root)):
        admissible = type_tags(root.M, root.p == 3)
        for tag in tags:  # raises for an inadmissible tag, as a walk would
            if tag not in admissible:
                type_coefficient_laurent(tag, root.M, root.p == 3)
        spec = UniversalGroupSpec(root, tags[0], ambient)
        if closed_forms is None:
            form = _closed_form(spec, state_cap, cycles=cycles)
        else:
            key = (root.ring.order, root.N, ambient)
            form = closed_forms.get(key)
            if form is None:
                form = closed_forms[key] = _closed_form(spec, state_cap,
                                                        cycles=cycles)
        return [(*form, list(tags))]
    return [(*walk.signature(), members)
            for walk, members in _orbit_walks(root, tags, ambient, state_cap)]


def table_verify(state_cap=DEFAULT_STATE_CAP, rows=None):
    """Recompute every golden row and compare against the embedded data.

    For each row and each of its factors the bu3-ambient universal subgroup
    must reproduce the printed signature with genus zero, and the b3-ambient
    genus must vanish exactly for the starred rows.  Both come from
    orbit_signatures on the tag I: the closed form when the factor's trace
    field is F_q, else the walk over lines; no skeleton is built.  The
    closed forms are shared through one closed_forms dict, one per
    (q, N, ambient), as a closed form reads nothing else (see
    _closed_form): 26 for the 52 golden factors in both ambients.  Each
    factor still gets its own root, its trace-field test and tag check,
    and its own comparison with its row.
    Returns a report dict; report['ok'] is the overall verdict.
    """
    from .golden import GOLDEN_ROWS

    wanted = GOLDEN_ROWS if rows is None else [
        r for r in GOLDEN_ROWS if r.index in rows]
    if rows is not None and len(wanted) != len(set(rows)):
        raise ValueError("unknown row index requested")
    report = {"rows": [], "ok": True}
    closed_forms = {}
    for row in wanted:
        want_sig = SkeletonSignature(row.edges, row.v_white, row.v_black,
                                     row.partition)
        entry = {
            "row": row.index, "p": row.p, "N": row.N,
            "starred": row.starred, "expected": str(want_sig), "factors": [],
        }
        row_ok = True
        for text in row.factors:
            root = root_spec(row.p, text)
            (sig, g0, _), = orbit_signatures(root, ["I"], "bu3", state_cap,
                                             closed_forms)
            (_, g3, _), = orbit_signatures(root, ["I"], "b3", state_cap,
                                           closed_forms)
            ok = (sig == want_sig and g0 == 0 and (g3 == 0) == row.starred
                  and root.N == row.N)
            fac_entry = {
                "minPoly": text,
                "signature": str(sig),
                "genus": g0,
                "b3Genus": g3,
                "widthsDivideN": all(row.N % w == 0 for w, _ in sig.partition),
                "tableAmbient": "bu3" if sig == want_sig else "unmatched",
                "ok": ok,
            }
            entry["factors"].append(fac_entry)
            row_ok = row_ok and ok and fac_entry["widthsDivideN"]
        entry["ok"] = row_ok
        report["rows"].append(entry)
        report["ok"] = report["ok"] and row_ok
    return report
