"""Least-fixpoint engines for the four apartness relations, or, given a
``goal`` of ordered pairs, their rounds up to the first that holds them.

All engines share one round-based bottom-up saturation kernel: each round
evaluates the rule body for every ordered pair against the previous
round's relation, so round stamps are deterministic and certificate
extraction is well-founded.  The relation is kept as one bitmask of
states per state, and a rule evaluates a row at once; each pair's round
stamp is one compact cell.
"""

from __future__ import annotations

import functools
import sys
from array import array

from .lts import TAU, HashConsed, Lts, _bits, _fold, _union, reflexive_closure, tau_closure

# A round with at least this many fresh pairs per state is dense: its
# columns come from one packed transpose and its stamps from block
# arithmetic.  Sparser rounds walk their fresh bits, which costs less
# below it (measured on seeded random LTSs of 32 to 1,024 states).
_DENSE = 8
# Cells per block of a dense round's stamp writes, which bounds the size
# of their temporaries.
_BLOCK = 1 << 16
# The first stamp that 2-byte cells cannot hold: its round widens them to 4.
_WIDE = 1 << 16
_ZERO_ONE = str.maketrans("01", "\0\1")


class InternalInvariantError(AssertionError):
    """A theorem-backed invariant failed inside an engine."""


class PairNotHeldError(ValueError):
    """Certificate requested for a pair that is not in the relation."""


class DirectedPairRelation:
    """A relation over ordered state pairs: ``rows[p]`` is the bitmask of
    the q with (p, q) held, and ``cells[p * n_states + q]`` the round that
    first derived (p, q), its stamp, or 0 if it is not held: one compact
    cell per pair (an ``array`` of 2 bytes, or of 4 from round 65,536, and
    empty while no pair is held).  The views ``holds`` (the pairs) and
    ``rounds`` (pair to stamp) are built anew on each read."""

    def __init__(self, n_states: int, rows: tuple, cells: array):
        self.n_states, self.rows, self.cells = n_states, rows, cells

    def __contains__(self, pair) -> bool:
        p, q = pair
        return 0 <= p < self.n_states and 0 <= q and self.rows[p] >> q & 1 == 1

    @property
    def holds(self) -> frozenset:
        states = range(self.n_states)
        return frozenset((p, q) for p, row in enumerate(self.rows)
                         for q in states if row >> q & 1)

    @property
    def rounds(self) -> dict:
        return {divmod(i, self.n_states): r for i, r in enumerate(self.cells) if r}


@functools.lru_cache(maxsize=4)
def _swap_masks(stride: int) -> tuple:
    """The (shift, mask) delta swaps that transpose a ``stride`` x
    ``stride`` bit matrix packed row by row into an int: the one for
    index bit j swaps the bit j of each position's row with the bit j of
    its column, so the mask holds the positions with it clear in the row
    and set in the column."""
    width, swaps, j = stride // 8, [], stride >> 1
    while j:
        # The columns with bit j set: runs of j ones every 2j bits.
        row = ((1 << stride) - 1) // ((1 << 2 * j) - 1) * ((1 << j) - 1 << j)
        block = row.to_bytes(width, "little") * j + bytes(width * j)
        swaps.append((j * (stride - 1),
                      int.from_bytes(block * (stride // (2 * j)), "little")))
        j >>= 1
    return tuple(swaps)


def _transpose(rows: list, n: int) -> list:
    """The columns of the n x n bit matrix ``rows``: bit p of ``out[q]`` is
    bit q of ``rows[p]``.  The rows are packed into one int at a stride of
    a power of two (at least 8), which log2(stride) masked delta swaps
    transpose and ``to_bytes`` unpacks: O(n^2 log n / w) word operations
    for w-bit words, and O(n) Python steps."""
    stride = max(8, 1 << (n - 1).bit_length())
    width = stride // 8
    x = int.from_bytes(b"".join([r.to_bytes(width, "little") for r in rows]), "little")
    for shift, mask in _swap_masks(stride):
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    packed = x.to_bytes(n * width, "little")
    return [int.from_bytes(packed[i:i + width], "little")
            for i in range(0, n * width, width)]


def _stamp(cells: array, new: list, r: int) -> None:
    """Write stamp ``r`` into the cells of the bits of ``new`` (per row, a
    mask of pairs whose cells are 0), a block of rows at a time: the
    block's bits become one code unit of 0 or 1 per cell, which times r
    is added to the cells as one int."""
    n, order, size = len(new), sys.byteorder, cells.itemsize
    fmt, codec = f"0{n}b", f"utf-{8 * size}-{order[0]}e"
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        block = new[lo:lo + step]
        if not any(block):
            continue
        # Each row's binary text reads from bit n - 1 down to bit 0.
        text = "".join([format(g, fmt) for g in reversed(block)])[::-1]
        i, j = lo * n, (lo + len(block)) * n
        total = (int.from_bytes(cells[i:j], order)
                 + int.from_bytes(text.translate(_ZERO_ONE).encode(codec), order) * r)
        cells[i:j] = array(cells.typecode, total.to_bytes((j - i) * size, order))


def _saturate(n: int, rule, symmetric: bool, goal=None) -> DirectedPairRelation:
    """The least fixpoint of ``rule``, one round at a time, on bitmasks, or
    its rounds up to the first that holds every pair of a ``goal``: there a
    pair held has its stamp in the whole fixpoint, any other a later one.
    A goal pair with a state out of range raises ``KeyError``.

    ``rows[p]`` holds the q with (p, q) held and ``cols[q]`` the p with
    (p, q) held, as of the previous round.  ``rule(rows, cols)`` gives, per
    state p, the mask of the q at which the rule body fires for (p, q);
    the pairs that are not yet held (with their transposes, for a
    symmetric relation) are added, and their cells get the round's stamp.
    One round costs what the rule costs, so a rule that walks the
    out-steps of every state and ORs n-bit masks costs
    O(sum_p out(p) * n) word operations.  The bookkeeping costs less: a
    sparse round walks its fresh bits, setting a column bit and a cell
    each, and a dense one (``_DENSE`` fresh pairs per state or more) takes
    one packed transpose for its columns and block arithmetic for its
    stamps, with O(n) Python steps.  The stamps take one compact cell per
    pair, however many rounds run.
    """
    if goal is not None and not all(0 <= p < n and 0 <= q < n for p, q in goal):
        raise KeyError("state index out of range")
    full, rows, r = (1 << n) - 1, [0] * n, 0
    cols = rows if symmetric else [0] * n
    cells = array("H")  # sized by the first round that adds a pair
    while goal is None or not all(rows[p] >> q & 1 for p, q in goal):
        if r > n * n:
            raise InternalInvariantError("fixpoint failed to stabilize")
        fresh = [f & full & ~row for f, row in zip(rule(rows, cols), rows)]
        if not any(fresh):
            break
        r += 1
        if r == 1:
            cells = array("H", [0]) * (n * n)
        elif r == _WIDE:
            cells = array("I", cells)
        dense = sum(map(int.bit_count, fresh)) >= _DENSE * n
        for p, f in enumerate(fresh):
            if f >> p & 1:
                raise InternalInvariantError(
                    f"rule fired on the diagonal pair ({p}, {p})")
            rows[p] |= f
            if dense:
                continue
            bit, base = 1 << p, p * n
            while f:
                low = f & -f
                q = low.bit_length() - 1
                cols[q] |= bit
                cells[base + q] = r
                if symmetric:
                    cells[q * n + p] = r
                f ^= low
        if dense:
            columns = _transpose(fresh, n)
            for q, c in enumerate(columns):
                cols[q] |= c
            _stamp(cells, [f | c for f, c in zip(fresh, columns)]
                   if symmetric else fresh, r)
    return DirectedPairRelation(n, tuple(rows), cells)


class _Memo(dict):
    """``memo[key]``: ``compute(key)``, computed once per key."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _reaching(l: Lts) -> _Memo:
    """``reach[x]``: the states of ``l`` with a silent path into a state of
    the bitmask ``x``, kept for one fixpoint.  Only the states of ``x``
    that are entered by a silent step from another state add more than
    themselves; without them, ``x`` is its own reach."""
    back, entered = tau_closure(l).back, l.entered(TAU)
    return _Memo(lambda x: x | _union(x & entered, back) if x & entered else x)


def _escaping(l: Lts) -> _Memo:
    """``escape[label, held]``: the states with a step of ``label`` to a
    state outside the bitmask ``held``, kept for one fixpoint, so steps
    whose targets hold the same mask share an entry, in every round."""
    full = (1 << l.n_states) - 1
    return _Memo(lambda key: l.preimage(key[0], full & ~key[1]))


def _step_rule(l: Lts, branching: bool):
    """The one-rule systems.  A step p -alpha-> p1 fires (p, q) unless it is
    blocked: some q1 reachable from q (by silent steps for the branching
    kinds, q1 = q for the strong ones) has an alpha-step to a q2 with
    (p1, q2) not held, nor (q2, p1) (the same pair for the symmetric kinds,
    whose ``cols`` are their ``rows``), and for the branching kinds (p, q1)
    is not held either.  The branching kinds run on the silent-step
    reflexive closure."""
    if branching:
        l = reflexive_closure(l)
        reach = _reaching(l)
    n = l.n_states
    escape = _escaping(l)

    def rule(rows, cols):
        held = [r | c for r, c in zip(rows, cols)]
        fire = []
        for p in range(n):
            f = 0
            for label, p1 in l.out(p):
                blocked = escape[label, held[p1]]
                if branching:
                    blocked = reach[blocked & ~rows[p]]
                f |= ~blocked
            fire.append(f)
        return fire
    return rule


def _four_rule(l: Lts):
    """The four-rule system on the raw LTS (see
    :func:`directed_branching_apartness_nonreflexive`).  A step p -alpha->
    p1 is blocked at q when q ->>tau q1 -alpha-> q2 with (p, q1) not held
    and p1, q2 not held either way."""
    n = l.n_states
    full = (1 << n) - 1
    reach = _reaching(l)
    escape = _escaping(l)

    def rule(rows, cols):
        fire = []
        for p in range(n):
            left = rows[p]
            # Apart from every state in q's silent closure.
            f = ~reach[full & ~(left | cols[p])]
            for label, p1 in l.out(p):
                blocked = reach[escape[label, rows[p1] | cols[p1]] & ~left]
                if label.silent:
                    # Weakening along a silent step on the left; the
                    # silent-step rule with the extra right-to-left
                    # hypothesis (q, p1).
                    f |= rows[p1] | (cols[p1] & ~blocked)
                else:
                    # Visible-step rule.
                    f |= ~blocked
            fire.append(f)
        return fire
    return rule


def _fixpoint(l: Lts, kind: str) -> _Memo:
    """Engine ``kind``'s relation per ``goal``, a tuple of pairs or None,
    each from one run of the rule, which is kept per LTS and kind with its
    memos."""
    symmetric = kind in ("strong", "branching")
    rule = (_four_rule(l) if kind == "nonreflexive" else
            _step_rule(l, branching=kind in ("branching", "dbranching")))
    return _Memo(lambda goal: _saturate(l.n_states, rule, symmetric, goal))


def strong_apartness(l: Lts, goal=None) -> DirectedPairRelation:
    """Least symmetric relation closed under the strong rule.

    Every label, the silent one included, is treated as an ordinary action.
    """
    return l.memo(_fixpoint, "strong")[goal]


def directed_strong_apartness(l: Lts, goal=None) -> DirectedPairRelation:
    return l.memo(_fixpoint, "dstrong")[goal]


def branching_apartness(l: Lts, goal=None) -> DirectedPairRelation:
    """Least symmetric relation closed under the one-rule branching system,
    computed over the silent-step reflexive closure (the relation is
    invariant under that closure)."""
    return l.memo(_fixpoint, "branching")[goal]


def directed_branching_apartness(l: Lts, goal=None) -> DirectedPairRelation:
    return l.memo(_fixpoint, "dbranching")[goal]


def directed_branching_apartness_nonreflexive(l: Lts, goal=None) -> DirectedPairRelation:
    """The four-rule system on the raw LTS; agrees with
    :func:`directed_branching_apartness` on every LTS."""
    return l.memo(_fixpoint, "nonreflexive")[goal]


# ---------------------------------------------------------------------------
# Derivation certificates

TAG_LEFT = "left"
TAG_RIGHT_FWD = "rightFwd"
TAG_RIGHT_BWD = "rightBwd"


class ChildStep(HashConsed):
    q_prime: int
    q_dprime: int
    tag: str
    sub: "Derivation"


class Derivation(HashConsed):
    """A certificate of directed branching apartness.

    Each node records the witness step p -label-> p1 and, for every pair
    (q', q'') with q ->>tau q' -label-> q'', one sub-certificate: for the
    pair (p, q') (tag left), (p1, q'') (tag rightFwd), or (q'', p1)
    (tag rightBwd).  Sub-certificates may be shared, so a certificate is
    a DAG; its tree is the unfolding.
    """

    left: int
    right: int
    witness: tuple  # (p, label, p1)
    children: tuple  # of ChildStep

    def to_json(self, lts: Lts | None = None, silent_label: str = "tau"):
        """The certificate as JSON, linear in the size of the DAG.

        A sub-derivation reached along two or more edges of the DAG is
        written in full once, at its first occurrence in pre-order, with
        an ``"id"`` (numbered from 0 in that order); its later occurrences
        are ``{"ref": id}``.  Replacing each ref by the full copy gives the
        unfolded tree, and a derivation without shared nodes is written as
        that tree.  Witness labels write the silent action as
        ``silent_label``.
        """
        name = lts.state_name if lts is not None else str
        in_edges: dict = {}
        stack = [self]
        while stack:
            for c in stack.pop().children:
                n = in_edges.get(id(c.sub), 0)
                in_edges[id(c.sub)] = n + 1
                if not n:
                    stack.append(c.sub)
        ids: dict = {}
        root: dict = {}
        stack = [(self, root)]
        while stack:
            node, out = stack.pop()
            if id(node) in ids:
                out["ref"] = ids[id(node)]
                continue
            if in_edges.get(id(node), 0) > 1:
                out["id"] = ids[id(node)] = len(ids)
            out["conclusion"] = {"left": name(node.left),
                                 "right": name(node.right), "kind": "db"}
            out["witness"] = {"from": name(node.witness[0]),
                              "label": node.witness[1].token(silent_label),
                              "to": name(node.witness[2])}
            out["children"] = [
                {"qPrime": name(c.q_prime), "qDoublePrime": name(c.q_dprime),
                 "tag": c.tag, "sub": {}}
                for c in node.children]
            stack.extend((c.sub, entry["sub"]) for c, entry in
                         reversed(list(zip(node.children, out["children"]))))
        return root


def extract_derivation(l: Lts, rel: DirectedPairRelation, p: int, q: int,
                       memo: dict | None = None) -> Derivation:
    """Materialize a derivation for a pair held by
    :func:`directed_branching_apartness`.

    Tie-breaks: among valid witness steps the smallest (label, target) in
    lexicographic order (silent label first, visible labels by name); among
    valid child tags, left before rightBwd before rightFwd.  Round stamps
    decrease strictly from node to child.  Pass the same ``memo`` (a dict,
    from pair to node) to calls on one LTS and relation to share their
    sub-derivations.
    """
    if (p, q) not in rel:
        raise PairNotHeldError(f"pair ({p}, {q}) is not in the relation")
    closed = reflexive_closure(l)
    tc = tau_closure(closed)
    cells, n = rel.cells, rel.n_states
    chosen: dict = {}  # pair -> (witness, [(q1, q2, tag, sub pair)])

    def premises(pair) -> list:
        """Choose the witness step and child tags of ``pair``; its
        sub-pairs in child order."""
        p, q = pair
        bound = cells[p * n + q]
        for label, p1 in closed.out(p):
            assignment = []
            for q1, q2 in tc.triples(q, label):
                for tag, (x, y) in ((TAG_LEFT, (p, q1)),
                                    (TAG_RIGHT_BWD, (q2, p1)),
                                    (TAG_RIGHT_FWD, (p1, q2))):
                    if 0 < cells[x * n + y] < bound:
                        assignment.append((q1, q2, tag, (x, y)))
                        break
                else:
                    break
            else:
                chosen[pair] = ((p, label, p1), assignment)
                return [sub for *_, sub in assignment]
        raise InternalInvariantError(
            f"no witness step re-derives pair ({p}, {q}) at round {bound}")

    def conclude(pair, subs: list) -> Derivation:
        witness, assignment = chosen.pop(pair)
        return Derivation(*pair, witness, tuple(
            ChildStep(q1, q2, tag, d)
            for (q1, q2, tag, _), d in zip(assignment, subs)))

    # One node per pair: nodes are keyed by the pair's value.
    return _fold((p, q), premises, conclude, memo, key=tuple)


def check_tau_extension(l: Lts, rel: DirectedPairRelation) -> list:
    """Violations of the silent-extension theorem: p ->>tau p', q ->>tau q',
    (p', q) held but (p, q') not.  Always empty for a correct engine."""
    forward, rows = tau_closure(reflexive_closure(l)).forward, rel.rows
    states = range(l.n_states)
    return [{"p": p, "pPrime": p1, "q": q, "qPrime": q1}
            for p in states for q in states
            for p1 in _bits(forward[p]) if rows[p1] >> q & 1
            for q1 in _bits(forward[q] & ~rows[p])]
