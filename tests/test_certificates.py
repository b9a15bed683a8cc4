"""Certificates and synthesis on shared derivation DAGs.

``extract_derivation`` shares one node per held pair, so a derivation is
a DAG whose unfolded tree can be exponentially larger.  ``to_json`` and
``formula_from_derivation`` must stay linear in the DAG while giving the
same answers as a plain walk of the tree.
"""

import inspect
import json
import sys

from hypothesis import given, settings, strategies as st

from bbapart.apartness import (
    TAG_LEFT,
    TAG_RIGHT_BWD,
    TAG_RIGHT_FWD,
    directed_branching_apartness,
    extract_derivation,
)
from bbapart.cli import main
from bbapart.distinguish import formula_from_derivation, simplify, verify_distinguishes
from bbapart.generate import GenParams, random_lts
from bbapart.logic import (
    PAnd,
    PBot,
    PDiamond,
    POr,
    PTop,
    _fold,
    _p_children,
    canonical_key,
    p_and_all,
    p_embed,
    p_satisfies,
    sort_key,
)
from bbapart.lts import TAU, ActionLabel, Lts, reflexive_closure, render_aut

A = ActionLabel("a")


def tree_json(d, l):
    """The certificate as a plain tree: every occurrence written in full."""
    name = l.state_name
    return {
        "conclusion": {"left": name(d.left), "right": name(d.right), "kind": "db"},
        "witness": {"from": name(d.witness[0]), "label": str(d.witness[1]),
                    "to": name(d.witness[2])},
        "children": [
            {"qPrime": name(c.q_prime), "qDoublePrime": name(c.q_dprime),
             "tag": c.tag, "sub": tree_json(c.sub, l)}
            for c in d.children],
    }


def unfold(cert):
    """Replace every ``{"ref": id}`` by the full copy carrying that id."""
    full, stack = {}, [cert]
    while stack:
        node = stack.pop()
        if "id" in node:
            full[node["id"]] = node
        stack.extend(c["sub"] for c in node.get("children", ()))

    def go(node):
        node = full[node["ref"]] if "ref" in node else node
        out = {k: v for k, v in node.items() if k != "id"}
        out["children"] = [dict(c, sub=go(c["sub"])) for c in node["children"]]
        return out

    return go(cert)


def written_ids(cert):
    """Ids of full copies in the order they are written, and all refs."""
    ids, refs, stack = [], [], [cert]
    while stack:
        node = stack.pop()
        if "ref" in node:
            refs.append(node["ref"])
            continue
        if "id" in node:
            ids.append(node["id"])
        stack.extend(reversed([c["sub"] for c in node["children"]]))
    return ids, refs


def shared_nodes(d) -> int:
    """Nodes reached along two or more edges of the DAG."""
    edges, seen, stack = {}, {id(d)}, [d]
    while stack:
        for c in stack.pop().children:
            edges[id(c.sub)] = edges.get(id(c.sub), 0) + 1
            if id(c.sub) not in seen:
                seen.add(id(c.sub))
                stack.append(c.sub)
    return sum(1 for k in edges.values() if k > 1)


def tree_synthesis(d):
    """Synthesis by plain recursion over the unfolded tree."""
    def dedup(items):
        out, seen = [], set()
        for g in sorted(items, key=sort_key):
            if canonical_key(g) not in seen:
                seen.add(canonical_key(g))
                out.append(g)
        return tuple(out)

    def part(tag):
        return dedup(tree_synthesis(c.sub) for c in d.children if c.tag == tag)

    return PDiamond(p_and_all(part(TAG_LEFT)), d.witness[1],
                    part(TAG_RIGHT_FWD), part(TAG_RIGHT_BWD))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 6), st.sampled_from([0.7, 1.5]))
def test_certificates_and_synthesis_match_the_tree(seed, n, tau_density):
    # Some 10-40% of the apart pairs of these LTSs have shared nodes.
    l = random_lts(GenParams(n, visible_density=1.0, tau_density=tau_density,
                             seed=seed))
    rel = directed_branching_apartness(l)
    for p, q in sorted(rel.holds):
        d = extract_derivation(l, rel, p, q)
        cert = d.to_json(l)
        assert unfold(cert) == tree_json(d, l)
        ids, refs = written_ids(cert)
        assert ids == list(range(shared_nodes(d)))
        assert set(refs) <= set(ids)
        if shared_nodes(d) == 0:
            assert cert == tree_json(d, l)
        assert formula_from_derivation(l, d) == tree_synthesis(d)


def tau_chains(k: int) -> Lts:
    """States 0..k-1: a silent chain ending in an a-loop; k..2k-1: a silent
    chain ending in deadlock.  The derivation for (k, 0) is a DAG of
    k*k + 1 nodes whose tree grows exponentially in k."""
    steps = ({(i, TAU, i + 1) for i in range(k - 1)} | {(k - 1, A, k - 1)}
             | {(k + i, TAU, k + i + 1) for i in range(k - 1)})
    return Lts(2 * k, frozenset(steps))


def test_shared_certificate_refs_unfold_to_the_tree():
    l = tau_chains(4)
    rel = directed_branching_apartness(l)
    d = extract_derivation(l, rel, 4, 0)
    cert = d.to_json(l)
    ids, refs = written_ids(cert)
    assert ids and refs
    assert unfold(cert) == tree_json(d, l)
    assert set(cert) == {"conclusion", "witness", "children"}
    assert len(json.dumps(cert)) < len(json.dumps(tree_json(d, l)))


def pformula_from_json(j):
    kind = j["type"]
    if kind == "top":
        return PTop()
    if kind == "bot":
        return PBot()
    if kind in ("and", "or"):
        return (PAnd if kind == "and" else POr)(
            pformula_from_json(j["left"]), pformula_from_json(j["right"]))
    label = TAU if j["label"] == "tau" else ActionLabel(j["label"])
    return PDiamond(pformula_from_json(j["left"]), label,
                    tuple(map(pformula_from_json, j["pos"])),
                    tuple(map(pformula_from_json, j["neg"])))


def test_cli_distinguish_tau_chain_k8_is_small(capsys, tmp_path):
    # The derivation of this pair has 65 nodes and unfolds to 411,748.
    k = 8
    l = tau_chains(k)
    aut = tmp_path / "tau8.aut"
    aut.write_text(render_aut(l))
    assert main(["distinguish", "--lts", str(aut), str(k), "0"]) == 0
    text = capsys.readouterr().out
    assert len(text.encode()) < 1_000_000
    out = json.loads(text)
    assert out["apart"] is True
    f = pformula_from_json(out["formulaJson"])
    closed = reflexive_closure(l)
    assert p_satisfies(closed, k, f) and not p_satisfies(closed, 0, f)


def test_formula_from_derivation_tau_chain_k12():
    # The derivation has 145 nodes and unfolds to about 5.7e8.
    k = 12
    l = tau_chains(k)
    rel = directed_branching_apartness(l)
    f = formula_from_derivation(l, extract_derivation(l, rel, k, 0))
    closed = reflexive_closure(l)
    assert p_satisfies(closed, k, f) and not p_satisfies(closed, 0, f)


def test_simplify_keeps_each_conjunct_of_a_diamond_once():
    # Distinct negated conjuncts of this pair's formula collapse to one
    # node (~<a> T); the simplified diamonds keep it once.
    k = 4
    l = tau_chains(k)
    rel = directed_branching_apartness(l)
    f = simplify(formula_from_derivation(l, extract_derivation(l, rel, k, 0)), l)
    diamonds = []
    _fold(f, _p_children, lambda g, _: diamonds.append(g))
    diamonds = [g for g in diamonds if isinstance(g, PDiamond)]
    assert any(g.neg for g in diamonds)
    for g in diamonds:
        for side in (g.pos, g.neg):
            assert len({canonical_key(h) for h in side}) == len(side), g
    assert verify_distinguishes(l, p_embed(f), k, 0).direction == "leftHolds"
    closed = reflexive_closure(l)
    assert p_satisfies(closed, k, f) and not p_satisfies(closed, 0, f)


def test_cli_distinguish_deep_chain_within_a_small_stack(capsys, tmp_path):
    # Two a-chains: the certificate for (n+1, 0) has a node per round.  With
    # only 60 frames to spare, any walk that recursed per round would fail.
    n = 120
    l = Lts(2 * n + 3, frozenset({(i, A, i + 1) for i in range(n)}
                                 | {(n + 1 + i, A, n + 2 + i) for i in range(n + 1)}))
    aut = tmp_path / "chains.aut"
    aut.write_text(render_aut(l))
    for extra in ([], ["--simplify"]):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            code = main(["distinguish", "--lts", str(aut), *extra, str(n + 1), "0"])
        finally:
            sys.setrecursionlimit(limit)
        assert code == 0, extra
        text = capsys.readouterr().out
        assert text.count('"conclusion"') == n + 1  # one node per round
