"""Property audits: node, functor, outcome layers; derived verdicts."""

from __future__ import annotations

import dataclasses
import importlib.resources
import itertools
import json
import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from absaudit import freecat
from absaudit.abstraction import (
    GLOBAL,
    Direction,
    OutcomeMap,
    edge_map_non_paths,
    preimage,
    pushforward,
    validate_abstraction,
)
from absaudit.audit import (
    audit_abstraction,
    audit_functor,
    audit_node_map,
    audit_outcome_map,
    summarize_outcomes,
    tri_and,
)
from absaudit.cli import main
from absaudit.errors import AbsauditError
from absaudit.freecat import is_path
from absaudit.scm import Dag, Scm, Variable, joint_distribution, underlying_graph
from absaudit.taxonomy import detect_types
from absaudit.textfmt import Document, emit_document, parse_document, parse_path

from helpers import (
    BIN,
    HASHABLE_JUNK,
    JUNK,
    M,
    U2,
    abstraction,
    chain,
    dag_model,
    det_outcomes,
    model,
    random_dag,
    unary_chain,
    xor,
)
from oracles import all_paths, block, functor_verdicts, outcome_range_codes, set_map_verdicts


@pytest.fixture
def micro():
    return chain("micro", ["S", "T", "C"])


@pytest.fixture
def macro():
    return chain("macro", ["S'", "C'"])


def test_tri_and():
    assert tri_and(True, True) is True
    assert tri_and(True, False) is False
    assert tri_and(True, None) is None
    assert tri_and(False, None) is False
    assert tri_and() is True


# ---------------------------------------------------------------------------
# Node layer
# ---------------------------------------------------------------------------

def test_node_total_coarsening(micro, macro):
    a = abstraction("a", micro, macro, {"S": "S'", "T": "S'", "C": "C'"})
    n = audit_node_map(a, micro, macro)
    assert (n.functional, n.deterministic, n.surjective) == (True, True, True)
    assert n.injective is False and n.bijective is False


def test_node_partial_map(micro, macro):
    a = abstraction("a", micro, macro, {"S": "S'", "C": "C'"})
    n = audit_node_map(a, micro, macro)
    assert not n.functional
    assert n.surjective and n.injective is True
    assert n.bijective is False  # partiality rules out bijectivity outright


def test_node_stochastic_map(micro, macro):
    a = abstraction(
        "a", micro, macro,
        {"S": {"S'": 0.5, "C'": 0.5}, "T": {"S'": 1.0}, "C": {"C'": 1.0}},
    )
    n = audit_node_map(a, micro, macro)
    assert n.functional and not n.deterministic
    assert n.injective is None and n.bijective is None
    assert n.surjective  # weight reaches every target node


def test_node_bijection(micro):
    other = chain("other", ["X", "Y", "Z"])
    a = abstraction("a", micro, other, {"S": "X", "T": "Y", "C": "Z"})
    n = audit_node_map(a, micro, other)
    assert n.bijective is True


# ---------------------------------------------------------------------------
# Functor layer
# ---------------------------------------------------------------------------

def test_functor_not_declared(micro, macro):
    a = abstraction("a", micro, macro, {"S": "S'", "C": "C'"})
    f = audit_functor(a, micro, macro)
    assert not f.declared
    assert f.functorial is None and f.full is None and f.faithful is None


def test_functor_stochastic_nodes_undefined(micro, macro):
    a = abstraction(
        "a", micro, macro, {"S": {"S'": 0.5, "C'": 0.5}},
        edges={M("S"): M("S'")},
    )
    f = audit_functor(a, micro, macro)
    assert f.declared and f.functorial is None


def test_functor_relative_to_mapped_nodes(micro, macro):
    # T is unmapped: morphisms may pass through it, and the layer is total
    # as soon as hom-sets between mapped nodes are covered.
    a = abstraction(
        "a", micro, macro, {"S": "S'", "C": "C'"},
        edges={
            M("S"): M("S'"),
            M("C"): M("C'"),
            M("S", "T", "C"): M("S'", "C'"),
        },
    )
    f = audit_functor(a, micro, macro)
    assert f.functorial is True
    assert f.full is True
    assert f.faithful is True and f.faithful_parallel is True
    assert f.fully_faithful is True


def test_all_zero_row_leaves_the_node_unmapped():
    # An unvalidated all-zero row (`T : Y 0.0`) maps nothing: the node
    # audit, the functor audit and the preimage read the same support.
    src, tgt = chain("src", ["S", "T"]), chain("tgt", ["X", "Y"])
    a = abstraction(
        "a", src, tgt, {"S": {"X": 1.0}, "T": {"Y": 0.0}}, edges={M("S"): M("X")}
    )
    profile = audit_abstraction(a, src, tgt)
    assert profile.node.deterministic is True
    assert profile.node.functional is False
    assert profile.functor.functorial is True
    assert profile.functor.full is True  # relative to the image node X
    assert preimage(a, src, "X") == ("S",)
    assert preimage(a, src, "Y") == ()


def test_functor_missing_entry(micro, macro):
    a = abstraction(
        "a", micro, macro, {"S": "S'", "C": "C'"},
        edges={M("S"): M("S'"), M("C"): M("C'")},
    )
    f = audit_functor(a, micro, macro)
    assert f.functorial is False  # S^T^C has no image


def test_functor_endpoint_violation(micro):
    rev = model(
        "rev", [("S'", BIN, ("C'",), xor), ("C'", BIN, (), xor)],
        {"S'": U2, "C'": U2},
    )
    a = abstraction(
        "a", micro, rev, {"S": "S'", "C": "C'"},
        edges={
            M("S"): M("S'"),
            M("C"): M("C'"),
            M("S", "T", "C"): M("C'", "S'"),
        },
    )
    f = audit_functor(a, micro, rev)
    assert f.functorial is False


def test_functor_identity_violation(micro, macro):
    a = abstraction(
        "a", micro, macro, {"S": "S'", "C": "C'"},
        edges={
            M("S"): M("S'", "C'"),
            M("C"): M("C'"),
            M("S", "T", "C"): M("S'", "C'"),
        },
    )
    f = audit_functor(a, micro, macro)
    assert f.functorial is False  # identity of S maps to a non-identity


def test_functor_composition_violation():
    micro = chain("m4", ["A", "B", "C", "D"])
    macro = chain("M4", ["W", "X", "Y", "Z"])
    edges = {
        M("A"): M("W"), M("B"): M("X"), M("C"): M("Y"), M("D"): M("Z"),
        M("A", "B"): M("W", "X"),
        M("B", "C"): M("X", "Y"),
        M("C", "D"): M("Y", "Z"),
        M("A", "B", "C"): M("W", "X", "Y"),
        M("B", "C", "D"): M("X", "Y", "Z"),
        # Deliberately inconsistent with (A^B^C) ∘ (C^D):
        M("A", "B", "C", "D"): M("W", "X", "Y"),
    }
    a = abstraction(
        "a", micro, macro,
        {"A": "W", "B": "X", "C": "Y", "D": "Z"}, edges=edges,
    )
    f = audit_functor(a, micro, macro)
    assert f.functorial is False


def test_functor_dual_faithfulness(micro, macro):
    # Everything is mapped; S and T collapse onto S'.  Three identities land
    # on the identity of S', so the pooled reading fails while each single
    # micro hom-set still maps injectively.
    a = abstraction(
        "a", micro, macro,
        {"S": "S'", "T": "S'", "C": "C'"},
        edges={
            M("S"): M("S'"),
            M("T"): M("S'"),
            M("C"): M("C'"),
            M("S", "T"): M("S'"),
            M("T", "C"): M("S'", "C'"),
            M("S", "T", "C"): M("S'", "C'"),
        },
    )
    f = audit_functor(a, micro, macro)
    assert f.functorial is True and f.full is True
    assert f.faithful is False
    assert f.faithful_parallel is True
    assert f.fully_faithful is False


def test_functor_non_full(micro):
    direct = model(
        "direct",
        [
            ("S'", BIN, (), xor),
            ("T'", BIN, ("S'",), xor),
            ("C'", BIN, ("S'", "T'"), xor),
        ],
        {n: U2 for n in ("S'", "T'", "C'")},
    )
    a = abstraction(
        "a", micro, direct, {"S": "S'", "T": "T'", "C": "C'"},
        edges={
            M("S"): M("S'"), M("T"): M("T'"), M("C"): M("C'"),
            M("S", "T"): M("S'", "T'"),
            M("T", "C"): M("T'", "C'"),
            M("S", "T", "C"): M("S'", "T'", "C'"),
        },
    )
    f = audit_functor(a, micro, direct)
    assert f.functorial is True
    assert f.full is False  # the direct macro edge S'->C' is never hit
    assert f.fully_faithful is False


# Identity and coarsening maps of random DAGs with a full edge map, then
# mutated, against the all-pairs definition in `oracles.functor_verdicts`.
MUTATIONS = ("drop", "reroute", "break", "merge", "non-path", "unmap")


def _full_edge_map(src_adj, coarse):
    """A node map (identity, or merging n0,n1 / n2,n3 / ...), the target DAG
    it induces, and the functor sending each path to its image path."""
    pi = {u: f"t{int(u[1:]) // 2}" if coarse else f"t{u[1:]}" for u in src_adj}
    tgt_adj = {x: [] for x in dict.fromkeys(pi.values())}
    for u, vs in src_adj.items():
        for v in vs:
            if pi[u] != pi[v] and pi[v] not in tgt_adj[pi[u]]:
                tgt_adj[pi[u]].append(pi[v])
    edges = {}
    for u in src_adj:
        for v in src_adj:
            for path in all_paths(src_adj, u, v):
                image = [pi[path[0]]]
                for w in path[1:]:
                    if pi[w] != image[-1]:
                        image.append(pi[w])
                edges[path] = tuple(image)
    return pi, tgt_adj, edges


def _mutate(rng, edges, kind, src_adj, tgt_adj, pi):
    if kind == "unmap":  # paths through the node now pass an unmapped inner node
        if pi:
            node = rng.choice(sorted(pi))
            del pi[node]
            for key in [k for k in edges if node in (k[0], k[-1])]:
                del edges[key]
        return
    keys = sorted(edges)
    images = sorted({p for s in tgt_adj for t in tgt_adj for p in all_paths(tgt_adj, s, t)})
    if not keys and kind != "non-path":
        return
    if kind == "drop":
        del edges[rng.choice(keys)]
    elif kind == "reroute":  # to another path, or to a loop that is no path
        key = rng.choice(keys)
        loops = [(x, x) for x in tgt_adj]
        edges[key] = rng.choice([p for p in images + loops if p != edges[key]])
    elif kind == "break":  # another path with the same ends: only composition fails
        rivals = [
            (k, p)
            for k in keys
            if len(k) > 2
            for p in all_paths(tgt_adj, edges[k][0], edges[k][-1])
            if p != edges[k]
        ]
        if rivals:
            key, image = rng.choice(rivals)
            edges[key] = image
    elif kind == "merge":
        a, b = rng.choice(keys), rng.choice(keys)
        edges[a] = edges[b]
    else:
        u, v = rng.choice(list(src_adj)), rng.choice(list(src_adj) + ["ghost"])
        if v not in src_adj.get(u, ()):
            edges[(u, v)] = rng.choice(images)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    n=st.integers(min_value=1, max_value=6),
    coarse=st.booleans(),
    mutations=st.lists(st.sampled_from(MUTATIONS), max_size=2),
)
@example(seed=4, n=4, coarse=False, mutations=["break"])
@example(seed=0, n=3, coarse=False, mutations=["non-path"])  # the key n1^ghost
@example(seed=3, n=5, coarse=False, mutations=["unmap"])  # n3 unmapped: n0^n1^n3^n4 cut at n1
def test_functor_audit_matches_all_pairs_definition(seed, n, coarse, mutations):
    """The audit, testing the paths itself or fed the sets of
    `edge_map_non_paths`, gives the all-pairs verdicts, also on the invalid
    maps that some mutations make."""
    rng = random.Random(seed)
    src_adj = random_dag(rng, n)
    pi, tgt_adj, edges = _full_edge_map(src_adj, coarse)
    for kind in mutations:
        _mutate(rng, edges, kind, src_adj, tgt_adj, pi)
    src, tgt = dag_model(src_adj), dag_model(tgt_adj)
    a = abstraction(
        "a", src, tgt, pi, edges={M(*m): M(*img) for m, img in edges.items()}
    )
    want = functor_verdicts(src_adj, tgt_adj, pi, edges)
    for non_paths in (None, edge_map_non_paths(a.structure.edge_map, src, tgt)):
        f = audit_functor(a, src, tgt, non_paths=non_paths)
        assert {key: getattr(f, key) for key in want} == want
    if not mutations:  # a functor, and an isomorphism unless it coarsens
        assert want["functorial"] and (coarse or all(want.values()))


def _chain_identity(n: int, build=unary_chain):
    """The identity of an `n`-chain with its full edge map: (src, tgt, edges,
    map); `build(name, nodes)` makes each chain."""
    xs, ys = [f"X{i}" for i in range(n)], [f"Y{i}" for i in range(n)]
    src, tgt = build("src", xs), build("tgt", ys)
    edges = {M(*xs[i : j + 1]): M(*ys[i : j + 1]) for i in range(n) for j in range(i, n)}
    return src, tgt, edges, abstraction("a", src, tgt, dict(zip(xs, ys)), edges=edges)


def _constant_chain(name: str, nodes: list[str]):
    """A chain over `nodes` with one value and one noise value each: a model
    that can be written to a file."""
    spec = [(v, ("0",), nodes[i - 1 : i], lambda *_: "0") for i, v in enumerate(nodes)]
    return model(name, spec, {v: (("0", 1.0),) for v in nodes})


def _count_edge_tests(monkeypatch) -> tuple[list, list]:
    """Count the work of the path tests: every `Dag`'s `edge_set` lists the
    pairs it is asked about, as the source's when its first node is named
    `X…` and the target's otherwise, and `freecat.is_path`, the per-path
    check, is counted too.  Returns the (side, pairs asked) of each
    edge-set test and the per-path checks."""
    tests, per_path = [], []

    class Edges(frozenset):
        def issuperset(self, other):
            pairs = list(other)
            tests.append((self.side, len(pairs)))
            return frozenset.issuperset(self, pairs)

    def edge_set(dag):
        edges = Edges(dag.edges)
        edges.side = "source" if dag.nodes[0].startswith("X") else "target"
        return edges

    monkeypatch.setattr(Dag, "edge_set", property(edge_set))
    monkeypatch.setattr(freecat, "is_path",
                        lambda dag, nodes: per_path.append(nodes) or is_path(dag, nodes))
    return tests, per_path


def test_functor_audit_work_is_linear_in_entries(monkeypatch):
    """On a 30-chain identity with its full edge map, the audit asks each
    graph's edge set once, and checks no path on its own.  Every key but
    the 30 identities extends a shorter key by one edge, so it is asked
    about that last step alone, and so is every image: 435 pairs per side,
    one per key that is no identity, where every step of every path would
    be 4495."""
    n = 30
    src, tgt, edges, a = _chain_identity(n)
    assert len(edges) == n * (n + 1) // 2
    tests, per_path = _count_edge_tests(monkeypatch)
    f = audit_functor(a, src, tgt)
    assert f.functorial and f.fully_faithful and f.faithful_parallel
    grown = sum(len(m) > 1 for m in edges)
    assert grown == sum(len(m) > 1 for m in set(edges.values())) == 435
    assert sum(len(m) - 1 for m in edges) == 4495
    assert tests == [("source", grown), ("target", grown)] and per_path == []


def test_empty_path_is_not_functorial_and_raises_nothing():
    """`()` visits no node, so it is no path.  As a key it has no endpoints
    between mapped nodes, and as an image it ends nowhere: on an unvalidated
    map either makes the audit's `functorial` False, and validation reports
    the entry, naming the empty path `()`."""
    src, tgt, edges, _ = _chain_identity(2)
    for key, image, side in (((), M("Y0"), "source"), (M("X0"), (), "target")):
        a = abstraction("a", src, tgt, {"X0": "Y0", "X1": "Y1"}, edges=dict(edges))
        a.structure.edge_map[key] = image
        assert audit_abstraction(a, src, tgt).functor.functorial is False
        assert [(i.code, i.message) for i in validate_abstraction(a, src, tgt).issues] == [
            (f"edge-map-{side}", f"() is not a morphism of the {side} graph")]


@settings(max_examples=200, deadline=None)
@given(images=st.lists(st.tuples(st.integers(0, 5), JUNK), max_size=4),
       keys=st.lists(st.tuples(HASHABLE_JUNK, st.one_of(st.just(("C'",)), JUNK)),
                     max_size=3))
def test_junk_edge_map_entries_are_reported_and_audited(images, keys):
    """Edge-map entries that are not tuples of names (None, integers, lists,
    nested lists, strings, a tuple holding a list or an integer, and `()`),
    as images of fig2a's entries or as added keys: validation names each,
    by its repr (`()` as such), in table order, and the audit returns
    verdicts, with and without the sets of non-paths: nothing is raised."""
    doc = parse_path(DATA / "figures" / "fig2a.abs")
    a = doc.abstractions["fig2a"]
    source, target = doc.resolve(a)
    table = a.structure.edge_map
    for i, junk in images:
        table[list(table)[i]] = junk
    table.update(keys)

    def words(path):
        return "()" if path == () else repr(path)

    want = []
    for m, n in table.items():
        if not (isinstance(m, tuple) and m and set(map(type, m)) <= {str}):
            want.append(("edge-map-source", f"{words(m)} is not a morphism of the source graph"))
        if not (isinstance(n, tuple) and n and set(map(type, n)) <= {str}):
            want.append(("edge-map-target", f"{words(n)} is not a morphism of the target graph"))
    report = validate_abstraction(a, source, target)
    assert [(i.code, i.message) for i in report.issues] == want
    for non_paths in (None, edge_map_non_paths(table, source, target)):
        functor = audit_abstraction(a, source, target, non_paths=non_paths).functor
        assert functor.functorial is (not want)


def test_validation_and_audit_check_each_path_once(monkeypatch):
    """On the same 30-chain identity, `validate_abstraction` asks the source
    graph's edges once, about the last step of every key that is no
    identity, and the target graph's about the last step of every such
    image; the audit, fed the two empty sets of non-paths that a clean
    report implies, tests nothing again: one bulk test per side in all, of
    435 pairs, and no per-path check."""
    src, tgt, edges, a = _chain_identity(30)
    tests, per_path = _count_edge_tests(monkeypatch)
    assert validate_abstraction(a, src, tgt).ok
    f = audit_abstraction(a, src, tgt, non_paths=(set(), set())).functor
    assert f.functorial and f.fully_faithful and f.faithful_parallel
    grown = sum(len(m) > 1 for m in edges)
    assert tests == [("source", grown), ("target", grown)] == [("source", 435), ("target", 435)]
    assert per_path == []


def test_cli_audit_checks_each_path_once(monkeypatch, tmp_path, capsys):
    """`absaudit audit` on a file holding the 30-chain identity with its full
    edge map validates the map, then audits it without testing a path
    again: each graph's edge set is asked once, about the last step of
    each of the 435 keys or images that are no identity."""
    src, tgt, edges, a = _chain_identity(30, _constant_chain)
    doc = Document({"src": src, "tgt": tgt}, {"a": a})
    path = tmp_path / "chain30.abs"
    path.write_text(emit_document(doc), encoding="utf-8")
    tests, per_path = _count_edge_tests(monkeypatch)
    assert main(["--format", "json", "audit", str(path)]) == 0
    functor = json.loads(capsys.readouterr().out)["functor"]
    assert functor["functorial"] and functor["fully_faithful"] and functor["faithful_parallel"]
    grown = sum(len(m) > 1 for m in edges)
    assert tests == [("source", grown), ("target", grown)] == [("source", 435), ("target", 435)]
    assert per_path == []


# ---------------------------------------------------------------------------
# Outcome layer and whole profiles
# ---------------------------------------------------------------------------

def test_outcome_audit_coarsening():
    three = model("three", [("S", ("0", "1", "2"), (), xor)],
                  {"S": (("0", 0.2), ("1", 0.3), ("2", 0.5))})
    two = model("two", [("S'", BIN, (), xor)], {"S'": U2})
    om = det_outcomes(
        "S'", ("S",), {("0",): ("0",), ("1",): ("0",), ("2",): ("1",)}
    )
    audit = audit_outcome_map(om, three, two)
    assert audit.functional and audit.deterministic and audit.surjective
    assert audit.injective is False and audit.bijective is False


def test_outcome_audit_partial_restriction():
    three = model("three", [("S", ("0", "1", "2"), (), xor)],
                  {"S": (("0", 0.2), ("1", 0.3), ("2", 0.5))})
    two = model("two", [("S'", BIN, (), xor)], {"S'": U2})
    om = det_outcomes("S'", ("S",), {("1",): ("0",), ("2",): ("1",)})
    audit = audit_outcome_map(om, three, two)
    assert not audit.functional
    assert audit.surjective and audit.injective is True
    assert audit.bijective is False


def test_outcome_audit_stochastic():
    two = model("two", [("S", BIN, (), xor)], {"S": U2})
    two2 = model("two2", [("S'", BIN, (), xor)], {"S'": U2})
    om = OutcomeMap(
        target="S'", sources=("S",),
        rows={("0",): {("0",): 0.5, ("1",): 0.5}, ("1",): {("1",): 1.0}},
    )
    audit = audit_outcome_map(om, two, two2)
    assert audit.functional and not audit.deterministic
    assert audit.injective is None and audit.bijective is None
    assert audit.surjective


def _sets_model(rng, name, prefix, max_vars):
    """A model of up to `max_vars` parentless variables (maybe none), each
    domain one to three values, now and then with a value repeated; only
    names and domains are read here."""
    variables = []
    for j in range(rng.randint(0, max_vars)):
        domain = [str(x) for x in range(rng.randint(1, 3))]
        if rng.random() < 0.1:
            domain.append(rng.choice(domain))
        variables.append(Variable(f"{prefix}{j}", tuple(domain), (), f"U_{prefix}{j}"))
    return Scm(name, variables, [], {}, {})


def _sets_key(rng, domains):
    """A key in range, or one out of range: an unknown value, a value too
    many, a value too few, or the values joined into a string."""
    key = [rng.choice(d) for d in domains]
    kind = rng.random()
    if kind < 0.1 and key:
        key[rng.randrange(len(key))] = "9"
    elif kind < 0.15:
        key.append("0")
    elif kind < 0.2 and key:
        key.pop()
    elif kind < 0.25:
        return "".join(key)
    return tuple(key)


def _sets_row(rng, domains):
    """Up to three entries of weight 0, 0.5 or 1 (all zero now and then)."""
    return {_sets_key(rng, domains): rng.choice((0.0, 0.5, 1.0))
            for _ in range(rng.randint(1, 3))}


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30), per_variable=st.booleans())
def test_counted_verdicts_match_explicit_universes(seed, per_variable):
    """The counted node and outcome verdicts and the outcome-key and
    outcome-range issues agree with set-level definitions over the listed
    universes, including out-of-range keys and values, all-zero rows,
    repeated domain values and the empty block (one outcome, the empty key)."""
    rng = random.Random(seed)
    source = _sets_model(rng, "src", "X", 3)
    target = _sets_model(rng, "tgt", "Y", 1 if per_variable else 2)
    if per_variable:
        target.variables = target.variables or [Variable("Y0", ("0", "1"), (), "U_Y0")]
        y = target.variables[0].name
        nodes = {x: {y: 1.0} for x in source.variable_names}
        sources, om_target, onto, scope = source.variable_names, y, (), (y,)
    else:
        nodes = {}
        sources, om_target = source.variable_names, GLOBAL
        onto = scope = target.variable_names
    src_domains = [source.domain_of(v) for v in sources]
    tgt_domains = [target.domain_of(v) for v in scope]
    rows = {_sets_key(rng, src_domains): _sets_row(rng, tgt_domains)
            for _ in range(rng.randint(0, 6))}
    om = OutcomeMap(target=om_target, sources=sources, rows=rows, onto=onto)
    keys, values = block(source, sources), block(target, scope)
    audit = audit_outcome_map(om, source, target)
    want = set_map_verdicts(rows, keys, values)
    assert {key: getattr(audit, key) for key in want} == want
    issues = validate_abstraction(abstraction("a", source, target, nodes, outcomes=[om]),
                                  source, target).issues
    got = [i.code for i in issues if i.code in ("outcome-key", "outcome-range")]
    assert got == outcome_range_codes(rows, keys, values)

    # The node rows, now with unknown nodes and zero weights beside them.
    nodes.update({rng.choice(["X0", "X1", "Q"]): {rng.choice(["Y0", "Y1", "R"]): w}
                  for w in rng.choices((0.0, 0.5, 1.0), k=rng.randint(0, 3))})
    node = audit_node_map(abstraction("b", source, target, nodes), source, target)
    want = set_map_verdicts(nodes, source.variable_names, target.variable_names)
    assert {key: getattr(node, key) for key in want} == want


def test_outcome_summary_conjunction():
    a = summarize_outcomes([])
    assert a is None


def test_profile_flat_and_invertibility(micro, macro):
    a = abstraction(
        "a", micro, macro, {"S": "S'", "T": "S'", "C": "C'"},
        edges={
            M("S"): M("S'"), M("T"): M("S'"), M("C"): M("C'"),
            M("S", "T"): M("S'"),
            M("T", "C"): M("S'", "C'"),
            M("S", "T", "C"): M("S'", "C'"),
        },
    )
    p = audit_abstraction(a, micro, macro)
    flat = p.flat()
    assert flat["functional"] is True
    assert flat["faithful"] is False and flat["faithful-parallel"] is True
    assert flat["perfect-node-invertible"] is False  # not injective
    assert flat["set-node-invertible"] is True       # surjective
    assert flat["perfect-edge-invertible"] is False  # not strictly faithful
    assert flat["set-edge-invertible"] is True       # full
    assert flat["outcome-functional"] is None        # no outcome layer
    assert p.to_dict()["node"]["surjective"] is True
    assert "audit of a" in p.to_text()


def _shipped_profiles() -> list:
    """The profile of every shipped abstraction: the figures and the witnesses."""
    data = pathlib.Path(str(importlib.resources.files("absaudit") / "data"))
    out = []
    for path in sorted(data.rglob("*.abs")):
        doc = parse_path(path)
        out += [audit_abstraction(a, *doc.resolve(a)) for a in doc.abstractions.values()]
    return out


def _text_verdicts(text: str) -> dict[tuple, dict]:
    """The answers of a text profile, {(section, block): {label: verdict}},
    where block is the target of a `map onto` line in the outcome layer and
    None elsewhere."""
    out: dict[tuple, dict] = {}
    section = block = None
    for line in text.splitlines()[1:]:
        row = line.strip()
        if not line.startswith("   "):
            section, block = row.removesuffix(":"), None
        elif row.startswith("map onto "):
            block = row.removeprefix("map onto ").removesuffix(":")
        elif not row.startswith("("):
            label, answer = row.split()
            verdict = {"yes": True, "no": False, "n/a": None}[answer]
            out.setdefault((section, block), {})[label] = verdict
    return out


def test_profile_dict_equals_asdict_on_every_shipped_abstraction():
    profiles = _shipped_profiles()
    for p in profiles:
        as_dict = p.to_dict()
        assert as_dict == dataclasses.asdict(p), p.abstraction
        assert list(as_dict) == list(dataclasses.asdict(p))
    assert len(profiles) == 41


def test_flat_dict_and_text_name_the_same_verdicts():
    """On every shipped abstraction, each `--require` name of `flat()` gives
    the verdict of its field in `to_dict()` and of its line in `to_text()`,
    under its section; and every verdict field and line has a name, the one
    the `--require` error states: a row under `invertibility:` is required
    as `<row>-invertible`, an outcome-summary row as `outcome-<row>`, and any
    other row by its printed name."""
    titles = {"node": "node layer", "functor": "morphism layer", "modalities": "modalities",
              "invertibility": "invertibility", "outcome_summary": "outcome layer"}
    profiles = _shipped_profiles()
    assert len(profiles) == 41
    for p in profiles:
        as_dict, text = p.to_dict(), _text_verdicts(p.to_text())
        summary_block = ("(all)" if len(p.outcomes) > 1
                         else p.outcomes[0].target if p.outcomes else None)
        fields_seen, lines_seen = set(), set()
        for name, verdict in p.flat().items():
            if name.startswith("outcome-"):
                section, label = "outcome_summary", name.removeprefix("outcome-")
            elif name.endswith("-invertible"):
                section, label = "invertibility", name.removesuffix("-invertible")
            else:
                section, label = next((s, name) for s in ("node", "functor", "modalities")
                                      if name.replace("-", "_") in as_dict[s])
            key = label.replace("-", "_")
            fields_seen.add((section, key))
            assert verdict is (as_dict[section] or {}).get(key), (p.abstraction, name)
            block = summary_block if section == "outcome_summary" else None
            if section == "outcome_summary" and block is None:
                assert verdict is None, (p.abstraction, name)
                continue
            lines_seen.add((titles[section], block, label))
            assert verdict is text[(titles[section], block)][label], (p.abstraction, name)
        # with no outcome map the summary is None, and its names are the node's
        assert fields_seen == {(s, k) for s in titles for k in (as_dict[s] or as_dict["node"])
                               if k not in ("declared", "target")}
        shown = {(s, b, label) for (s, b), rows in text.items() for label in rows
                 if s != "outcome layer" or b == summary_block}
        assert lines_seen == shown, p.abstraction
        named = {"invertibility": "{}-invertible", "outcome layer": "outcome-{}"}
        assert {named.get(s, "{}").format(label) for s, _, label in shown} <= p.flat().keys()


def test_outcome_summary_folds_each_verdict():
    """The summary of one outcome audit is that audit onto `(all)`; of
    several, each verdict is the three-valued conjunction of that verdict."""
    audits = [a for p in _shipped_profiles() for a in p.outcomes]
    assert len(audits) == 16
    for a in audits:
        assert summarize_outcomes([a]) == dataclasses.replace(a, target="(all)")
    groups = [*itertools.combinations(audits, 2), *itertools.combinations(audits, 3), audits]
    names = [f.name for f in dataclasses.fields(audits[0]) if f.name != "target"]
    for group in groups:
        s = summarize_outcomes(list(group))
        assert s.target == "(all)"
        for name in names:
            assert getattr(s, name) is tri_and(*(getattr(a, name) for a in group)), name
    assert {summarize_outcomes(list(g)).injective for g in groups} == {
        True, False, None}


def test_profile_modalities(micro, macro):
    a = abstraction(
        "a", micro, macro, {"S": {"S'": 0.5, "C'": 0.5}},
    )
    p = audit_abstraction(a, micro, macro)
    assert p.modalities.non_deterministic
    assert not p.modalities.macro_to_micro

    b = abstraction(
        "b", macro, micro, {"S'": "S"}, direction=Direction.MACRO_TO_MICRO
    )
    q = audit_abstraction(b, macro, micro)
    assert q.modalities.macro_to_micro
    assert not q.modalities.non_deterministic


# ---------------------------------------------------------------------------
# Support rule: an explicit zero entry means the same as an omitted one
# ---------------------------------------------------------------------------

DATA = importlib.resources.files("absaudit") / "data"
SHIPPED = {
    f"{sub}/{entry.name}": entry.read_text()
    for sub in ("figures", "witnesses/structural", "witnesses/distributional")
    for entry in sorted((DATA / sub).iterdir(), key=lambda e: e.name)
    if entry.name.endswith(".abs")
}


def _zero_entries() -> list[tuple]:
    """Every (file, abstraction, layer, row key, value) a zero entry can name.

    The layer is None for the node map, else an index into the outcome maps;
    the value is a target node or outcome that the row does not list yet.
    """
    edits = []
    for rel, text in SHIPPED.items():
        doc = parse_document(text)
        for name, a in doc.abstractions.items():
            _, target = doc.resolve(a)
            layers = [(None, a.structure.rows, target.variable_names)]
            for i, om in enumerate(a.outcome_maps):
                scope = target.variable_names if om.is_global else (om.target,)
                layers.append((i, om.rows, block(target, scope)))
            for layer, rows, values in layers:
                for key, row in rows.items():
                    edits.extend(
                        (rel, name, layer, key, val) for val in values if val not in row
                    )
    return edits


def _layer(doc, name, layer):
    a = doc.abstractions[name]
    return a.structure if layer is None else a.outcome_maps[layer]


def _verdicts(doc, name):
    a = doc.abstractions[name]
    source, target = doc.resolve(a)
    pushed = None
    if a.outcome_maps:
        try:
            pushed = pushforward(
                a, joint_distribution(source), source, target, renormalize=True
            ).probs
        except AbsauditError as exc:
            pushed = repr(exc)
    return (
        validate_abstraction(a, source, target).ok,
        audit_abstraction(a, source, target).to_dict(),
        detect_types(a, source, target),
        pushed,
    )


@settings(max_examples=60, deadline=None)
@given(edit=st.sampled_from(_zero_entries()), first=st.booleans())
@example(
    edit=("witnesses/structural/identity.abs", "witness_identity", None, "A", "Y"),
    first=False,
)
@example(
    edit=(
        "witnesses/distributional/identity-or-permutation.abs",
        "witness_identity_or_permutation", 0, ("0",), ("0",),
    ),
    first=True,
)
def test_zero_entry_keeps_every_verdict(edit, first):
    rel, name, layer, key, val = edit
    doc = parse_document(SHIPPED[rel])
    before = _verdicts(doc, name)
    rows = _layer(doc, name, layer).rows
    rows[key] = {val: 0.0, **rows[key]} if first else {**rows[key], val: 0.0}
    assert _verdicts(doc, name) == before
    # The zero entry is kept as written, and the edited file round-trips.
    text = emit_document(doc)
    assert _layer(parse_document(text), name, layer).rows[key] == rows[key]
    assert emit_document(parse_document(text)) == text
