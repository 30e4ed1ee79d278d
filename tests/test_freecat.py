"""Free-category construction: paths as node tuples, hom-sets."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from absaudit.errors import CapacityError, ModelError
from absaudit.freecat import are_paths, hom_set, is_path, path_counts
from absaudit.scm import Dag, underlying_graph

from helpers import JUNK, JUNK_NAMES, chain, random_dag
from oracles import all_paths, path_count

DIAMOND = Dag(
    nodes=("A", "B", "C", "D"),
    edges=(("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")),
)


def adj_of(dag: Dag) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {n: [] for n in dag.nodes}
    for u, v in dag.edges:
        out[u].append(v)
    return out


# ---------------------------------------------------------------------------
# Hom-sets
# ---------------------------------------------------------------------------

def test_hom_set_chain():
    dag = underlying_graph(chain("m", ["S", "T", "C"]))
    assert hom_set(dag, "S", "C") == (("S", "T", "C"),)
    assert hom_set(dag, "S", "S") == (("S",),)
    assert hom_set(dag, "C", "S") == ()


def test_hom_set_diamond_two_paths():
    ms = hom_set(DIAMOND, "A", "D")
    assert ms == (("A", "B", "D"), ("A", "C", "D"))


def test_hom_set_sorted_lexicographically():
    ms = hom_set(DIAMOND, "A", "D")
    assert list(ms) == sorted(ms)


def test_hom_set_unknown_node():
    with pytest.raises(ModelError, match="unknown node"):
        hom_set(DIAMOND, "A", "Q")
    with pytest.raises(ModelError, match="^unknown node 'Q'$"):
        hom_set(DIAMOND, "Q", "A")


def test_hom_set_cap(monkeypatch):
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "1")
    with pytest.raises(CapacityError) as exc:
        hom_set(DIAMOND, "A", "D")
    assert str(exc.value) == (
        "hom-set from A to D has 2 morphisms, exceeding the enumeration cap of 1")
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "2")
    assert len(hom_set(DIAMOND, "A", "D")) == 2


def test_hom_set_env_cap(monkeypatch):
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "1")
    with pytest.raises(CapacityError):
        hom_set(DIAMOND, "A", "D")


def test_empty_hom_set_walks_only_nodes_that_reach_the_target():
    # 2^38 paths leave X1 in a 40-node complete DAG, and none returns to X0.
    nodes = tuple(f"X{i}" for i in range(40))
    dag = Dag(nodes=nodes, edges=tuple(itertools.combinations(nodes, 2)))
    assert hom_set(dag, "X1", "X0") == ()
    assert path_counts(dag, "X0")["X39"] == 2 ** 38


def test_path_counts_unknown_node():
    with pytest.raises(ModelError, match="unknown node"):
        path_counts(DIAMOND, "Q")


def test_cycle_is_a_model_error():
    loop = Dag(nodes=("A", "B"), edges=(("A", "B"), ("B", "A")))
    with pytest.raises(ModelError, match="cycle"):
        hom_set(loop, "A", "B")
    with pytest.raises(ModelError, match="cycle"):
        path_counts(loop, "A")


def test_is_path():
    assert is_path(DIAMOND, ("A", "B", "D"))
    assert is_path(DIAMOND, ("A",))
    assert not is_path(DIAMOND, ("A", "D"))
    assert not is_path(DIAMOND, ("A", "Q"))
    assert not is_path(DIAMOND, ())


def test_entries_that_are_no_sequence_of_names_are_non_paths():
    """An entry that is no sequence, or holds an unhashable value, is no
    path: the bulk test and the per-path check return False, not raise."""
    junk = [None, 5, (["A"],), [["A", "B"]], ("A", ["B"])]
    assert not any(is_path(DIAMOND, p) for p in junk)
    assert are_paths(DIAMOND, [("A", "B"), ("A",)])
    for p in junk:
        assert not are_paths(DIAMOND, [("A", "B"), p])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from("ABCDQ"), max_size=4).map(tuple), max_size=6))
def test_are_paths_agrees_with_is_path(paths):
    """The test of a whole side of an edge map, which `edge_map_non_paths`
    runs first, passes exactly when every entry is a path."""
    assert are_paths(DIAMOND, paths) == all(is_path(DIAMOND, p) for p in paths)
    assert are_paths(DIAMOND, set(paths)) == all(is_path(DIAMOND, p) for p in set(paths))


# A pool of node names, the junk's among them; a drawn graph holds some and
# may have edges that name the others.
_POOL = (*JUNK_NAMES, "n4", "n5")


@st.composite
def _graph_and_entries(draw):
    """A `Dag` over some names of `_POOL`, with edges that may name a node
    it does not hold, and a list of entries: the prefixes of random walks
    along its edges (so a prefix-closed family of paths, or of non-paths
    through a node not held), some of them dropped, one step of one of them
    corrupted, then duplicates, `()` and junk, in a random order."""
    order = draw(st.permutations(_POOL))
    held = draw(st.one_of(st.just(_POOL),
                          st.lists(st.sampled_from(_POOL), min_size=1, unique=True)))
    pairs = list(itertools.combinations(order, 2))
    edges = list(itertools.compress(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                         max_size=len(pairs)))))
    family = []
    for start, steps in draw(st.lists(st.tuples(st.sampled_from(_POOL), st.integers(0, 4)),
                                      min_size=1, max_size=4)):
        walk = [start]
        while (after := [v for u, v in edges if u == walk[-1]]) and len(walk) <= steps:
            walk.append(draw(st.sampled_from(after)))
        family += [tuple(walk[:k]) for k in range(1, len(walk) + 1)]
    kept = draw(st.lists(st.booleans(), min_size=len(family), max_size=len(family)))
    if draw(st.booleans()):  # keep every prefix
        kept = [True] * len(family)
    entries = [p for p, keep in zip(family, kept) if keep]
    if entries and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(entries) - 1))
        k = draw(st.integers(0, len(entries[i]) - 1))
        entries[i] = (*entries[i][:k], draw(st.sampled_from((*_POOL, "Z"))), *entries[i][k + 1:])
    extra = st.one_of(st.just(()), JUNK, *([st.sampled_from(entries)] if entries else []))
    entries += draw(st.lists(extra, max_size=2)) if draw(st.integers(0, 3)) == 0 else []
    return Dag(tuple(held), tuple(edges)), draw(st.permutations(entries))


@settings(max_examples=300, deadline=None)
@given(_graph_and_entries())
def test_are_paths_agrees_with_is_path_on_random_graphs(drawn):
    """Whatever the graph and the entries, and whether they come as a list,
    a set, the keys of a dict or its values, the bulk test passes exactly
    when every entry is a path."""
    dag, entries = drawn
    want = all(is_path(dag, p) for p in entries)
    assert are_paths(dag, entries) == are_paths(dag, dict(enumerate(entries)).values()) == want
    try:
        keyed = dict.fromkeys(entries)
    except TypeError:  # an unhashable entry
        return
    assert are_paths(dag, set(entries)) == are_paths(dag, keyed) == want


def test_are_paths_tests_the_last_node_of_a_key_that_extends_another():
    """An edge may name a node the graph does not hold: a path that takes
    it is no path, though its prefix is a path and its last step an edge."""
    dag = Dag(nodes=("A", "B"), edges=(("A", "B"), ("B", "Z")))
    paths = [("A",), ("A", "B"), ("A", "B", "Z")]
    assert not is_path(dag, paths[-1])
    assert are_paths(dag, paths[:-1]) and not are_paths(dag, paths)
    assert not are_paths(dag, dict.fromkeys(paths))


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------

def test_hom_set_matches_oracle_on_random_dags():
    rng = random.Random(42)
    for _ in range(60):
        adj = random_dag(rng, rng.randint(1, 7))
        nodes = tuple(adj)
        dag = Dag(
            nodes=nodes,
            edges=tuple((u, v) for u in nodes for v in adj[u]),
        )
        for src in nodes:
            for dst in nodes:
                got = hom_set(dag, src, dst)
                want = tuple(sorted(all_paths(adj, src, dst)))
                assert got == want
                assert len(got) == path_count(adj, src, dst)
            counts = path_counts(dag, src)
            assert counts == {dst: path_count(adj, src, dst) for dst in nodes}


def test_hom_set_is_sorted_whatever_the_declaration_order():
    """Node names that sort apart from the order they are declared in (`n10`
    before `n2`, names dealt at random), and successors declared in a
    shuffled order: each hom-set is still the sorted oracle listing."""
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        names = [f"n{i}" for i in range(n)]
        rename = dict(zip(names, rng.sample(names, n)))
        adj = {rename[u]: [rename[v] for v in vs] for u, vs in random_dag(rng, n).items()}
        edges = [(u, v) for u in adj for v in adj[u]]
        rng.shuffle(edges)
        dag = Dag(nodes=tuple(adj), edges=tuple(edges))
        for src in adj:
            for dst in adj:
                got = list(hom_set(dag, src, dst))
                assert got == sorted(all_paths(adj, src, dst))


def test_hom_set_of_a_long_chain_and_of_a_complete_dag():
    """The walk uses no recursion: on a 1200-chain the one path from the
    first node to the last is listed, and on the complete DAG over 16 nodes
    the 2^14 paths from the first to the last come out sorted, as the
    oracle lists them and `path_counts` counts them."""
    names = tuple(f"X{i}" for i in range(1200))
    long = Dag(nodes=names, edges=tuple(itertools.pairwise(names)))
    assert hom_set(long, "X0", "X1199") == (names,)
    assert path_counts(long, "X0")["X1199"] == 1
    names = tuple(f"X{i}" for i in range(16))
    edges = tuple(itertools.combinations(names, 2))
    complete = Dag(nodes=names, edges=edges)
    got = hom_set(complete, "X0", "X15")
    assert len(got) == path_counts(complete, "X0")["X15"] == 2 ** 14
    assert list(got) == sorted(got) == sorted(all_paths(adj_of(complete), "X0", "X15"))


def test_path_counts_from_several_sources_sum_the_single_source_counts():
    """One DP seeded at every source counts the morphisms from any of them."""
    rng = random.Random(7)
    for _ in range(60):
        adj = random_dag(rng, rng.randint(1, 7))
        nodes = tuple(adj)
        dag = Dag(nodes=nodes, edges=tuple((u, v) for u in nodes for v in adj[u]))
        seeds = rng.sample(nodes, rng.randint(0, len(nodes)))
        assert path_counts(dag, *seeds) == {
            dst: sum(path_count(adj, src, dst) for src in seeds) for dst in nodes
        }


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**30))
def test_hom_set_composition_closure(seed):
    """Composing any two composable morphisms lands back in the hom-set."""
    rng = random.Random(seed)
    adj = random_dag(rng, 5)
    nodes = tuple(adj)
    dag = Dag(nodes=nodes, edges=tuple((u, v) for u in nodes for v in adj[u]))
    ms = [m for x in nodes for y in nodes for m in hom_set(dag, x, y)]
    for f in ms:
        for g in ms:
            if f[-1] == g[0]:
                assert f + g[1:] in hom_set(dag, f[0], g[-1])
