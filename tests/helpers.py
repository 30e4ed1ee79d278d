"""Shared builders for the test suite.

Everything here constructs library objects from terse descriptions so the
tests stay readable; nothing here duplicates library logic.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import zlib

from hypothesis import strategies as st

from absaudit.abstraction import Abstraction, Direction, OutcomeMap, StructuralMap
from absaudit.freecat import hom_set
from absaudit.scm import Exogenous, Scm, Variable, underlying_graph
from absaudit.textfmt import Document

BIN = ("0", "1")
U2 = (("0", 0.5), ("1", 0.5))

# Edge-map entries that are not tuples of names (None, integers, strings,
# `()`, a tuple holding an integer or a list, lists and nested lists), made
# of fig2a's target node names and the unknown name Q.
JUNK_NAMES = ("S'", "T'", "C'", "Q")
HASHABLE_JUNK = st.one_of(st.none(), st.integers(-2, 2), st.just(()), st.text(max_size=3),
                          st.tuples(st.sampled_from(JUNK_NAMES), st.integers(0, 1)))
JUNK = st.one_of(HASHABLE_JUNK, st.lists(st.sampled_from(JUNK_NAMES), max_size=3),
                 st.lists(st.lists(st.sampled_from(JUNK_NAMES), max_size=2), max_size=2),
                 st.lists(st.sampled_from(JUNK_NAMES), min_size=1, max_size=2).map(
                     lambda xs: (xs,)))


def xor(parents: tuple[str, ...], u: str) -> str:
    return str((sum(int(p) for p in parents) + int(u)) % 2)


def model(name, spec, dists) -> Scm:
    """Build a model from (variable, domain, parents, mechanism) rows.

    `dists` maps each variable to a sequence of (noise value, probability);
    noise terms are independent and named U_<variable>.
    """
    domains = {vname: tuple(domain) for vname, domain, _, _ in spec}
    variables, exogenous, mechanisms = [], [], {}
    for vname, domain, parents, mech in spec:
        exo_name = f"U_{vname}"
        variables.append(Variable(vname, tuple(domain), tuple(parents), exo_name))
        exo_domain = tuple(v for v, _ in dists[vname])
        exogenous.append(Exogenous(exo_name, exo_domain, vname))
        table = {}
        for combo in itertools.product(*(domains[p] for p in parents)):
            for u in exo_domain:
                table[(*combo, u)] = mech(combo, u)
        mechanisms[vname] = table
    exo_table = {}
    for picks in itertools.product(*(dists[v.name] for v in variables)):
        prob = 1.0
        for _, p in picks:
            prob *= p
        exo_table[tuple(v for v, _ in picks)] = prob
    return Scm(name, variables, exogenous, mechanisms, exo_table)


def chain(name: str, nodes: list[str]) -> Scm:
    spec, prev = [], None
    for n in nodes:
        spec.append((n, BIN, (prev,) if prev else (), xor))
        prev = n
    return model(name, spec, {n: U2 for n in nodes})


def unary_chain(name: str, nodes: list[str]) -> Scm:
    """A chain over `nodes` with one value each and no noise: enough for the
    structural layer, which reads only names and parents."""
    parents = [()] + [(u,) for u in nodes[:-1]]
    return Scm(name, [Variable(v, ("0",), p, f"U_{v}") for v, p in zip(nodes, parents)],
               [], {}, {})


def unary_dag(name: str, adj: dict[str, list[str]]) -> Scm:
    """A model over the nodes of `adj`, declared in its order, with an edge
    u -> v for each v in adj[u], one value each and no noise."""
    parents = {v: tuple(u for u in adj if v in adj[u]) for v in adj}
    return Scm(name, [Variable(v, ("0",), parents[v], f"U_{v}") for v in adj], [], {}, {})


def plain_scm(m: Scm) -> dict:
    """The model as the plain dicts the oracles in `oracles.py` read."""
    mech = {}
    for v in m.variables:
        table = {}
        for key, val in m.mechanisms[v.name].items():
            table[(key[:-1], key[-1])] = val
        mech[v.name] = table
    return {
        "variables": list(m.variable_names),
        "domains": {v.name: list(v.domain) for v in m.variables},
        "parents": {v.name: list(v.parents) for v in m.variables},
        "exo_of": {v.name: v.exogenous for v in m.variables},
        "exo_domains": {u.name: list(u.domain) for u in m.exogenous},
        "exo_dist": dict(m.exo_table),
        "exo_order": list(m.exogenous_names),
        "mech": mech,
    }


def M(*nodes: str) -> tuple[str, ...]:
    return nodes


def det_rows(mapping: dict[str, str]) -> dict[str, dict[str, float]]:
    return {u: {x: 1.0} for u, x in mapping.items()}


def det_outcomes(target: str, sources, mapping: dict[tuple, tuple]) -> OutcomeMap:
    return OutcomeMap(
        target=target,
        sources=tuple(sources),
        rows={key: {val: 1.0} for key, val in mapping.items()},
    )


def abstraction(
    name, src, tgt, rows, *, edges=None, pairs=None, outcomes=(),
    direction=Direction.MICRO_TO_MACRO,
) -> Abstraction:
    if rows and isinstance(next(iter(rows.values())), str):
        rows = det_rows(rows)
    return Abstraction(
        name=name,
        source_ref=src.name if isinstance(src, Scm) else src,
        target_ref=tgt.name if isinstance(tgt, Scm) else tgt,
        direction=direction,
        structure=StructuralMap(rows=rows, edge_map=edges, pairing=pairs),
        outcome_maps=list(outcomes),
    )


def random_dag(rng: random.Random, n: int) -> dict[str, list[str]]:
    """Random DAG as an adjacency dict over nodes n0..n{n-1} (edges respect
    the index order, so acyclicity holds by construction)."""
    names = [f"n{i}" for i in range(n)]
    adj: dict[str, list[str]] = {name: [] for name in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                adj[names[i]].append(names[j])
    return adj


def dag_model(adj: dict[str, list[str]]) -> Scm:
    """Wrap an adjacency dict as a binary model (mechanisms are parity)."""
    parents: dict[str, list[str]] = {v: [] for v in adj}
    for u, vs in adj.items():
        for v in vs:
            parents[v].append(u)
    spec = [(v, BIN, tuple(parents[v]), xor) for v in adj]
    return model("g", spec, {v: U2 for v in adj})


def random_model(rng: random.Random, max_vars: int = 4, max_dom: int = 3) -> Scm:
    """Random small model with independent noise and random total mechanisms."""
    n = rng.randint(1, max_vars)
    names = [f"V{i}" for i in range(n)]
    domains = {
        v: tuple(str(k) for k in range(rng.randint(2, max_dom))) for v in names
    }
    parents = {
        v: tuple(p for p in names[:i] if rng.random() < 0.5)
        for i, v in enumerate(names)
    }
    dists = {}
    for v in names:
        size = rng.randint(2, max_dom)
        weights = [rng.randint(1, 8) for _ in range(size)]
        total = sum(weights)
        dists[v] = tuple((str(k), w / total) for k, w in enumerate(weights))

    def mech_for(v):
        dom = domains[v]
        salt = rng.randint(0, 10**9)

        def mech(pvals, u):
            local = random.Random(
                zlib.crc32(repr((salt, v, pvals, u)).encode())
            )
            return local.choice(dom)

        return mech

    spec = [(v, domains[v], parents[v], mech_for(v)) for v in names]
    return model("rnd", spec, dists)


def random_rows(rng: random.Random, src: Scm, tgt: Scm) -> dict[str, dict[str, float]]:
    """Random node rows: a source node unmapped, split evenly over two target
    nodes, or sent to one."""
    rows = {}
    for v in src.variable_names:
        r = rng.random()
        if r < 0.15:
            continue
        if r < 0.35 and len(tgt.variable_names) >= 2:
            a, b = rng.sample(tgt.variable_names, 2)
            rows[v] = {a: 0.5, b: 0.5}
        else:
            rows[v] = {rng.choice(tgt.variable_names): 1.0}
    return rows


def random_edge_map(rng: random.Random, src: Scm, tgt: Scm, rows) -> dict | None:
    """A random partial edge map over the source paths between mapped nodes:
    mostly onto a target path between the images, else onto any target path."""
    src_dag, tgt_dag = underlying_graph(src), underlying_graph(tgt)
    det = {
        u: next(iter(row))
        for u, row in rows.items()
        if len(row) == 1 and abs(next(iter(row.values())) - 1.0) < 1e-12
    }
    mapped = [u for u in src.variable_names if u in rows]
    pool = [m for x in tgt_dag.nodes for y in tgt_dag.nodes for m in hom_set(tgt_dag, x, y)]
    edge_map = {}
    for u in mapped:
        for v in mapped:
            for m in hom_set(src_dag, u, v):
                r = rng.random()
                if r < 0.15:
                    continue
                if u in det and v in det and r < 0.85:
                    fitting = hom_set(tgt_dag, det[u], det[v])
                    if fitting:
                        edge_map[m] = rng.choice(fitting)
                        continue
                edge_map[m] = rng.choice(pool)
    return edge_map or None


def random_outcome_maps(rng: random.Random, src: Scm, tgt: Scm) -> list[OutcomeMap]:
    """Random per-variable outcome maps, each reading a random set of source
    variables, with rows left out, split or deterministic."""
    if rng.random() < 0.4:
        return []
    maps = []
    for t in tgt.variable_names:
        if rng.random() < 0.4:
            continue
        srcs = tuple(v for v in src.variable_names if rng.random() < 0.7)
        srcs = srcs or (src.variable_names[0],)
        rows = {}
        for key in itertools.product(*(src.domain_of(v) for v in srcs)):
            r = rng.random()
            if r < 0.12:
                continue
            tdom = tgt.domain_of(t)
            if r < 0.3 and len(tdom) >= 2:
                a, b = rng.sample(tdom, 2)
                rows[key] = {(a,): 0.5, (b,): 0.5}
            else:
                rows[key] = {(rng.choice(tdom),): 1.0}
        maps.append(OutcomeMap(target=t, sources=srcs, rows=rows))
    return maps


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _in_order(names: tuple[str, ...], model: Scm) -> tuple[tuple[str, ...], list[int]]:
    """`names` in `model`'s declaration order, and where each stood in `names`."""
    ordered = tuple(sorted(names, key=model.variable_names.index))
    return ordered, [names.index(v) for v in ordered]


def permuted(doc: Document, rng: random.Random) -> Document:
    """`doc` written down in another order, meaning the same: each model's
    variables and exogenous terms shuffled, its noise keys and the key and
    value columns of every outcome map rewritten to the new declaration
    order, and the rows of every `nodes`, `edges`, `pairs` and `outcomes`
    block shuffled."""
    models = {}
    for name, m in doc.models.items():
        order = _shuffled(rng, range(len(m.exogenous)))
        table = {tuple(key[i] for i in order): p for key, p in m.exo_table.items()}
        models[name] = Scm(name, _shuffled(rng, m.variables), [m.exogenous[i] for i in order],
                           dict(m.mechanisms), table)

    def rows(block: dict | None) -> dict | None:
        return None if block is None else dict(_shuffled(rng, block.items()))

    maps = {}
    for name, a in doc.abstractions.items():
        source, target = models[a.source_ref], models[a.target_ref]
        outcome_maps = []
        for om in a.outcome_maps:
            sources, keys = _in_order(om.sources, source)
            onto, values = _in_order(om.onto, target) if om.is_global else ((), [0])
            shuffled = {tuple(key[i] for i in keys): {tuple(val[j] for j in values): w
                                                      for val, w in row.items()}
                        for key, row in rows(om.rows).items()}
            outcome_maps.append(OutcomeMap(om.target, sources, shuffled, onto))
        sm = a.structure
        structure = StructuralMap(rows(sm.rows), rows(sm.edge_map), rows(sm.pairing))
        maps[name] = dataclasses.replace(a, structure=structure, outcome_maps=outcome_maps)
    return Document(models, maps)
