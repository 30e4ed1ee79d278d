"""Independent brute-force oracles used to cross-check the library.

Every function here is deliberately written against plain dicts/tuples with a
different algorithm than the library uses, so agreement between the two is
meaningful.  The oracles are intentionally slow and simple.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterable, Mapping, Sequence


# ---------------------------------------------------------------------------
# Directed-path enumeration (free category oracle)
# ---------------------------------------------------------------------------

def all_paths(adj: Mapping[str, Sequence[str]], src: str, dst: str) -> list[tuple[str, ...]]:
    """All directed paths from src to dst as node tuples, via plain recursion.

    Includes the length-0 path (src,) when src == dst.  The graph must be
    acyclic; no cycle guard is used.
    """
    if src == dst:
        return [(src,)]
    found: list[tuple[str, ...]] = []

    def walk(node: str, trail: tuple[str, ...]) -> None:
        for nxt in adj.get(node, ()):
            if nxt == dst:
                found.append(trail + (nxt,))
            else:
                walk(nxt, trail + (nxt,))

    walk(src, (src,))
    return sorted(found)


def path_count(adj: Mapping[str, Sequence[str]], src: str, dst: str) -> int:
    """Number of directed paths src->dst by the adjacency-power recurrence."""
    nodes = sorted(set(adj) | {v for vs in adj.values() for v in vs})
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    counts = [[0] * n for _ in range(n)]
    for u, vs in adj.items():
        for v in vs:
            counts[index[u]][index[v]] += 1
    # total[i][j] = sum over k >= 1 of (#walks of length k); DAG => finite.
    total = [[0] * n for _ in range(n)]
    power = [row[:] for row in counts]
    for _ in range(n):
        for i in range(n):
            for j in range(n):
                total[i][j] += power[i][j]
        power = [
            [sum(power[i][k] * counts[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    base = 1 if src == dst else 0
    return base + total[index[src]][index[dst]]


# ---------------------------------------------------------------------------
# Structural types by comparing the hom-set sizes of every pair of nodes
# ---------------------------------------------------------------------------

def structural_types(
    src_adj: Mapping[str, Sequence[str]],
    tgt_adj: Mapping[str, Sequence[str]],
    pi: Mapping[str, str],
    pairing: Mapping[str, str] | None = None,
) -> list[str]:
    """The structural labels of a deterministic micro-to-macro node map.

    `pi` sends each mapped source node to a target node; both graphs are
    adjacency dicts in declaration order.  The shape of `pi` as a map of
    sets names the node labels; the edge labels compare hom-set sizes,
    counted with `path_count` for every pair of nodes of each graph.
    Without `pairing`, the k-th source node in sorted name order is paired
    with the k-th target node in sorted name order, however the graphs are
    declared.  Labels come in the order `detect_types` lists them.
    """
    hom_s = {(u, v): path_count(src_adj, u, v) for u in src_adj for v in src_adj}
    hom_t = {(x, y): path_count(tgt_adj, x, y) for x in tgt_adj for y in tgt_adj}
    src_edges = [(u, v) for u in src_adj for v in src_adj[u]]
    tgt_edges = {(x, y) for x in tgt_adj for y in tgt_adj[x]}
    mapped = [(pi[u], pi[v]) for u, v in src_edges if u in pi and v in pi]
    total = set(pi) == set(src_adj)
    onto = set(pi.values()) == set(tgt_adj)
    one_to_one = len(set(pi.values())) == len(pi)
    bijection = total and onto and one_to_one
    if pairing is None:
        pairing = dict(zip(sorted(src_adj), sorted(tgt_adj)))
    labels = []
    if bijection:
        respects = all(pi[u] == pairing.get(u) for u in pi)
        if respects and set(mapped) == tgt_edges and len(src_edges) == len(tgt_edges):
            labels.append("identity")
        if not respects:
            labels.append("node-permutation")
    if total and onto and not one_to_one:
        labels.append("node-coarsening")
    if total and one_to_one and not onto:
        labels.append("node-embedding")
    pairs = [(hom_s[u, v], hom_t[pi[u], pi[v]]) for u in pi for v in pi] if bijection else []
    if any(s > t >= 1 for s, t in pairs):
        labels.append("edge-coarsening")
    if any(t > s >= 1 for s, t in pairs):
        labels.append("edge-embedding")
    if not total:
        labels.append("node-dropping")
    if any(hom_t[x, y] == 0 and hom_t[y, x] == 0 for x, y in mapped):
        labels.append("edge-dropping")
    if any(hom_t[x, y] == 0 and hom_t[y, x] > 0 for x, y in mapped):
        labels.append("causal-reversal")
    return labels


# ---------------------------------------------------------------------------
# Morphism-layer verdicts by listing the domain and comparing all pairs
# ---------------------------------------------------------------------------

def functor_verdicts(
    src_adj: Mapping[str, Sequence[str]],
    tgt_adj: Mapping[str, Sequence[str]],
    pi: Mapping[str, str],
    edges: Mapping[tuple[str, ...], tuple[str, ...]],
) -> dict[str, bool]:
    """Functorial, full, faithful and faithful-parallel, by definition.

    `pi` sends each mapped source node to its image and `edges` sends
    source node tuples to target node tuples; a key need not be a path.
    The domain is every source path between mapped nodes, listed.  The
    layer is functorial when the domain is covered, every entry joins the
    images of its endpoints, identities go to identities and every
    composable pair of domain paths composes.  Full, faithful and
    faithful-parallel scan the entries between mapped nodes once per
    ordered pair of image nodes, or of mapped nodes.
    """
    mapped = [u for u in src_adj if u in pi]
    domain = [p for u in mapped for v in mapped for p in all_paths(src_adj, u, v)]
    functorial = (
        all(p in edges for p in domain)
        and all(
            m[0] in pi and m[-1] in pi and n[0] == pi[m[0]] and n[-1] == pi[m[-1]]
            for m, n in edges.items()
        )
        and all(edges.get((u,)) == (pi[u],) for u in mapped)
        and all(
            edges[p + q[1:]] == edges[p] + edges[q][1:]
            for p in domain
            for q in domain
            if p[-1] == q[0]
        )
    )
    entries = [(m, n) for m, n in edges.items() if m[0] in pi and m[-1] in pi]
    images = sorted(set(pi.values()))

    def hit(s: str, t: str) -> list[tuple[str, ...]]:
        return [n for m, n in entries if pi[m[0]] == s and pi[m[-1]] == t]

    def spanned(u: str, v: str) -> list[tuple[str, ...]]:
        return [n for m, n in entries if m[0] == u and m[-1] == v]

    return {
        "functorial": functorial,
        "full": all(
            set(all_paths(tgt_adj, s, t)) <= set(hit(s, t))
            for s in images
            for t in images
        ),
        "faithful": all(
            len(set(hit(s, t))) == len(hit(s, t)) for s in images for t in images
        ),
        "faithful_parallel": all(
            len(set(spanned(u, v))) == len(spanned(u, v))
            for u in mapped
            for v in mapped
        ),
    }


# ---------------------------------------------------------------------------
# Joint distribution by exhaustive exogenous enumeration (plain-data SCM)
# ---------------------------------------------------------------------------
# A "plain SCM" here is a dict:
#   variables: ordered list of names
#   domains:   name -> list of values (endogenous)
#   parents:   name -> list of names
#   exo_of:    name -> exogenous name
#   exo_domains: exo name -> list of values
#   exo_dist:  dict[tuple of exo values in exo-declaration order] -> prob
#   exo_order: ordered list of exogenous names
#   mech:      name -> dict[(parent values tuple, exo value)] -> value

def plain_joint(scm: dict) -> dict[tuple, float]:
    """Joint endogenous distribution by brute-force exogenous enumeration."""
    order = toposort(scm)
    joint: dict[tuple, float] = {}
    exo_values = [scm["exo_domains"][u] for u in scm["exo_order"]]
    for combo in itertools.product(*exo_values):
        p = scm["exo_dist"].get(tuple(combo), 0.0)
        if p == 0.0:
            continue
        u_val = dict(zip(scm["exo_order"], combo))
        x_val: dict[str, object] = {}
        for v in order:
            pa = tuple(x_val[q] for q in scm["parents"][v])
            x_val[v] = scm["mech"][v][(pa, u_val[scm["exo_of"][v]])]
        key = tuple(x_val[v] for v in scm["variables"])
        joint[key] = joint.get(key, 0.0) + p
    return joint


def toposort(scm: dict) -> list[str]:
    """Topological order by repeated extraction of parent-satisfied nodes."""
    remaining = list(scm["variables"])
    done: list[str] = []
    while remaining:
        for v in remaining:
            if all(p in done for p in scm["parents"][v]):
                done.append(v)
                remaining.remove(v)
                break
        else:
            raise ValueError("cycle")
    return done


def plain_joint_via_kernels(scm: dict) -> dict[tuple, float]:
    """Joint distribution as a product of per-variable Markov kernels.

    Only valid when the exogenous variables are jointly independent; the
    caller is responsible for that.  Each kernel row is built from the
    marginal of the variable's own exogenous term.
    """
    # Marginal distribution of each exogenous variable.
    exo_marg: dict[str, dict[object, float]] = {u: {} for u in scm["exo_order"]}
    for combo, p in scm["exo_dist"].items():
        for u, val in zip(scm["exo_order"], combo):
            exo_marg[u][val] = exo_marg[u].get(val, 0.0) + p

    order = toposort(scm)
    joint: dict[tuple, float] = {}
    domains = [scm["domains"][v] for v in scm["variables"]]
    for combo in itertools.product(*domains):
        x_val = dict(zip(scm["variables"], combo))
        p = 1.0
        for v in order:
            pa = tuple(x_val[q] for q in scm["parents"][v])
            u = scm["exo_of"][v]
            k = sum(
                w
                for uval, w in exo_marg[u].items()
                if scm["mech"][v][(pa, uval)] == x_val[v]
            )
            p *= k
            if p == 0.0:
                break
        if p != 0.0:
            joint[combo] = p
    return joint


# ---------------------------------------------------------------------------
# Pushforward by preimage summation
# ---------------------------------------------------------------------------

def pushforward_by_preimage(
    dist: Mapping[tuple, float], mapping: Mapping[tuple, tuple]
) -> dict[tuple, float]:
    """Pushforward of a distribution along a deterministic outcome map.

    `mapping` sends each source outcome to its target outcome; the result
    weight of a target outcome is the summed weight of its preimage.
    """
    out: dict[tuple, float] = {}
    for x, p in dist.items():
        y = mapping[x]
        out[y] = out.get(y, 0.0) + p
    return out


def plain_pushforward(
    dist: Mapping[tuple, float],
    maps: Sequence[tuple[Sequence[int], Mapping[tuple, Mapping[tuple, float]]]],
    tol: float = 1e-9,
) -> dict[tuple, float]:
    """Pushforward of a distribution along outcome maps, by depth-first search.

    Each map is (positions, rows): it reads an outcome's values at
    `positions` and sends that key, by `rows`, to weighted value tuples, of
    which only the weights above `tol` count.  Every outcome of nonzero mass,
    in `dist` order, picks one counted value per map, in map order, and adds
    its mass times the picked weights, multiplied left to right, to the
    joined values.  An outcome with no counted value in some map is lost.
    """
    out: dict[tuple, float] = {}

    def walk(outcome: tuple, depth: int, values: tuple, mass: float) -> None:
        if depth == len(maps):
            out[values] = out.get(values, 0.0) + mass
            return
        positions, rows = maps[depth]
        row = rows.get(tuple(outcome[i] for i in positions), {})
        for value, w in row.items():
            if w > tol:
                walk(outcome, depth + 1, values + tuple(value), mass * w)

    for outcome, p in dist.items():
        if p != 0.0:
            walk(outcome, 0, (), p)
    return out


def pushforward_cells(
    dist: Mapping[tuple, float],
    maps: Sequence[tuple[Sequence[int], Mapping[tuple, Mapping[tuple, float]]]],
    tol: float = 1e-9,
) -> int:
    """How many (outcome, joined value) cells `plain_pushforward` reaches on
    the same arguments, by listing them: every outcome of nonzero mass
    joins one counted value per map in every way."""
    cells = 0
    for outcome, p in dist.items():
        if p != 0.0:
            picks = [[value for value, w in rows.get(tuple(outcome[i] for i in positions),
                                                     {}).items() if w > tol]
                     for positions, rows in maps]
            cells += sum(1 for _ in itertools.product(*picks))
    return cells


# ---------------------------------------------------------------------------
# Writers of 2^n rows, a row at a time
# ---------------------------------------------------------------------------

def weight_text(w, finite: bool = True) -> str:
    """One weight as the writers write it: `repr` of it as a float, or, in
    a JSON table whose weights do not sum to a finite number, `json.dumps`
    of it (NaN, Infinity)."""
    return repr(float(w)) if finite else json.dumps(float(w))


def printed_dist(scope: Sequence[str], domains: Sequence[Sequence],
                 probs: Mapping[tuple, float], as_json: bool) -> str:
    """The text of `dist` and `push`, one row at a time: the scope, then
    `labels : weight` per nonzero outcome in row-major order; in JSON the
    nonzero outcomes keyed by their labels in sorted order, then the scope."""
    if not as_json:
        rows = [f"{' '.join(map(str, k))} : {weight_text(p)}"
                for k, p in dense_rows(probs, domains) if p != 0.0]
        return "".join(f"{line}\n" for line in [" ".join(scope), *rows])
    nonzero = {" ".join(map(str, k)): p for k, p in probs.items() if p != 0.0}
    finite = math.isfinite(sum(nonzero.values()))
    entries = [f"{json.dumps(label)}: {weight_text(nonzero[label], finite)}"
               for label in sorted(nonzero)]
    return f'{{"probs": {{{", ".join(entries)}}}, "scope": {json.dumps(list(scope))}}}\n'


def emitted_dist_block(table: Mapping[tuple, float], domains: Sequence[Sequence]) -> list[str]:
    """The rows of the `dist` block of `emit_scm`, one row at a time: every
    entry of the noise table, zeros too, in row-major order."""
    return [f"    {' '.join(map(str, k))} : {weight_text(p)}" for k, p in dense_rows(table, domains)]


# ---------------------------------------------------------------------------
# Dense-product walks over sparse tables
# ---------------------------------------------------------------------------

def dense_rows(table: Mapping[tuple, object], domains: Sequence[Sequence]) -> list[tuple]:
    """The entries of a sparse table in row-major order, found by walking the
    whole product of the domains and looking every joint outcome up."""
    return [(combo, table[combo]) for combo in itertools.product(*domains) if combo in table]


def ranked_by_index(table: Mapping, domains: Sequence[Sequence]) -> tuple[tuple, ...]:
    """The (ranks, keys, values) columns of the entries of `table` whose keys
    are tuples with one value per domain, each in its domain, sorted on rank
    (ties in table order): the sum over places j of the last index of
    `key[j]` in `domains[j]` times the product of the later domain sizes."""
    rows = []
    for key, value in table.items():
        if not (isinstance(key, tuple) and len(key) == len(domains)
                and all(x in d for x, d in zip(key, domains))):
            continue
        rank = 0
        for x, d in zip(key, domains):
            rank = rank * len(d) + max(i for i, y in enumerate(d) if y == x)
        rows.append((rank, key, value))
    rows.sort(key=lambda row: row[0])
    return tuple(tuple(row[j] for row in rows) for j in range(3))


def plain_kernel(scm: dict, v: str, tol: float = 1e-9) -> dict[tuple, dict]:
    """P(v | parents) from the marginal of v's noise term, over the dense
    product of the noise domains; ValueError when that term does not
    factor out of the joint noise table (checked at every joint outcome)."""
    exo = scm["exo_of"][v]
    i = scm["exo_order"].index(exo)
    own = {val: 0.0 for val in scm["exo_domains"][exo]}
    rest: dict[tuple, float] = {}
    full: dict[tuple, float] = {}
    for combo in itertools.product(*(scm["exo_domains"][u] for u in scm["exo_order"])):
        p = scm["exo_dist"].get(combo, 0.0)
        own[combo[i]] = own.get(combo[i], 0.0) + p
        rest[combo[:i] + combo[i + 1 :]] = rest.get(combo[:i] + combo[i + 1 :], 0.0) + p
        full[combo] = p
    for combo, p in full.items():
        if abs(p - own[combo[i]] * rest[combo[:i] + combo[i + 1 :]]) > tol:
            raise ValueError(f"the noise of {v} depends on the other noise terms")
    rows: dict[tuple, dict] = {}
    for pa in itertools.product(*(scm["domains"][q] for q in scm["parents"][v])):
        row = {x: 0.0 for x in scm["domains"][v]}
        for uval, w in own.items():
            row[scm["mech"][v][(pa, uval)]] += w
        rows[pa] = row
    return rows


def per_term_test(table: Mapping[tuple, float], domains: Sequence[Sequence], i: int
                  ) -> tuple[dict, float]:
    """Noise term i's marginal and its largest deviation from independence,
    as the per-term test of `mechanism_kernel` finds them: one pass over
    the entries in row-major order sums the term's marginal by value and
    the rest's by rank less the term's offset; the deviation is the largest
    |p - own * rest| over the entries, and over each rest that occurs
    paired with a noise value missing from the table (weight 0)."""
    ranks, keys, values = ranked_by_index(table, domains)
    stride = math.prod(len(d) for d in domains[i + 1 :])
    offset = {x: j * stride for j, x in enumerate(domains[i])}
    own = dict.fromkeys(domains[i], 0.0)
    rest: dict[int, float] = {}
    for r, key, p in zip(ranks, keys, values):
        own[key[i]] += p
        rest[r - offset[key[i]]] = rest.get(r - offset[key[i]], 0.0) + p
    worst = max((abs(p - own[key[i]] * rest[r - offset[key[i]]])
                 for r, key, p in zip(ranks, keys, values)), default=0.0)
    present = set(ranks)
    missing = [abs(w * q) for r, q in rest.items() for x, w in own.items()
               if r + offset[x] not in present]
    return own, max([worst, *missing])


def per_term_kernel(scm: dict, v: str, tol: float = 1e-9) -> dict[tuple, dict]:
    """P(v | parents) from the marginal of v's noise term, as
    `per_term_test` finds it; ValueError when that test's deviation
    exceeds `tol`."""
    domains = [scm["exo_domains"][u] for u in scm["exo_order"]]
    own, worst = per_term_test(scm["exo_dist"], domains, scm["exo_order"].index(scm["exo_of"][v]))
    if worst > tol:
        raise ValueError(f"the noise of {v} depends on the other noise terms")
    rows: dict[tuple, dict] = {}
    for pa in itertools.product(*(scm["domains"][q] for q in scm["parents"][v])):
        rows[pa] = {x: 0.0 for x in scm["domains"][v]}
        for uval, w in own.items():
            rows[pa][scm["mech"][v][(pa, uval)]] += w
    return rows


# ---------------------------------------------------------------------------
# Set-map verdicts and outcome-row ranges over explicit universes
# ---------------------------------------------------------------------------

def block(model, names: Sequence[str]) -> list[tuple]:
    """Every joint outcome of the variables `names` of `model`, row-major:
    the explicit universe that the library counts instead of listing."""
    return list(itertools.product(*(model.domain_of(v) for v in names)))


def set_map_verdicts(
    rows: Mapping, domain: Iterable, codomain: Iterable, tol: float = 1e-9
) -> dict[str, object]:
    """The set-map verdicts of a sparse row map between the explicit sets
    `domain` and `codomain`, read from the entries weighing more than `tol`:
    functional when every domain element has such an entry, surjective when
    every codomain element is one, injective (None unless every mapped row
    has exactly one) when no two mapped rows share it."""
    hits = {key: {v for v, w in row.items() if w > tol} for key, row in rows.items()}
    hits = {key: vs for key, vs in hits.items() if vs}
    image = set().union(*hits.values())
    functional = all(x in hits for x in set(domain))
    surjective = all(y in image for y in set(codomain))
    deterministic = all(len(vs) == 1 for vs in hits.values())
    injective = None
    if deterministic:
        injective = len({next(iter(vs)) for vs in hits.values()}) == len(hits)
    if not functional:
        bijective = False
    elif surjective is False or injective is False:
        bijective = False
    else:
        bijective = None if injective is None else True
    return {"functional": functional, "deterministic": deterministic,
            "surjective": surjective, "injective": injective, "bijective": bijective}


def outcome_range_codes(rows: Mapping, keys: Iterable, values: Iterable) -> list[str]:
    """`outcome-key` for each row whose key is not in `keys`, and
    `outcome-range` for each row value not in `values`, in row order."""
    key_set, value_set = set(keys), set(values)
    codes = []
    for key, row in rows.items():
        if key not in key_set:
            codes.append("outcome-key")
        codes += ["outcome-range" for val in row if val not in value_set]
    return codes


# ---------------------------------------------------------------------------
# Admissibility cells (taxonomy oracle)
# ---------------------------------------------------------------------------

# Each property row of the admissibility tables, with the verdicts it needs
# to be True, spelled out from the enforcement conventions of `taxonomy`:
# Functionality asks for a total function; Surjectivity and Injectivity
# presuppose it; Bijectivity is their conjunction.
SET_MAP_NEEDS = {
    "Functionality": ("functional", "deterministic"),
    "Surjectivity": ("functional", "deterministic", "surjective"),
    "Injectivity": ("functional", "deterministic", "injective"),
    "Bijectivity": ("functional", "deterministic", "surjective", "injective"),
}
# Functoriality presupposes a function and a complete morphism layer;
# Fullness and Faithfulness (hom-set-wise) presuppose it; Fully Faithfulness
# is their conjunction.
FUNCTOR_NEEDS = {
    "Functoriality": ("functorial",),
    "Fullness": ("functorial", "full"),
    "Faithfulness": ("functorial", "faithful_parallel"),
    "Fully Faithfulness": ("functorial", "full", "faithful_parallel"),
}


def property_cells(set_map: Mapping[str, object],
                   functor: Mapping[str, object] | None = None) -> dict[str, bool]:
    """The property cells of a witness, by row label: the set-map rows from
    the verdicts `set_map` of its node audit or outcome summary, and, when
    `functor` holds its functor verdicts, the functor rows, which also need
    Functionality.  A row is admissible when every verdict it needs is True."""
    cells = {row: all(set_map[v] is True for v in needs) for row, needs in SET_MAP_NEEDS.items()}
    for row, needs in FUNCTOR_NEEDS.items() if functor is not None else ():
        cells[row] = cells["Functionality"] and all(functor[v] is True for v in needs)
    return cells
