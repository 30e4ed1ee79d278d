"""Answers computed without absaudit, and the checks that compare against them.

Nothing here imports absaudit or the repository's tests.  The text reader
below handles just the subset of the file format the shipped data and the
generated inputs use; the algorithms follow the definitions directly:

* hom-set sizes by a path-count DP over the DAG in topological order;
* joints, marginals and interventions by forward simulation over the noise
  support (one mechanism lookup per variable per nonzero noise row);
* pushforwards by mapping each support outcome through the outcome rows, or
  in closed form (parity coarsening of a uniform joint is uniform);
* property verdicts of deterministic maps from the set-level definitions.
"""

from __future__ import annotations

import itertools
import json

TOL = 1e-9


# ---------------------------------------------------------------------------
# Reading the text format
# ---------------------------------------------------------------------------

def read_blocks(text: str) -> tuple[list[dict], list[dict]]:
    """(models, abstractions) of a document, in file order.

    Models are plain dicts: name, vars, domain, parents, exo {var: (name,
    values)}, dist {noise tuple: p}, mech {var: {inputs tuple: value}}.
    Abstractions: name, source, target, direction, nodes {u: {x: w}},
    outcomes [(target, sources, onto, {key: {value tuple: w}})]; edge and
    pairing blocks are skipped.
    """
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    models, abstractions = [], []
    i = 1  # line 0 is the header
    while i < len(lines):
        kind, name = lines[i][0], lines[i][1]
        i += 1
        if kind == "scm":
            m = {"name": name, "vars": [], "domain": {}, "parents": {},
                 "exo": {}, "dist": {}, "mech": {}}
            while lines[i] != ["}"]:
                t = lines[i]
                if t[0] == "var":
                    rest = t[3:]
                    ps = rest[rest.index("parents") + 1:] if "parents" in rest else []
                    dom = rest[:rest.index("parents")] if "parents" in rest else rest
                    m["vars"].append(t[1])
                    m["domain"][t[1]] = dom
                    m["parents"][t[1]] = ps
                    i += 1
                elif t[0] == "exo":
                    m["exo"][t[-1]] = (t[1], t[3:-2])
                    i += 1
                else:  # dist or mech table
                    rows, i = _table(lines, i + 1)
                    if t[0] == "dist":
                        m["dist"] = {k: float(v[0]) for k, v in rows.items()}
                    else:
                        m["mech"][t[1]] = {k: v[0] for k, v in rows.items()}
            models.append(m)
        else:
            a = {"name": name, "nodes": {}, "outcomes": []}
            while lines[i] != ["}"]:
                t = lines[i]
                if t[-1] != "{":
                    a[t[0]] = t[1]
                    i += 1
                    continue
                rows, i = _table(lines, i + 1)
                if t[0] == "nodes":
                    a["nodes"] = {k[0]: {v[j]: float(v[j + 1]) for j in range(0, len(v), 2)}
                                  for k, v in rows.items()}
                elif t[0] == "outcomes":
                    spec = t[1:-1]
                    target, rest = spec[0], spec[2:]
                    onto = rest[rest.index("onto") + 1:] if "onto" in rest else [target]
                    sources = rest[:rest.index("onto")] if "onto" in rest else rest
                    k = len(onto) + 1
                    table = {key: {tuple(v[j:j + k - 1]): float(v[j + k - 1])
                                   for j in range(0, len(v), k)}
                             for key, v in rows.items()}
                    a["outcomes"].append((target, sources, onto, table))
            abstractions.append(a)
        i += 1
    return models, abstractions


def _table(lines, i):
    rows = {}
    while lines[i] != ["}"]:
        t = lines[i]
        cut = t.index(":")
        rows[tuple(t[:cut])] = t[cut + 1:]
        i += 1
    return rows, i + 1


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def topo_order(vars_: list[str], parents: dict) -> list[str]:
    done: list[str] = []
    seen: set[str] = set()
    while len(done) < len(vars_):
        for v in vars_:
            if v not in seen and all(p in seen for p in parents[v]):
                done.append(v)
                seen.add(v)
    return done


def path_count(n: int, edges, s: int, t: int) -> int:
    """Directed paths s -> t, by a DP over the nodes in index order.

    The generated DAGs only have edges i -> j with i < j, so index order is a
    topological order.
    """
    ways = [0] * n
    ways[s] = 1
    for i, j in sorted(edges):
        ways[j] += ways[i]
    return ways[t]


def check_hom_listing(out: str, names: list[str], edges, s: int, t: int) -> str | None:
    """`graph --hom` text: the count line, then every s -> t path in order."""
    lines = out.splitlines()
    want = path_count(len(names), edges, s, t)
    head = f"hom({names[s]}, {names[t]}) in "
    if not lines or not lines[0].startswith(head) or not lines[0].endswith(
            f": {want} morphism(s)"):
        return f"count line {lines[:1]!r}, want {want} morphisms"
    index = {v: i for i, v in enumerate(names)}
    edge_set = set(edges)
    listed = []
    for line in lines[1:]:
        nodes = tuple(index[v] for v in line.strip().split("^"))
        if nodes[0] != s or nodes[-1] != t or any(
                e not in edge_set for e in zip(nodes, nodes[1:])):
            return f"{line.strip()} is not a path {names[s]} -> {names[t]}"
        listed.append(tuple(names[i] for i in nodes))
    if len(listed) != want or listed != sorted(set(listed)):
        return f"{len(listed)} paths listed (distinct, sorted required), want {want}"
    return None


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def simulate(m: dict, do: dict | None = None) -> dict[tuple, float]:
    """Joint over m['vars'] by forward simulation over the noise support."""
    do = do or {}
    order = topo_order(m["vars"], {v: ([] if v in do else m["parents"][v]) for v in m["vars"]})
    pos = {v: i for i, v in enumerate(m["vars"])}
    joint: dict[tuple, float] = {}
    for noise, p in m["dist"].items():
        if p == 0.0:
            continue
        val: dict[str, str] = {}
        for v in order:
            if v in do:
                val[v] = do[v]
            else:
                key = tuple(val[q] for q in m["parents"][v]) + (noise[pos[v]],)
                val[v] = m["mech"][v][key]
        out = tuple(val[v] for v in m["vars"])
        joint[out] = joint.get(out, 0.0) + p
    return joint


def marginalize(joint: dict, scope: list[str], keep: list[str]) -> dict:
    idx = [i for i, v in enumerate(scope) if v in keep]
    out: dict[tuple, float] = {}
    for k, p in joint.items():
        kk = tuple(k[i] for i in idx)
        out[kk] = out.get(kk, 0.0) + p
    return out


def push(joint: dict, src: dict, tgt: dict, a: dict) -> tuple[dict, float]:
    """(pushforward, mass lost on unmapped outcome rows)."""
    pos = {v: i for i, v in enumerate(src["vars"])}
    by_target = {om[0]: om for om in a["outcomes"]}
    layers = [by_target["*"]] if "*" in by_target else [by_target[y] for y in tgt["vars"]]
    out: dict[tuple, float] = {}
    lost = 0.0
    for k, p in joint.items():
        partial = {(): p}
        for _, sources, _, rows in layers:
            row = rows.get(tuple(k[pos[s]] for s in sources), {})
            if sum(row.values()) <= TOL:
                partial = {}
                break
            partial = {pre + val: q * w for pre, q in partial.items()
                       for val, w in row.items() if w != 0.0}
        if not partial:
            lost += p
        for kk, q in partial.items():
            out[kk] = out.get(kk, 0.0) + q
    return out, lost


def uniform(domains: list[list[str]]) -> dict:
    size = 1
    for d in domains:
        size *= len(d)
    return {k: 1.0 / size for k in itertools.product(*domains)}


def same_dist(got: dict, want: dict) -> str | None:
    if set(got) != set(want):
        extra = sorted(set(got) ^ set(want))[:3]
        return f"support differs ({len(got)} vs {len(want)} outcomes, e.g. {extra})"
    for k, p in want.items():
        if abs(got[k] - p) > TOL:
            return f"P({' '.join(k)}) = {got[k]!r}, want {p!r}"
    return None


def check_dist_json(out: str, scope: list[str], want: dict) -> str | None:
    payload = json.loads(out)
    if payload["scope"] != scope:
        return f"scope {payload['scope']} != {scope}"
    got = {tuple(k.split(" ")): p for k, p in payload["probs"].items()}
    return same_dist(got, {k: p for k, p in want.items() if p != 0.0})


def check_dist_text(out: str, scope: list[str], domains: list[list[str]],
                    want: dict) -> str | None:
    lines = out.splitlines()
    if not lines or lines[0].split() != scope:
        return f"scope line {lines[:1]!r}"
    got, keys = {}, []
    for line in lines[1:]:
        left, right = line.split(" : ")
        keys.append(tuple(left.split(" ")))
        got[keys[-1]] = float(right)
    ranks = [tuple(d.index(x) for d, x in zip(domains, k)) for k in keys]
    if ranks != sorted(ranks):
        return "rows are not in row-major order"
    return same_dist(got, {k: p for k, p in want.items() if p != 0.0})


# ---------------------------------------------------------------------------
# Property verdicts
# ---------------------------------------------------------------------------

def _set_verdicts(mapped: dict, universe: list, codomain: list) -> dict:
    """Verdicts of a deterministic (possibly partial) map `mapped`."""
    images = list(mapped.values())
    functional = all(x in mapped for x in universe)
    surjective = set(codomain) <= set(images)
    injective = len(set(images)) == len(images)
    return {"functional": functional, "deterministic": True,
            "surjective": surjective, "injective": injective,
            "bijective": functional and surjective and injective}


def functor_verdicts(src_paths, tgt_paths, image_of) -> dict:
    """Verdicts of a map given on every source path by `image_of`.

    The generated maps send a path to the path its node images trace, with
    repeats merged; that commutes with concatenation, so they are functors
    by construction and only fullness and the two faithfulness readings are
    computed.
    """
    hit = {image_of(p) for p in src_paths}
    pooled: dict = {}
    parallel: dict = {}
    for p in src_paths:
        img = image_of(p)
        pooled.setdefault((img[0], img[-1]), []).append(img)
        parallel.setdefault((p[0], p[-1]), []).append(img)
    full = set(tgt_paths) <= hit
    faithful = all(len(set(g)) == len(g) for g in pooled.values())
    return {"declared": True, "functorial": True, "full": full,
            "faithful": faithful,
            "faithful_parallel": all(len(set(g)) == len(g) for g in parallel.values()),
            "fully_faithful": full and faithful}


NO_FUNCTOR = {"declared": False, "functorial": None, "full": None,
              "faithful": None, "faithful_parallel": None, "fully_faithful": None}


def profile(name: str, node_of: list[int], n_tgt: int, functor: dict,
            outcome_layers: list[tuple[str, dict, list, list]]) -> dict:
    """The expected `audit --format json` payload of a deterministic,
    total, micro-to-macro map.  `outcome_layers` holds (target, row map,
    source outcomes, target outcomes) per outcome map."""
    node = _set_verdicts(dict(enumerate(node_of)), list(range(len(node_of))),
                         list(range(n_tgt)))
    outcomes = [dict(target=t, **_set_verdicts(rows, univ, cod))
                for t, rows, univ, cod in outcome_layers]
    summary = None
    if outcomes:
        summary = {"target": "(all)"}
        for key in ("functional", "deterministic", "surjective", "injective", "bijective"):
            summary[key] = all(o[key] for o in outcomes)
    return {
        "abstraction": name,
        "node": node,
        "functor": functor,
        "outcomes": outcomes,
        "outcome_summary": summary,
        "modalities": {"non_deterministic": False, "macro_to_micro": False},
        "invertibility": {"perfect_node": node["bijective"], "set_node": node["surjective"],
                          "perfect_edge": functor["fully_faithful"],
                          "set_edge": functor["full"]},
    }


def check_json(out: str, want) -> str | None:
    got = json.loads(out)
    if got != want:
        return f"got {json.dumps(got, sort_keys=True)[:300]}"
    return None


# Verdicts pinned for each shipped figure: the hand-written expectations of
# the repository's acceptance suite (property names as in `audit --require`).
FIGURE_VERDICTS = {
    "fig2a": {"bijective": True, "functorial": True, "full": True,
              "faithful": True, "fully-faithful": True},
    "fig2b": {"functorial": True, "full": True, "faithful": False,
              "faithful-parallel": True, "fully-faithful": False},
    "fig3a": {"functional": True, "deterministic": True, "surjective": True,
              "injective": False, "outcome-functional": True,
              "outcome-surjective": True, "outcome-injective": False},
    "fig3b": {"functional": False, "surjective": True, "injective": True,
              "bijective": False},
    "fig4a": {"functional": False, "surjective": True, "injective": False},
    "fig4b": {"functional": False, "surjective": False, "injective": True},
    "fig5a": {"functional": True, "surjective": True, "injective": True,
              "bijective": True},
    "fig5b": {"functional": True, "surjective": True, "injective": False,
              "bijective": False},
    "fig6a": {"bijective": True},
    "fig6b": {"bijective": False},
    "fig7a": {"functorial": True, "full": True, "faithful": True},
    "fig7b": {"functorial": False},
    "fig8a": {"functorial": True, "full": True},
    "fig8b": {"functorial": True, "full": False},
    "fig9a": {"functorial": True, "faithful": True},
    "fig9b": {"functorial": True, "full": True, "faithful": False,
              "faithful-parallel": True},
    "fig10a": {"outcome-functional": True, "outcome-surjective": True,
               "outcome-injective": False},
    "fig10b": {"outcome-functional": False, "outcome-surjective": True,
               "outcome-injective": True},
    "fig11a": {"outcome-surjective": True},
    "fig11b": {"outcome-surjective": False, "outcome-injective": False},
    "fig12a": {"outcome-injective": True, "outcome-surjective": False},
    "fig12b": {"outcome-injective": False},
    "fig13a": {"outcome-bijective": True},
    "fig13b": {"outcome-bijective": False},
}

# The identity witness: a two-node chain mapped onto a copy of itself with a
# full edge map.  Every node and morphism verdict holds; there is no outcome
# layer.
IDENTITY_VERDICTS = {
    "functional": True, "deterministic": True, "surjective": True,
    "injective": True, "bijective": True, "functorial": True, "full": True,
    "faithful": True, "faithful-parallel": True, "fully-faithful": True,
    "non-deterministic": False, "perfect-node-invertible": True,
    "perfect-edge-invertible": True,
}


def flat_verdicts(payload: dict) -> dict:
    """`audit --format json` verdicts under their `--require` names."""
    out = {}
    for layer, prefix in (("node", ""), ("functor", ""), ("outcome_summary", "outcome-")):
        for key, val in (payload[layer] or {}).items():
            if key not in ("target", "declared"):
                out[prefix + key.replace("_", "-")] = val
    out["non-deterministic"] = payload["modalities"]["non_deterministic"]
    out["macro-to-micro"] = payload["modalities"]["macro_to_micro"]
    for key, val in payload["invertibility"].items():
        out[key.replace("_", "-") + "-invertible"] = val
    return out


def check_verdicts(out: str, name: str, pinned: dict) -> str | None:
    payload = json.loads(out)
    if payload["abstraction"] != name:
        return f"audited {payload['abstraction']!r}, want {name!r}"
    flat = flat_verdicts(payload)
    wrong = [f"{k}={flat.get(k)!r} (want {v!r})" for k, v in pinned.items()
             if flat.get(k, "missing") is not v]
    return "; ".join(wrong) or None


def check_profile_laws(out: str, name: str) -> str | None:
    """Audit payload of a witness: names match and bijective = surj and inj."""
    payload = json.loads(out)
    if payload["abstraction"] != name:
        return f"audited {payload['abstraction']!r}, want {name!r}"
    for audit in [payload["node"]] + payload["outcomes"]:
        if audit["functional"]:
            want = _tri_and(audit["surjective"], audit["injective"])
        else:
            want = False
        if audit["bijective"] is not want:
            return f"bijective {audit['bijective']!r} breaks the bijectivity law"
    return None


def _tri_and(*vs):
    if any(v is False for v in vs):
        return False
    if any(v is None for v in vs):
        return None
    return True


# ---------------------------------------------------------------------------
# Graph output
# ---------------------------------------------------------------------------

def graph_text(m: dict) -> str:
    lines = [f"model {m['name']}", f"  nodes: {' '.join(m['vars'])}"]
    lines += [f"  {p} -> {v}" for v in m["vars"] for p in m["parents"][v]]
    return "\n".join(lines) + "\n"


def _q(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def model_dot(m: dict) -> str:
    lines = [f"digraph {_q(m['name'])} {{", "  node [shape=circle];"]
    lines += [f"  {_q(v)};" for v in m["vars"]]
    lines += [f"  {_q(p)} -> {_q(v)};" for v in m["vars"] for p in m["parents"][v]]
    return "\n".join(lines + ["}"]) + "\n"


def abstraction_dot(a: dict, src: dict, tgt: dict) -> str:
    lines = [f"digraph {_q(a['name'])} {{", "  compound=true;", "  node [shape=circle];"]
    for tag, m in (("src", src), ("tgt", tgt)):
        lines += [f"  subgraph cluster_{tag} {{", f"    label={_q(m['name'])};"]
        lines += [f"    {_q(tag + ':' + v)} [label={_q(v)}];" for v in m["vars"]]
        lines += [f"    {_q(tag + ':' + p)} -> {_q(tag + ':' + v)};"
                  for v in m["vars"] for p in m["parents"][v]]
        lines.append("  }")
    for u, row in a["nodes"].items():
        for x, w in row.items():
            attrs = "style=dotted, constraint=false"
            if w != 1.0:
                attrs += f", label={_q(repr(w))}"
            lines.append(f"  {_q('src:' + u)} -> {_q('tgt:' + x)} [{attrs}];")
    return "\n".join(lines + ["}"]) + "\n"


def validate_text(models: list[dict], abstractions: list[dict]) -> str:
    """`validate` output for well-formed blocks."""
    return "".join(f"model {m['name']}: ok\n" for m in models) + "".join(
        f"abstraction {a['name']}: ok\n" for a in abstractions)


def check_equal(out: str, want: str) -> str | None:
    if out == want:
        return None
    got, exp = out.splitlines(), want.splitlines()
    for i, (g, e) in enumerate(zip(got, exp)):
        if g != e:
            return f"line {i + 1}: {g!r}, want {e!r}"
    return f"{len(got)} lines, want {len(exp)}"
