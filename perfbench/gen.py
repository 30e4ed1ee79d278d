"""Seeded input generators for the synthetic workloads.

The functions here build plain-data models, which the oracles in `oracle.py`
work from, and write them and the maps between them as absaudit text (the
`absaudit-format 1` syntax).  Nothing here imports absaudit: the inputs and
their expected answers come from the family definitions alone.

A plain model is a dict with keys
  name, vars (ordered names), domain {var: [values]}, parents {var: [names]},
  exo {var: (exo name, [values])}, dist {exo value tuple: prob},
  mech {var: {(parent values..., exo value): value}}, the shape `oracle.py`
  reads back from text.
"""

from __future__ import annotations

import itertools

HEADER = "absaudit-format 1"


def _num(p: float) -> str:
    return repr(float(p))


def model_text(m: dict) -> list[str]:
    """The `scm` block of a plain model, rows in row-major order."""
    out = [f"scm {m['name']} {{"]
    for v in m["vars"]:
        line = f"  var {v} : {' '.join(m['domain'][v])}"
        if m["parents"][v]:
            line += f" parents {' '.join(m['parents'][v])}"
        out.append(line)
    for v in m["vars"]:
        u, dom = m["exo"][v]
        out.append(f"  exo {u} : {' '.join(dom)} for {v}")
    out.append(f"  dist {' '.join(m['exo'][v][0] for v in m['vars'])} {{")
    for key in sorted(m["dist"], key=lambda k: _row_major(m, k)):
        out.append(f"    {' '.join(key)} : {_num(m['dist'][key])}")
    out.append("  }")
    for v in m["vars"]:
        out.append(f"  mech {v} {{")
        doms = [m["domain"][p] for p in m["parents"][v]] + [m["exo"][v][1]]
        for combo in itertools.product(*doms):
            out.append(f"    {' '.join(combo)} : {m['mech'][v][combo]}")
        out.append("  }")
    out.append("}")
    return out


def _row_major(m: dict, key: tuple) -> tuple:
    return tuple(m["exo"][v][1].index(x) for v, x in zip(m["vars"], key))


def document(*blocks: list[str]) -> str:
    return "\n\n".join("\n".join(b) for b in [[HEADER], *blocks]) + "\n"


# ---------------------------------------------------------------------------
# Graph shapes
# ---------------------------------------------------------------------------

def chain_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j)]


def random_edges(rng, n: int, p: float) -> list[tuple[int, int]]:
    return [(i, j) for j in range(n) for i in range(j) if rng.random() < p]


def parents_of(n: int, edges) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        out[j].append(i)
    return [sorted(ps) for ps in out]


def paths(n: int, edges) -> list[tuple[int, ...]]:
    """Every directed path of the DAG (identities included), by DFS."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    out: list[tuple[int, ...]] = []
    stack = [(i,) for i in range(n)]
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(p + (j,) for j in succ[p[-1]])
    return out


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

def unary_model(name: str, prefix: str, n: int, edges) -> dict:
    """Every variable and noise term has the single value 0."""
    ps = parents_of(n, edges)
    vars_ = [f"{prefix}{i}" for i in range(n)]
    return {
        "name": name,
        "vars": vars_,
        "domain": {v: ["0"] for v in vars_},
        "parents": {v: [vars_[j] for j in ps[i]] for i, v in enumerate(vars_)},
        "exo": {v: (f"U_{v}", ["0"]) for v in vars_},
        "dist": {tuple("0" for _ in vars_): 1.0},
        "mech": {v: {("0",) * (len(ps[i]) + 1): "0"} for i, v in enumerate(vars_)},
    }


def _parity_table(k: int) -> dict:
    """Mechanism X = parity(k parents) xor U over binary values."""
    return {key: str(sum(map(int, key)) % 2) for key in itertools.product("01", repeat=k + 1)}


def parity_model(name: str, prefix: str, n: int, edges, dist: dict) -> dict:
    """Binary variables, X_i = parity(parents) xor U_i, noise table `dist`."""
    ps = parents_of(n, edges)
    vars_ = [f"{prefix}{i}" for i in range(n)]
    return {
        "name": name,
        "vars": vars_,
        "domain": {v: ["0", "1"] for v in vars_},
        "parents": {v: [vars_[j] for j in ps[i]] for i, v in enumerate(vars_)},
        "exo": {v: (f"U_{v}", ["0", "1"]) for v in vars_},
        "dist": dist,
        "mech": {v: _parity_table(len(ps[i])) for i, v in enumerate(vars_)},
    }


def uniform_dist(n: int) -> dict:
    p = 1.0 / 2 ** n
    return {key: p for key in itertools.product("01", repeat=n)}


def sparse_dist(rng, n: int) -> dict:
    """n+1 nonzero rows: all-zero noise and each single flipped term."""
    keys = [tuple("0" for _ in range(n))]
    for k in range(n):
        keys.append(tuple("1" if i == k else "0" for i in range(n)))
    weights = [rng.randint(1, 9) for _ in keys]
    total = sum(weights)
    return {k: w / total for k, w in zip(keys, weights)}


def constant_binary_model(name: str, prefix: str, m: int) -> dict:
    """m independent binary variables with one noise value (all constant 0)."""
    vars_ = [f"{prefix}{i}" for i in range(m)]
    return {
        "name": name,
        "vars": vars_,
        "domain": {v: ["0", "1"] for v in vars_},
        "parents": {v: [] for v in vars_},
        "exo": {v: (f"U_{v}", ["0"]) for v in vars_},
        "dist": {tuple("0" for _ in vars_): 1.0},
        "mech": {v: {("0",): "0"} for v in vars_},
    }


# ---------------------------------------------------------------------------
# Abstractions
# ---------------------------------------------------------------------------

def _path_token(names: list[str], p: tuple[int, ...]) -> str:
    if len(p) == 1:
        return f"{names[p[0]]}^{names[p[0]]}"
    return "^".join(names[i] for i in p)


def path_image(node_of: list[int], p: tuple[int, ...]) -> tuple[int, ...]:
    """The target path a source path lands on: node images, repeats merged."""
    image = [node_of[p[0]]]
    for i in p[1:]:
        if node_of[i] != image[-1]:
            image.append(node_of[i])
    return tuple(image)


def abs_text(name: str, src: dict, tgt: dict, node_of: list[int],
             edge_paths=None, outcome_blocks=()) -> list[str]:
    """An `abs` block; `node_of[i]` is the target index of source node i.

    With `edge_paths`, every listed source path is mapped onto the path its
    nodes land on (consecutive repeats merged), which is a full edge map.
    """
    sv, tv = src["vars"], tgt["vars"]
    out = [f"abs {name} {{", f"  source {src['name']}", f"  target {tgt['name']}",
           "  direction micro-to-macro", "  nodes {"]
    for i, v in enumerate(sv):
        out.append(f"    {v} : {tv[node_of[i]]} 1.0")
    out.append("  }")
    if edge_paths is not None:
        out.append("  edges {")
        for p in sorted(edge_paths, key=lambda q: (len(q), q)):
            out.append(f"    {_path_token(sv, p)} : {_path_token(tv, path_image(node_of, p))}")
        out.append("  }")
    for block in outcome_blocks:
        out.extend(block)
    out.append("}")
    return out


def pair_blocks(n: int) -> list[list[int]]:
    """Consecutive pairs of source indices; an odd tail stands alone."""
    return [list(range(k, min(k + 2, n))) for k in range(0, n, 2)]


def parity_outcome_blocks(src: dict, tgt: dict) -> list[list[str]]:
    """Per-target-variable parity of each consecutive source pair."""
    out = []
    for k, block in enumerate(pair_blocks(len(src["vars"]))):
        names = [src["vars"][i] for i in block]
        lines = [f"  outcomes {tgt['vars'][k]} from {' '.join(names)} {{"]
        for key in itertools.product("01", repeat=len(block)):
            lines.append(f"    {' '.join(key)} : {sum(map(int, key)) % 2} 1.0")
        lines.append("  }")
        out.append(lines)
    return out


def global_identity_block(src: dict, tgt: dict) -> list[list[str]]:
    n = len(src["vars"])
    lines = [f"  outcomes * from {' '.join(src['vars'])} onto {' '.join(tgt['vars'])} {{"]
    for key in itertools.product("01", repeat=n):
        lines.append(f"    {' '.join(key)} : {' '.join(key)} 1.0")
    lines.append("  }")
    return [lines]
