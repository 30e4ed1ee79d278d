"""Graphviz DOT rendering for models and abstraction maps."""

from __future__ import annotations

from .abstraction import Abstraction, support
from .errors import TOL
from .scm import Scm, underlying_graph


def _q(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def model_dot(model: Scm) -> str:
    dag = underlying_graph(model)
    lines = [f"digraph {_q(model.name)} {{"]
    lines.append("  node [shape=circle];")
    for node in dag.nodes:
        lines.append(f"  {_q(node)};")
    for u, v in dag.edges:
        lines.append(f"  {_q(u)} -> {_q(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def abstraction_dot(abstraction: Abstraction, source: Scm, target: Scm) -> str:
    """Both graphs stacked (source above target), solid causal edges,
    dotted cross-arrows for the node map."""
    lines = [f"digraph {_q(abstraction.name)} {{"]
    lines.append("  compound=true;")
    lines.append("  node [shape=circle];")
    for tag, model in (("src", source), ("tgt", target)):
        dag = underlying_graph(model)
        lines.append(f"  subgraph cluster_{tag} {{")
        lines.append(f"    label={_q(model.name)};")
        for node in dag.nodes:
            lines.append(f"    {_q(tag + ':' + node)} [label={_q(node)}];")
        for u, v in dag.edges:
            lines.append(f"    {_q(tag + ':' + u)} -> {_q(tag + ':' + v)};")
        lines.append("  }")
    for u, row in abstraction.structure.rows.items():
        for x, w in support(row).items():
            attrs = ["style=dotted", "constraint=false"]
            if abs(w - 1.0) > TOL:
                attrs.append(f"label={_q(repr(float(w)))}")
            lines.append(
                f"  {_q('src:' + u)} -> {_q('tgt:' + x)} [{', '.join(attrs)}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
