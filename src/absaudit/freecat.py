"""The free category generated by a directed acyclic graph.

Objects are the nodes; morphisms are directed paths, recorded as tuples of
visited nodes.  A length-one tuple ``(n,)`` is the identity on ``n``; the
tuple ``(a, b, c)`` is the composite of generator edges ``a->b`` and
``b->c``.  Paths are plain tuples with no wrapper class: ``f + g[1:]``
composes ``f`` then ``g`` (concatenation with the shared endpoint written
once), and ``()`` is no path.  Because the graph is acyclic, every hom-set
is finite.

Only ``hom_set`` lists paths, and only it is capped.  It walks depth
first, always into the smallest name first, so its paths come out sorted by
construction: in a DAG no path to the target extends another.  The audits
need hom-set sizes alone, which ``path_counts`` gives for every target of
one or more sources in a single pass.  ``is_path`` tests one node sequence;
``are_paths`` tests one side of an edge map at once, in C, and agrees with
``is_path`` on every entry.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, pairwise
from typing import Collection, Sequence

from .errors import DEFAULT_HOM_CAP, ModelError, check_cap
from .scm import Dag


def is_path(dag: Dag, nodes: Sequence[str]) -> bool:
    """True when the node sequence is a morphism of the free category."""
    with suppress(TypeError):  # raised by no sequence, or one holding an unhashable value
        return (bool(nodes) and dag.node_set.issuperset(nodes)
                and dag.edge_set.issuperset(pairwise(nodes)))
    return False


def are_paths(dag: Dag, paths: Collection[Sequence[str]]) -> bool:
    """True when every entry of `paths` is a morphism, all tested at once in C."""
    with suppress(TypeError):  # raised by an entry that is no sequence of hashables
        return bool(all(paths) and dag.node_set.issuperset(chain.from_iterable(paths))
                    and dag.edge_set.issuperset(chain.from_iterable(map(pairwise, paths))))
    return False


def path_counts(dag: Dag, *sources: str) -> dict[str, int]:
    """The number of morphisms from one of `sources` (each seeded with 1) to
    each node: one pass in topological order adds each count to the successors'."""
    counts = dict.fromkeys(dag.nodes, 0)
    for source in sources:
        if source not in dag.node_set:
            raise ModelError(f"unknown node {source!r}")
        counts[source] = 1
    for u in dag.topological_order:
        for v in dag.successors(u):
            counts[v] += counts[u]
    return counts


def hom_set(dag: Dag, source: str, target: str) -> tuple[tuple[str, ...], ...]:
    """All morphisms from source to target, sorted lexicographically.

    The identity is included when source == target.  Raises CapacityError
    when the hom-set exceeds the enumeration cap (`errors.check_cap`: 10^5
    or `ABSAUDIT_ENUM_CAP`).  The hom-set is counted before it is listed,
    and the walk enters only nodes that reach `target`, so the cap bounds
    the work.
    """
    if source not in dag.node_set:
        raise ModelError(f"unknown node {source!r}")
    to_target = path_counts(dag.opposite, target)
    count = to_target[source]
    check_cap(count, DEFAULT_HOM_CAP, f"hom-set from {source} to {target} has {count} morphisms")
    # The successors that reach `target` as 1-tuples, largest first: the stack pops the smallest.
    toward = {u: sorted(((v,) for v in dag.successors(u) if to_target[v]), reverse=True)
              for u in dag.nodes}
    found: list[tuple[str, ...]] = []
    stack = [(source,)]
    while stack:
        path = stack.pop()
        if path[-1] == target:
            found.append(path)
        else:
            stack.extend(map(path.__add__, toward[path[-1]]))
    return tuple(found)
