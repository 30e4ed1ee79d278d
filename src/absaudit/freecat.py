"""The free category generated by a directed acyclic graph.

Objects are the nodes; morphisms are directed paths, recorded as tuples of
visited nodes.  A length-one tuple ``(n,)`` is the identity on ``n``; the
tuple ``(a, b, c)`` is the composite of generator edges ``a->b`` and
``b->c``.  Paths are plain tuples with no wrapper class: ``f + g[1:]``
composes ``f`` then ``g`` (concatenation with the shared endpoint written
once), and ``()`` is no path.  Because the graph is acyclic, every hom-set
is finite.

Only ``hom_set`` and ``all_morphisms`` list paths, and only they are
capped.  ``hom_set`` walks depth first, always into the smallest name
first, so its paths come out sorted by construction: in a DAG no path to
the target extends another.  The audits need hom-set sizes alone, which
``path_counts`` gives for every target of one or more sources in a single
pass.  ``are_paths`` tests one side of an edge map at once, in C, once per
command; ``non_paths`` names the failures, checking path by path.
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


def non_paths(dag: Dag, paths: Collection[Sequence[str]]) -> list:
    """The entries of `paths`, in order, that are not morphisms: all are
    tested at once, and path by path only when that test fails."""
    return [] if are_paths(dag, paths) else [p for p in paths if not is_path(dag, p)]


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


def all_morphisms(dag: Dag) -> tuple[tuple[str, ...], ...]:
    """Every morphism of the free category, ordered by (source, target) pair.

    Pairs follow the node declaration order; within a pair the hom-set order
    is lexicographic.  The cap applies to the total count, taken first.  One
    walk from each source, into the smallest name first, lists its paths in
    lexicographic order; a stable sort then groups them by target.
    """
    count = sum(path_counts(dag, *dag.nodes).values())
    check_cap(count, DEFAULT_HOM_CAP, f"the free category has {count} morphisms")
    rank = {u: i for i, u in enumerate(dag.nodes)}
    # Each node's successors as 1-tuples, largest first: the stack pops the smallest.
    later = {u: sorted(((v,) for v in dag.successors(u)), reverse=True) for u in dag.nodes}
    found: list[tuple[str, ...]] = []
    stack = [(u,) for u in reversed(dag.nodes)]  # each source's walk ends before the next's
    while stack:
        path = stack.pop()
        found.append(path)
        stack.extend(map(path.__add__, later[path[-1]]))
    return tuple(sorted(found, key=lambda p: (rank[p[0]], rank[p[-1]])))
