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
``are_paths`` tests one side of an edge map at once, in C, by induction on
length (an entry that extends another by one edge is tested at that edge),
and agrees with ``is_path`` on every entry.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import chain, compress, pairwise
from operator import itemgetter, not_
from typing import Collection, Sequence

from .errors import DEFAULT_HOM_CAP, ModelError, check_cap
from .scm import Dag

_PREFIX, _PENULT, _LAST = itemgetter(slice(None, -1)), itemgetter(-2), itemgetter(-1)


def is_path(dag: Dag, nodes: Sequence[str]) -> bool:
    """True when the node sequence is a morphism of the free category."""
    with suppress(TypeError):  # raised by no sequence, or one holding an unhashable value
        return (bool(nodes) and dag.node_set.issuperset(nodes)
                and dag.edge_set.issuperset(pairwise(nodes)))
    return False


def are_paths(dag: Dag, paths: Collection[Sequence[str]]) -> bool:
    """True when every entry of `paths` is a morphism, all tested at once in C; an
    entry whose prefix is an entry too is tested at its last step and node alone."""
    with suppress(TypeError):  # raised by an entry that is no sequence of hashables
        if not all(paths):  # so an entry that extends another has a last step
            return False
        try:  # an entry that cannot be sliced or hashed: test every entry in full
            entries = paths if isinstance(paths, (dict, set, frozenset)) else set(paths)
            grown = list(map(entries.__contains__, map(_PREFIX, paths)))
        except (TypeError, LookupError):
            grown = [False] * len(paths)
        whole, steps = list(compress(paths, map(not_, grown))), list(compress(paths, grown))
        ends = list(map(_LAST, steps))
        return (dag.node_set.issuperset(chain(ends, chain.from_iterable(whole)))
                and dag.edge_set.issuperset(chain(zip(map(_PENULT, steps), ends),
                                                  chain.from_iterable(map(pairwise, whole)))))
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
    the work.  It extends one list of nodes, and copies it only into a path
    that ends at `target`.
    """
    if source not in dag.node_set:
        raise ModelError(f"unknown node {source!r}")
    to_target = path_counts(dag.opposite, target)
    count = to_target[source]
    check_cap(count, DEFAULT_HOM_CAP, f"hom-set from {source} to {target} has {count} morphisms")
    # The successors that reach `target`, sorted; one iterator per node of `path` on the stack.
    toward = {u: sorted(v for v in dag.successors(u) if to_target[v]) for u in dag.nodes}
    found = [(source,)] if source == target else []
    path, stack = [source], [iter(toward[source])]
    while stack:
        for v in stack[-1]:
            if v == target:
                found.append((*path, v))
            else:
                path.append(v)
                stack.append(iter(toward[v]))
                break
        else:
            del path[-1], stack[-1]
    return tuple(found)
