"""Property audits for two-layer abstraction maps.

Verdicts are tri-valued: True (holds), False (violated), None (not
applicable / not determined).  The node layer is audited as a map of sets;
the morphism layer as a functor from the full subcategory spanned by the
mapped nodes; the distributional layer as maps between outcome spaces.

Two flavours of edge-map injectivity are reported side by side:

* ``faithful`` pools every morphism whose endpoints map onto a given ordered
  pair of target nodes and demands that no two of them share an image;
* ``faithful_parallel`` demands injectivity separately on each source
  hom-set (the hom-set-wise reading).

The pooled reading is the stricter one: a chain coarsening that sends
several identities onto the same target identity fails it while passing the
hom-set-wise one.  ``fully_faithful`` combines fullness with the pooled
reading; the admissibility matrices combine fullness with the hom-set-wise
reading (see taxonomy).

The functor audit reads the edge map once, as a table of node tuples.  It
is total when its keys that are source paths between mapped nodes are as
many as those paths, and full when its distinct images that are target
paths between image nodes are as many as those (``edge_map_non_paths``
names the non-paths, one bulk test per side and command, which tests a key
or image whose prefix is one too at its last step alone; ``path_counts``
counts both).  Composites split only at mapped nodes, so composition is
``F(m) == F(prefix) + F(suffix)[1:]`` with each path ``m`` cut at its last
mapped inner node, found scanning from the end; by induction every other
cut holds.  Faithfulness is one set-size test over the entries between
mapped nodes, of (image source, image target, image) triples, or of
(source, target, image) triples for ``faithful_parallel``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
import math
from typing import Callable, Collection, Iterable, Optional, Sequence

from .abstraction import (Abstraction, Direction, OutcomeMap, StructuralMap,
                          edge_map_non_paths, is_node_tuple)
from .freecat import path_counts
from .scm import Scm, out_of_range, underlying_graph

Verdict = Optional[bool]


def tri_and(*verdicts: Verdict) -> Verdict:
    """Three-valued conjunction: False dominates, then None."""
    if any(v is False for v in verdicts):
        return False
    if any(v is None for v in verdicts):
        return None
    return True


def _fmt(verdict: Verdict) -> str:
    return {True: "yes", False: "no", None: "n/a"}[verdict]


def _dashed(name: str) -> str:
    """A verdict's field name as printed and required: `-` in place of `_`."""
    return name.replace("_", "-")


def _rows(audit, keys: Iterable[str], indent: int = 4) -> list[str]:
    """One text line per verdict `keys` of `audit`: the dashed name, padded
    with the indent to 22 characters, then yes, no or n/a."""
    return [f"{' ' * indent}{_dashed(key):<{22 - indent}} {_fmt(getattr(audit, key))}"
            for key in keys]


# ---------------------------------------------------------------------------
# Node and outcome layers: maps of sets
# ---------------------------------------------------------------------------

@dataclass
class MapAudit:
    """The set-map verdicts of a node map or of one outcome map."""

    functional: bool
    deterministic: bool
    surjective: bool
    injective: Verdict
    bijective: Verdict

    @classmethod
    def of(cls, m: StructuralMap | OutcomeMap, in_domain: Callable[[Collection], int],
           domain_size: int, in_codomain: Callable[[Collection], int], codomain_size: int,
           **extra) -> "MapAudit":
        """Audit `m` (a node or outcome map) as a map between two sets, each
        given by a count of its members among distinct keys and by its
        size; nothing is listed.

        Every verdict reads the supports of the mapped rows: a key is mapped
        when its row has a nonempty support, and the image is the union of
        the supports.  `m` is functional when its mapped keys in the domain
        are `domain_size` many, deterministic when each mapped row has one
        supported entry, and surjective when its images in the codomain are
        `codomain_size` many.
        """
        rows = m.supported_rows()
        functional = in_domain(rows) == domain_size
        images = [val for s in rows.values() if len(s) == 1 for val in s]
        deterministic = len(images) == len(rows)
        hit = {val for s in rows.values() for val in s}
        surjective = in_codomain(hit) == codomain_size
        injective = len(set(images)) == len(images) if deterministic else None
        return cls(
            functional=functional,
            deterministic=deterministic,
            surjective=surjective,
            injective=injective,
            bijective=tri_and(surjective, injective) if functional else False,
            **extra,
        )


_MAP_VERDICTS = tuple(f.name for f in fields(MapAudit))


@dataclass
class OutcomeAudit(MapAudit):
    target: str


def _counted(names: Sequence[str], model: Scm) -> tuple[Callable[[Collection], int], int]:
    """A count of the keys in range over the domains of `names` (the range
    rule, `scm.out_of_range`) and the number of keys in range: the product
    of the distinct domain sizes."""
    domains = [model.domain_of(v) for v in names]
    return (lambda keys: len(keys) - len(out_of_range(keys, domains)),
            math.prod(len(set(d)) for d in domains))


def audit_node_map(abstraction: Abstraction, source: Scm, target: Scm) -> MapAudit:
    src, tgt = underlying_graph(source).node_set, underlying_graph(target).node_set
    return MapAudit.of(abstraction.structure, lambda keys: len(src.intersection(keys)), len(src),
                       lambda keys: len(tgt.intersection(keys)), len(tgt))


def audit_outcome_map(om: OutcomeMap, source: Scm, target: Scm) -> OutcomeAudit:
    tgt_scope = target.variable_names if om.is_global else (om.target,)
    return OutcomeAudit.of(
        om, *_counted(om.sources, source), *_counted(tgt_scope, target), target=om.target
    )


def summarize_outcomes(audits: list[OutcomeAudit]) -> OutcomeAudit | None:
    """Conjunction of the per-map verdicts (None when no layer is present)."""
    if not audits:
        return None
    verdicts = {key: tri_and(*(getattr(a, key) for a in audits)) for key in _MAP_VERDICTS}
    return OutcomeAudit(target="(all)", **verdicts)


# ---------------------------------------------------------------------------
# Morphism layer
# ---------------------------------------------------------------------------

@dataclass
class FunctorAudit:
    """The morphism-layer verdicts; all None when no functor is defined."""

    declared: bool
    functorial: Verdict = None
    full: Verdict = None
    faithful: Verdict = None
    faithful_parallel: Verdict = None
    fully_faithful: Verdict = None


_FUNCTOR_VERDICTS = tuple(f.name for f in fields(FunctorAudit) if f.name != "declared")


def _hom_total(model: Scm, nodes: Collection[str]) -> int:
    """The number of morphisms from one of `nodes` to another in `model`'s graph."""
    counts = path_counts(underlying_graph(model), *nodes)
    return sum(counts[t] for t in nodes)


def _composes(table: dict[tuple, tuple], domain: list[tuple], mapped: Collection[str]) -> bool:
    """Whether `table` composes on each path of `domain` cut at its last mapped inner node."""
    for m in domain:
        i = len(m) - 2
        while i > 0 and m[i] not in mapped:
            i -= 1
        if i > 0 and table[m] != table[m[: i + 1]] + table[m[i:]][1:]:
            return False
    return True


def audit_functor(abstraction: Abstraction, source: Scm, target: Scm, *,
                  non_paths: tuple[Collection, Collection] | None = None) -> FunctorAudit:
    """The morphism-layer verdicts.  `non_paths` is `edge_map_non_paths` of the map, run here
    when None; a caller that has validated the map passes two empty sets."""
    sm = abstraction.structure
    images = sm.images()
    if sm.edge_map is None or images is None:
        return FunctorAudit(declared=sm.edge_map is not None)

    pi = {u: images[u] for u in source.variable_names if u in images}  # the mapped nodes
    table = sm.edge_map

    # Coverage and collision verdicts are computed over the declared
    # entries whose endpoints are mapped, independently of totality, each
    # with the images of its endpoints.  An empty key has no endpoints, and
    # an empty image ends nowhere: neither comes from validated input, nor
    # does an entry whose key or image is no node tuple, which is no entry.
    bad_keys, bad_images = non_paths or edge_map_non_paths(table, source, target)
    junk = {m for m in (*bad_keys, *bad_images)
            if not (is_node_tuple(m) and is_node_tuple(table[m]))}
    entries = [(m, n, pi[m[0]], pi[m[-1]]) for m, n in table.items()
               if not (junk and m in junk) and m and m[0] in pi and m[-1] in pi]
    # The declared morphisms of the audited subcategory: source paths
    # between mapped nodes, which may pass through unmapped ones.
    domain = [m for m, _, _, _ in entries if not (bad_keys and m in bad_keys)]
    functorial = (
        len(entries) == len(table)
        and all(n and n[0] == s and n[-1] == t for _, n, s, t in entries)
        and all(table.get((u,)) == (x,) for u, x in pi.items())
        and len(domain) == _hom_total(source, pi)
        and _composes(table, domain, pi)
    )
    hit = {n for m, n, s, t in entries
           if n and n[0] == s and n[-1] == t and not (bad_images and m in bad_images)}
    full = len(hit) == _hom_total(target, set(pi.values()))
    faithful = len({(s, t, n) for _, n, s, t in entries}) == len(entries)
    faithful_parallel = len({(m[0], m[-1], n) for m, n, _, _ in entries}) == len(entries)

    return FunctorAudit(
        declared=True,
        functorial=functorial,
        full=full,
        faithful=faithful,
        faithful_parallel=faithful_parallel,
        fully_faithful=tri_and(full, faithful),
    )


# ---------------------------------------------------------------------------
# Modalities and derived invertibility
# ---------------------------------------------------------------------------

@dataclass
class ModalityAudit:
    non_deterministic: bool
    macro_to_micro: bool


@dataclass
class InvertibilityAudit:
    perfect_node: Verdict
    set_node: Verdict
    perfect_edge: Verdict
    set_edge: Verdict


# ---------------------------------------------------------------------------
# Whole-abstraction profile
# ---------------------------------------------------------------------------

@dataclass
class PropertyProfile:
    abstraction: str
    node: MapAudit
    functor: FunctorAudit
    outcomes: list[OutcomeAudit]
    outcome_summary: OutcomeAudit | None
    modalities: ModalityAudit
    invertibility: InvertibilityAudit

    def flat(self) -> dict[str, Verdict]:
        """Every verdict under one addressable name (for --require lookups):
        its field name dashed, with `-invertible` after an invertibility
        verdict and `outcome-` before a verdict of the outcome summary."""
        sections = ((self.node, _MAP_VERDICTS, "{}"), (self.functor, _FUNCTOR_VERDICTS, "{}"),
                    (self.modalities, vars(self.modalities), "{}"),
                    (self.invertibility, vars(self.invertibility), "{}-invertible"),
                    (self.outcome_summary, _MAP_VERDICTS, "outcome-{}"))
        return {label.format(_dashed(key)): None if audit is None else getattr(audit, key)
                for audit, keys, label in sections for key in keys}

    def to_dict(self) -> dict:
        """The fields, each audit among them as the dict of its own fields.

        Equal to `dataclasses.asdict`, without its deep copy of every leaf:
        the audits hold only str, bool and None.
        """
        out = {key: dict(vars(v)) if is_dataclass(v) else v for key, v in vars(self).items()}
        out["outcomes"] = [dict(vars(audit)) for audit in self.outcomes]
        return out

    def to_text(self) -> str:
        lines = [f"audit of {self.abstraction}", "  node layer:", *_rows(self.node, _MAP_VERDICTS),
                 "  morphism layer:"]
        if not self.functor.declared:
            lines.append("    (no edge map declared)")
        lines += [*_rows(self.functor, _FUNCTOR_VERDICTS), "  outcome layer:"]
        if not self.outcomes:
            lines.append("    (no outcome maps declared)")
        shown = self.outcomes + [self.outcome_summary] if len(self.outcomes) > 1 else self.outcomes
        for a in shown:
            lines += [f"    map onto {a.target}:", *_rows(a, _MAP_VERDICTS, indent=6)]
        for section in ("modalities", "invertibility"):
            audit = getattr(self, section)
            lines += [f"  {section}:", *_rows(audit, vars(audit))]
        return "\n".join(lines)


def audit_abstraction(abstraction: Abstraction, source: Scm, target: Scm, *,
                      non_paths: tuple[Collection, Collection] | None = None) -> PropertyProfile:
    """Every verdict of `abstraction`; `non_paths` goes to `audit_functor`."""
    node = audit_node_map(abstraction, source, target)
    functor = audit_functor(abstraction, source, target, non_paths=non_paths)
    outcome_audits = [
        audit_outcome_map(om, source, target) for om in abstraction.outcome_maps
    ]
    return PropertyProfile(
        abstraction=abstraction.name,
        node=node,
        functor=functor,
        outcomes=outcome_audits,
        outcome_summary=summarize_outcomes(outcome_audits),
        modalities=ModalityAudit(
            non_deterministic=not all(a.deterministic for a in [node, *outcome_audits]),
            macro_to_micro=abstraction.direction is Direction.MACRO_TO_MICRO,
        ),
        invertibility=InvertibilityAudit(
            perfect_node=node.bijective,
            set_node=node.surjective,
            perfect_edge=functor.fully_faithful,
            set_edge=functor.full,
        ),
    )
