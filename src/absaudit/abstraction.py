"""Two-layer abstraction maps between finite structural causal models.

The structural layer maps the nodes of a source model onto the nodes of a
target model (a row-stochastic matrix, stored sparsely) and may carry a
partial map on the morphisms of the free categories of the two graphs.  The
distributional layer carries outcome maps: per-target-variable matrices from
the joint outcomes of that variable's preimage block, or one global matrix
from full source outcomes to full target outcomes.

Rows keep their weights as written, but every verdict and computation reads
a row only through its support (`support`: the entries weighing more than
`TOL`), so an explicit zero entry means the same as an omitted one.  A node
row that is omitted leaves the node unmapped; a row with one supported entry
makes the map deterministic at that node.  An outcome row that is omitted or
all-zero leaves that outcome unmapped, which makes the induced pushforward
partial.  Row totals and negative weights are checked by
`validate_abstraction`, not by the audits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter, mul
from typing import Mapping, TypeVar

from .errors import TOL, DEFAULT_EXO_CAP, ModelError, check_cap
from .errors import RenormalizationRequiredError
from .scm import Dag, Distribution, Scm, ValidationReport, out_of_range, refuse_misshapen
from .scm import rows_of, underlying_graph
from . import freecat


class Direction(enum.Enum):
    """Which way the abstraction runs between granularity levels."""

    MICRO_TO_MACRO = "micro-to-macro"
    MACRO_TO_MICRO = "macro-to-micro"


GLOBAL = "*"  # target marker for a whole-model outcome map
_ONTO = "the global outcome map must write every target variable in declaration order"
_RANGE = "outcome row {!r} for {} hits {!r} outside the target domain"
_WALK = 1 << 10  # cells a pushforward walks at once, which bounds the columns it holds

K = TypeVar("K")


def support(row: Mapping[K, float]) -> dict[K, float]:
    """The entries of a stochastic row whose weight is above `TOL`."""
    return {k: w for k, w in row.items() if w > TOL}


class _Rows:
    """The support reading shared by node maps and outcome maps."""

    rows: Mapping

    def supported_rows(self) -> dict:
        """Each mapped row (one with a nonempty support), cut to its support."""
        return {key: s for key, row in self.rows.items() if (s := support(row))}

    def images(self) -> dict | None:
        """Each mapped key's one supported entry when the map is
        deterministic (every mapped row has exactly one), else None."""
        rows = self.supported_rows()
        if any(len(s) != 1 for s in rows.values()):
            return None
        return {key: next(iter(s)) for key, s in rows.items()}


@dataclass
class StructuralMap(_Rows):
    """The node layer plus an optional morphism layer.

    `rows[u][x]` is the weight with which source node u maps onto target
    node x; a present row sums to one, and only its support is read.
    `edge_map` sends source paths to target paths, each a tuple of node
    names (`freecat`), and may be partial; `None` means no morphism layer
    was declared at all.
    `pairing` names each source node's nominal counterpart, which tells an
    identity from a permutation; `None` pairs the k-th source and target
    names in sorted order, whatever order the models declare them in.
    """

    rows: dict[str, dict[str, float]]
    edge_map: dict[tuple[str, ...], tuple[str, ...]] | None = None
    pairing: dict[str, str] | None = None


@dataclass
class OutcomeMap(_Rows):
    """One distributional matrix.

    For a per-variable map, `target` names a target variable and `sources`
    is its preimage block in the source model (canonical order); row values
    are 1-tuples over the target variable's domain.  For the global map,
    `target` is "*", `sources` lists every source variable, `onto` lists
    every target variable, and row values are full joint target outcomes.
    """

    target: str
    sources: tuple[str, ...]
    rows: dict[tuple, dict[tuple, float]]
    onto: tuple[str, ...] = ()

    @property
    def is_global(self) -> bool:
        return self.target == GLOBAL


@dataclass
class Abstraction:
    """A named two-layer map between two models (referenced by name)."""

    name: str
    source_ref: str
    target_ref: str
    direction: Direction
    structure: StructuralMap
    outcome_maps: list[OutcomeMap] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Preimage blocks
# ---------------------------------------------------------------------------

def _blocks(images: Mapping[str, str], source_model: Scm) -> dict[str, tuple[str, ...]]:
    """The preimage block of each target node that a deterministic node map's
    `images` hit, in the source model's canonical variable order."""
    blocks: dict[str, list[str]] = {}
    for v in source_model.variable_names:
        if v in images:
            blocks.setdefault(images[v], []).append(v)
    return {x: tuple(vs) for x, vs in blocks.items()}


def preimage(abstraction: Abstraction, source_model: Scm, target_node: str) -> tuple[str, ...]:
    """Source nodes mapped (deterministically) onto the target node.

    Only defined for deterministic node maps; the result follows the source
    model's canonical variable order.
    """
    images = abstraction.structure.images()
    if images is None:
        raise ModelError("preimage requires a deterministic node map")
    return _blocks(images, source_model).get(target_node, ())


def is_node_tuple(path) -> bool:
    """Whether `path` has the shape of a path: a tuple of node names."""
    return isinstance(path, tuple) and set(map(type, path)) <= {str}


def edge_map_non_paths(edge_map: Mapping, source: Scm, target: Scm) -> tuple[set, set]:
    """The keys of `edge_map` that are not source paths, and those whose
    images are not target paths: each side is tested at once, and entry by
    entry only when that test fails.  Here only a node tuple is a path."""
    def bad(graph: Dag, paths) -> set:
        if set(map(type, paths)) <= {tuple} and freecat.are_paths(graph, paths):
            return set()
        return {m for m, p in zip(edge_map, paths)
                if not (is_node_tuple(p) and freecat.is_path(graph, p))}
    return (bad(underlying_graph(source), edge_map),
            bad(underlying_graph(target), edge_map.values()))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_abstraction(
    abstraction: Abstraction, source: Scm, target: Scm
) -> ValidationReport:
    """Check shape-level well-formedness of both layers.

    Property violations (non-surjectivity, broken functoriality, ...) are
    audit findings, not validation errors; validation only rejects maps that
    are not well-typed: unknown nodes, rows that do not normalise, morphism
    entries that are not paths, outcome blocks that do not match preimages.
    Outcome keys and row values are checked with the range rule
    (`scm.out_of_range`): a tuple with one value per variable of the block
    (or of the target scope), each in its variable's domain.  No product of
    the domains is listed.
    """
    report = ValidationReport()
    sm = abstraction.structure
    images = sm.images()
    blocks = None if images is None else _blocks(images, source)
    src_nodes = underlying_graph(source).node_set
    tgt_nodes = underlying_graph(target).node_set

    for u, row in sm.rows.items():
        if u not in src_nodes:
            report.add("map-unknown-source", f"node row for unknown source node {u}")
        total = 0.0
        for x, w in row.items():
            if x not in tgt_nodes:
                report.add("map-unknown-target", f"row {u} hits unknown target node {x}")
            if w < -TOL:
                report.add("map-negative", f"negative weight {w} in row {u}")
            total += w
        if not abs(total - 1.0) <= TOL:  # also fails a NaN total
            report.add("map-row-total", f"row {u} sums to {total!r}, not 1")

    if sm.pairing is not None:
        for u, x in sm.pairing.items():
            if u not in src_nodes or x not in tgt_nodes:
                report.add("pair-unknown", f"pairing {u} ~ {x} names unknown nodes")

    if sm.edge_map is not None:
        if blocks is None:
            report.add(
                "edge-map-stochastic",
                "a morphism layer requires a deterministic node map",
            )
        src_bad, tgt_bad = edge_map_non_paths(sm.edge_map, source, target)
        for m, n in sm.edge_map.items() if src_bad or tgt_bad else ():
            for side, path, bad in (("source", m, src_bad), ("target", n, tgt_bad)):
                if m in bad:
                    words = "^".join(path) or "()" if is_node_tuple(path) else repr(path)
                    report.add(f"edge-map-{side}",
                               f"{words} is not a morphism of the {side} graph")

    seen_targets: set[str] = set()
    has_global = any(om.is_global for om in abstraction.outcome_maps)
    for om in abstraction.outcome_maps:
        if om.target in seen_targets:
            report.add("outcome-duplicate", f"two outcome maps for {om.target}")
        seen_targets.add(om.target)
        if om.is_global:
            scoped = tuple(om.sources) == source.variable_names
            if not scoped:
                report.add("outcome-global-scope",
                           "the global outcome map must read every source variable")
            if tuple(om.onto) != target.variable_names:
                report.add("outcome-global-onto", _ONTO)
            if not scoped:
                continue  # its keys may name variables the source lacks
            tgt_scope: tuple[str, ...] = target.variable_names
        else:
            if has_global:
                report.add(
                    "outcome-mixed",
                    "per-variable outcome maps cannot be mixed with a global one",
                )
            if om.target not in tgt_nodes:
                report.add(
                    "outcome-unknown-target", f"outcome map for unknown variable {om.target}"
                )
                continue
            if blocks is None:
                report.add(
                    "outcome-stochastic-nodes",
                    f"outcome map for {om.target} needs a deterministic node map "
                    "(use a global map instead)",
                )
                continue
            block = blocks.get(om.target, ())
            if tuple(om.sources) != block:
                report.add(
                    "outcome-block",
                    f"outcome map for {om.target} reads {'/'.join(om.sources) or '()'} "
                    f"but the preimage block is {'/'.join(block) or '()'}",
                )
                continue
            tgt_scope = (om.target,)

        stray_keys = set(out_of_range(om.rows, [source.domain_of(v) for v in om.sources]))
        stray_values = set(out_of_range({val for row in om.rows.values() for val in row},
                                        [target.domain_of(v) for v in tgt_scope]))
        for key, row in om.rows.items():
            if key in stray_keys:
                report.add(
                    "outcome-key", f"outcome row {key!r} for {om.target} is out of range"
                )
            total = 0.0
            for val, w in row.items():
                if val in stray_values:
                    report.add("outcome-range", _RANGE.format(key, om.target, val))
                if w < -TOL:
                    report.add(
                        "outcome-negative", f"negative weight {w} in outcome row {key!r}"
                    )
                total += w
            if not (abs(total - 1.0) <= TOL or abs(total) <= TOL):
                report.add(
                    "outcome-row-total",
                    f"outcome row {key!r} for {om.target} sums to {total!r} "
                    "(must be 1, or 0 for an unmapped outcome)",
                )
    return report


# ---------------------------------------------------------------------------
# Pushforward
# ---------------------------------------------------------------------------

def _repeated(column: list, times: list[int]) -> list:
    """Each entry of `column` as many times in a row as `times` says."""
    return list(chain.from_iterable(map(repeat, column, times)))


def _walk(mass: list[float], pending: list[list], single: list[bool]) -> list[list]:
    """The mass column and one value column per map, over the cells of the
    outcomes in `mass` in `itertools.product` order; `pending` holds, per
    map, the cells of the row each outcome picks.  A map whose rows all hold
    one cell (`single`, decided once per map over every outcome) appends its
    values and multiplies the mass by its weights; any other map first
    repeats every column, and the cells of the maps still to walk, once per
    cell of the row each outcome picks, or drops the outcome."""
    columns = [mass]
    while pending:
        (picks, *pending), (one, *single) = pending, single
        if one:
            cells = list(map(itemgetter(0), picks))
        else:
            times = list(map(len, picks))
            columns = [_repeated(column, times) for column in columns]
            pending = [_repeated(later, times) for later in pending]
            cells = list(chain.from_iterable(picks))
        columns[0] = list(map(mul, columns[0], map(itemgetter(1), cells)))
        columns.append(list(map(itemgetter(0), cells)))
    return columns


def pushforward(
    abstraction: Abstraction,
    dist: Distribution,
    source: Scm,
    target: Scm,
    renormalize: bool = False,
) -> Distribution:
    """Push a source joint distribution through the distributional layer.

    With per-variable outcome maps, each target variable reads the marginal
    pattern of its preimage block and the results multiply; unmapped source
    variables are marginalised out.  With a global map the full joint is
    rewritten row by row.  Each map's key column (its sources' values at
    every supported outcome) looks up its supported rows, read once as
    (value, weight) cells: a per-variable map's value is its one label, the
    global map's the whole target outcome, and one outside the target
    domain raises ModelError in `validate`'s `outcome-range` words.  The
    maps are walked in order on columns (`_walk`), so the cells come in
    `itertools.product` order, the weights multiplied left to right, a run
    of outcomes at a time: as many as hold `_WALK` cells, or one.  Mass
    landing on unmapped (empty) rows is lost; that raises an error unless
    `renormalize` is set, in which case the remaining mass is scaled back
    to one.  Raises, before the walk, ModelError on an outcome of `dist`
    that is not one value per scope variable (`scm.refuse_misshapen`), and
    CapacityError when the cells it would walk (per outcome, the product of
    its rows' support sizes, taken once per map) exceed the joint's cap
    (`errors.check_cap`: 5 x 10^6 or `ABSAUDIT_ENUM_CAP`).
    """
    if dist.scope != source.variable_names:
        raise ModelError("the distribution scope must match the source model")
    if not abstraction.outcome_maps:
        raise ModelError(
            f"abstraction {abstraction.name!r} has no distributional layer"
        )

    out_scope = target.variable_names
    out_domains = tuple(v.domain for v in target.variables)
    by_target = {om.target: om for om in reversed(abstraction.outcome_maps)}  # first wins
    maps = [by_target[GLOBAL]] if GLOBAL in by_target else list(map(by_target.get, out_scope))
    if None in maps:
        raise ModelError(f"no outcome map for target variable {out_scope[maps.index(None)]}")
    refuse_misshapen(dist)
    outcomes = [outcome for outcome, p in dist.probs.items() if p != 0.0]
    mass = [p for p in dist.probs.values() if p != 0.0]
    places = dict(zip(dist.scope, zip(*outcomes) if outcomes else repeat(())))
    pending = []  # per map, the cells of the row each outcome picks, or ()
    for om in maps:
        if unknown := set(om.sources).difference(dist.scope):
            raise ModelError(f"outcome map for {om.target} reads unknown variable {min(unknown)!r}")
        if om.is_global and tuple(om.onto) != out_scope:  # its values would be mislabelled
            raise ModelError(_ONTO)
        rows = om.supported_rows()
        scope = out_domains if om.is_global else [target.domain_of(om.target)]
        if stray := out_of_range(dict.fromkeys(chain.from_iterable(rows.values())), scope):
            key = next(key for key, row in rows.items() if stray[0] in row)
            raise ModelError(_RANGE.format(key, om.target, stray[0]))
        by_key = {key: tuple(row.items()) if om.is_global
                  else tuple(zip(map(itemgetter(0), row), row.values()))
                  for key, row in rows.items()}
        keys = rows_of([places[s] for s in om.sources], len(outcomes))
        pending.append(list(map(by_key.get, keys, repeat(()))))
    del outcomes, places  # the walk reads only the picked cells
    single, counts = [], [1] * len(mass)  # whether each map picks one cell a row; cells per outcome
    for times in (list(map(len, picks)) for picks in pending):
        single.append(times.count(1) == len(times))
        counts = counts if single[-1] else list(map(mul, counts, times))
    count = sum(counts)
    check_cap(count, DEFAULT_EXO_CAP,
              f"pushforward through {abstraction.name!r} walks {count} outcome cells")
    step = max(1, _WALK // (max(counts, default=0) or 1))  # outcomes walked at once
    probs: dict[tuple, float] = {}
    for at in range(0, len(mass), step):
        part, *walked = _walk(mass[at:at + step], [picks[at:at + step] for picks in pending],
                              single)
        for k, p in zip(walked[0] if GLOBAL in by_target else rows_of(walked, len(part)), part):
            probs[k] = probs.get(k, 0.0) + p

    total = sum(probs.values())
    if abs(total - dist.total) > TOL:
        if not renormalize:
            raise RenormalizationRequiredError(
                "renormalization required: the outcome layer is partial and "
                f"drops probability mass ({dist.total - total:.12g} lost)"
            )
        if total <= TOL:
            raise ModelError("the pushforward has no mass left to renormalize")
        probs = {k: v / total for k, v in probs.items()}
    return Distribution(scope=out_scope, domains=out_domains, probs=probs)
