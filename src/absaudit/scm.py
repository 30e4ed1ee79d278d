"""Finite structural causal models over discrete domains.

A model is a tuple of endogenous variables, exogenous variables, total
mechanism tables and a joint exogenous probability table.  Design choices:

* every endogenous variable has exactly one exogenous variable attached;
* exogenous variables need not be independent — their joint distribution is
  an explicit table;
* all domains are finite and explicit, so the joint endogenous distribution
  is computed exactly, by walking the support of the exogenous table in
  row-major order: the joint one column per variable, the kernels from the
  noise terms' marginals, their independence shown by one test of the
  whole table, or else term by term.  The dense product of the exogenous
  domains is stepped through only alongside the table, and only while the
  table's keys are its tuples in order, which gives their ranks without a
  lookup;
* the canonical variable order is declaration order, and joint tables are
  indexed row-major over that order.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, partial, reduce
from operator import add, contains, getitem, is_, itemgetter, lt, ne, sub
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import TOL, DEFAULT_EXO_CAP, KernelUndefinedError, ModelError, check_cap

Value = object  # outcome labels: strings or small integers


def row_major(table: Mapping[tuple, object], domains: Sequence[Sequence]) -> tuple[tuple, ...]:
    """The entries of `table` whose keys lie in `domains`, in row-major
    order (the order of `itertools.product(*domains)`), as three columns:
    `(ranks, keys, values)`.

    A key's rank is its position in that product: the sum over places j of
    the index of `key[j]` in `domains[j]` times the joint values of the
    places after j.  The leading run of keys that equal the product's tuple
    at their position is ranked by position, stepping through the product
    and the table side by side up to the first mismatch (none when a domain
    repeats a value, whose rank is its last index); each key after the run
    is ranked on its own, and the entries are sorted on rank only when one
    of them is kept.  Keys come as stored."""
    offsets, stride = [], 1
    for d in reversed(domains):
        offsets.insert(0, {x: i * stride for i, x in enumerate(d)})
        stride *= len(d)
    distinct = list(map(len, offsets)) == list(map(len, domains))
    steps = map(ne, table, itertools.product(*domains)) if distinct else ()
    run = next(itertools.compress(itertools.count(), itertools.chain(steps, [True])))
    ranks = list(range(run))
    keys, values = (list(itertools.islice(column, run)) for column in (table, table.values()))
    for key, value in itertools.islice(table.items(), run, None):
        if isinstance(key, tuple) and len(key) == len(offsets):
            try:
                ranks.append(sum(map(getitem, offsets, key)))
            except KeyError:  # a value outside its domain
                continue
            keys.append(key)
            values.append(value)
    if len(ranks) == run:
        return tuple(ranks), tuple(keys), tuple(values)
    order = sorted(range(len(ranks)), key=ranks.__getitem__)
    return tuple(tuple(map(column.__getitem__, order)) for column in (ranks, keys, values))


def out_of_range(keys: Collection, domains: Sequence[Iterable]) -> list:
    """The keys, in order, that break the range rule: a key is in range when
    it is a tuple with one value per domain, each in its own domain, so the
    keys in range number the product of the distinct domain sizes.  Tested a
    column at a time in C, and key by key only when a column fails."""
    places = [set(d) for d in domains]
    if (set(map(type, keys)) <= {tuple} and set(map(len, keys)) <= {len(places)}
            and all(map(set.issuperset, places, zip(*keys)))):
        return []
    return [k for k in keys if not (isinstance(k, tuple) and len(k) == len(places)
                                    and all(map(contains, places, k)))]


def rows_of(columns: Sequence[Iterable], count: int) -> Iterator[tuple]:
    """The rows of `columns`, each column `count` long, as tuples; `count`
    empty rows when there is no column."""
    return zip(*columns) if columns else itertools.repeat((), count)


# The words of the validation issues that the walks also raise, by code.
_WORDS = {
    "missing-mechanism": "no mechanism for {}",
    "mechanism-gap": "mechanism for {} misses input {}",
    "mechanism-range": "mechanism for {} maps {} outside the domain: {!r}",
    "mechanism-extra": "mechanism for {} has stray input {}",
    "dist-key": "exogenous table key {!r} is out of range",
    "dist-negative": "negative probability {} at {!r}",
    "dist-total": "exogenous table sums to {!r}, not 1",
}


@dataclass(frozen=True)
class Variable:
    """An endogenous variable: name, ordered finite domain, parents, exo term."""

    name: str
    domain: tuple[Value, ...]
    parents: tuple[str, ...]
    exogenous: str


@dataclass(frozen=True)
class Exogenous:
    """An exogenous variable attached to one endogenous variable."""

    name: str
    domain: tuple[Value, ...]
    endogenous: str


class _Index(NamedTuple):
    """A model's names, the first declaration of a name winning, its graph,
    and its graph faults: `validate`'s issues that read neither `mechanisms`
    nor `exo_table`, in `validate`'s order and words."""

    by_name: dict[str, Variable]
    exo_by_name: dict[str, tuple[int, Exogenous]]  # name -> (position, term)
    names: tuple[str, ...]
    dag: Dag
    faults: tuple[ValidationIssue, ...]


@dataclass
class Scm:
    """A finite structural causal model.

    `mechanisms[v]` maps (parent values in declared parent order) + (exogenous
    value) — one flat tuple — to the produced value.  `exo_table` is sparse:
    missing joint exogenous assignments have probability zero.  `variables`
    and `exogenous` are stored as tuples, and setting either drops the name
    index, which holds the model's one `Dag`, so lookups never go stale.
    """

    name: str
    variables: tuple[Variable, ...]
    exogenous: tuple[Exogenous, ...]
    mechanisms: dict[str, dict[tuple, Value]]
    exo_table: dict[tuple, float]
    # [exogenous, table keys, table values, factors, (ranked table, domains) or None]
    # of the last noise table tested (`Scm._tested`)
    _factors: list | None = field(default=None, init=False, repr=False, compare=False)

    def __setattr__(self, attr: str, value) -> None:
        if attr in ("variables", "exogenous"):
            value = tuple(value)
            self.__dict__.pop("_index", None)
        object.__setattr__(self, attr, value)

    def ranked_noise(self) -> tuple[tuple, ...]:
        """`row_major` of `exo_table` over the exogenous domains.  Raises
        ModelError, in `validate`'s words, on the first key out of range,
        which the ranking would drop."""
        table = self.exo_table
        ranked = row_major(table, domains := [u.domain for u in self.exogenous])
        if len(ranked[0]) < len(table):  # a key out of range
            raise ModelError(_WORDS["dist-key"].format(out_of_range(table, domains)[0]))
        return ranked

    def noise_factors(self) -> list[dict | None]:
        """Each exogenous term's marginal by value, or None where the term
        is not independent of the others: one test of the whole table
        (`_product_marginals`) clears every term, or else each term is
        tested alone (`_factor`).  Kept, each test run once, for as long
        as the table holds the same key and value objects in the same
        order and `exogenous` is not set again.  Raises ModelError, in
        `validate`'s words, on the model's first graph fault, then on a
        `dist-key`, `dist-negative` (the first in table order) or
        `dist-total` issue, in that order."""
        return self._tested(range(len(self.exogenous)))

    def _tested(self, terms: Iterable[int]) -> list:
        """The kept list of `noise_factors`, after the per-term test of each
        of `terms` that the whole-table test left untested has run; a term
        not yet tested holds `...`."""
        _checked_index(self)
        table = self.exo_table
        kept = self._factors
        if not (kept and kept[0] is self.exogenous and len(kept[1]) == len(table)
                and all(map(is_, kept[1], table)) and all(map(is_, kept[2], table.values()))):
            ranked = self.ranked_noise()
            _refuse_negative(table)
            if not abs((total := sum(table.values())) - 1.0) <= TOL:  # as `validate_scm`
                raise ModelError(_WORDS["dist-total"].format(total))
            domains = [u.domain for u in self.exogenous]
            factors = _product_marginals(ranked[2], domains)
            kept = self._factors = [self.exogenous, tuple(table), tuple(table.values()),
                                    factors or [...] * len(domains), (ranked, domains)]
        factors = kept[3]
        for i in terms:
            if factors[i] is ...:
                factors[i] = _factor(*kept[4], i)
        if ... not in factors:
            kept[4] = None  # the ranked table is kept only while a term is untested
        return factors

    # -- lookups ----------------------------------------------------------

    @cached_property
    def _index(self) -> _Index:
        """Built on the first lookup after `variables` or `exogenous` is set."""
        names = tuple(v.name for v in self.variables)
        dag = Dag(names, tuple((p, v.name) for v in self.variables for p in v.parents))
        by_name = {v.name: v for v in reversed(self.variables)}
        exo_by_name = {u.name: (i, u) for i, u in reversed(tuple(enumerate(self.exogenous)))}
        return _Index(by_name, exo_by_name, names, dag,
                      tuple(_faults(self, by_name, exo_by_name, dag)))

    def variable(self, name: str) -> Variable:
        v = self._index.by_name.get(name)
        if v is None:
            raise ModelError(f"unknown variable {name!r} in model {self.name!r}")
        return v

    def exogenous_variable(self, name: str) -> Exogenous:
        entry = self._index.exo_by_name.get(name)
        if entry is None:
            raise ModelError(f"unknown exogenous variable {name!r} in model {self.name!r}")
        return entry[1]

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self._index.names

    @property
    def exogenous_names(self) -> tuple[str, ...]:
        return tuple(u.name for u in self.exogenous)

    def domain_of(self, name: str) -> tuple[Value, ...]:
        return self.variable(name).domain


@dataclass(frozen=True)
class Dag:
    """A directed acyclic graph with a fixed node order; lookups are cached."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @cached_property
    def node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def _successors(self) -> dict[str, tuple[str, ...]]:
        """Successors along the edges whose endpoints are both nodes."""
        out: dict[str, list[str]] = {}
        for u, v in self.edges:
            if u in self.node_set and v in self.node_set:
                out.setdefault(u, []).append(v)
        return {u: tuple(vs) for u, vs in out.items()}

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        """The nodes layer by layer, each layer sorted; ModelError on a cycle."""
        waiting = dict.fromkeys(self.nodes, 0)
        for vs in self._successors.values():
            for v in vs:
                waiting[v] += 1
        order: list[str] = []
        layer = sorted(n for n, k in waiting.items() if k == 0)
        while layer:
            order += layer
            ready = []
            for u in layer:
                for v in self.successors(u):
                    waiting[v] -= 1
                    if waiting[v] == 0:
                        ready.append(v)
            layer = sorted(ready)
        if len(order) < len(waiting):
            raise ModelError("the graph has a cycle")
        return tuple(order)

    @cached_property
    def opposite(self) -> "Dag":
        return Dag(self.nodes, tuple((v, u) for u, v in self.edges))

    def successors(self, node: str) -> tuple[str, ...]:
        return self._successors.get(node, ())


@dataclass(frozen=True)
class ValidationIssue:
    """One validation finding: a stable code plus a human-readable message."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


@dataclass
class ValidationReport:
    """The outcome of validating a model or an abstraction."""

    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, message))


@dataclass
class Distribution:
    """A probability table over a tuple of variables (canonical order).

    `probs` is sparse over joint outcomes; missing outcomes have weight zero.
    """

    scope: tuple[str, ...]
    domains: tuple[tuple[Value, ...], ...]
    probs: dict[tuple, float]

    def prob(self, outcome: tuple) -> float:
        return self.probs.get(tuple(outcome), 0.0)

    @property
    def total(self) -> float:
        return sum(self.probs.values())


@dataclass(frozen=True)
class Kernel:
    """A Markov kernel for one variable: rows over joint parent values."""

    variable: str
    row_scope: tuple[str, ...]
    row_domains: tuple[tuple[Value, ...], ...]
    column_domain: tuple[Value, ...]
    rows: Mapping[tuple, Mapping[Value, float]]


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _faults(model: Scm, by_name: dict, exo_by_name: dict, dag: Dag) -> Iterator[ValidationIssue]:
    """The graph faults of `model`, in `validate`'s order: repeated and shared
    names, then each variable's domain, parents and exo term, each exo term's
    domain and variable, each variable's attachment, and a cycle.  A variable
    whose parents are all declared above it, its name not among them, has no
    parent fault; when every variable does, declaration order is a
    topological order, so only a model that breaks it is ordered again."""
    if len(by_name) != len(model.variables):
        yield ValidationIssue("dup-variable", "duplicate endogenous variable names")
    if len(exo_by_name) != len(model.exogenous):
        yield ValidationIssue("dup-exogenous", "duplicate exogenous variable names")
    if overlap := by_name.keys() & exo_by_name.keys():
        yield ValidationIssue("name-overlap", f"names used both ways: {', '.join(sorted(overlap))}")

    above, ordered = set(), True
    for v in model.variables:
        if not v.domain:
            yield ValidationIssue("empty-domain", f"variable {v.name} has an empty domain")
        if len(set(v.domain)) != len(v.domain):
            yield ValidationIssue("dup-outcome", f"variable {v.name} repeats a domain value")
        if v.name in above or not above.issuperset(v.parents):
            ordered = False
            for p in v.parents:
                if p not in by_name:
                    yield ValidationIssue("unknown-parent", f"{v.name} lists unknown parent {p}")
            if v.name in v.parents:
                yield ValidationIssue("self-parent", f"{v.name} lists itself as a parent")
        above.add(v.name)
        if v.exogenous not in exo_by_name:  # "" when no `exo` line names the variable
            yield ValidationIssue("unknown-exogenous", f"{v.name} has no exo term" if not v.exogenous
                                  else f"{v.name} references unknown exogenous {v.exogenous}")

    attached: dict[str, list[str]] = {}
    for u in model.exogenous:
        if not u.domain:
            yield ValidationIssue("empty-domain", f"exogenous {u.name} has an empty domain")
        if len(set(u.domain)) != len(u.domain):
            yield ValidationIssue("dup-outcome", f"exogenous {u.name} repeats a domain value")
        if u.endogenous not in by_name:
            yield ValidationIssue("unknown-variable",
                                  f"exogenous {u.name} attached to unknown {u.endogenous}")
        attached.setdefault(u.endogenous, []).append(u.name)
    for v in model.variables:
        if attached.get(v.name, []) != [v.exogenous]:
            yield ValidationIssue("exogenous-attachment",
                                  f"{v.name} must have exactly one attached exogenous variable")

    if not ordered:
        try:
            dag.topological_order
        except ModelError:
            yield ValidationIssue("cyclic", "the parent relation has a cycle")


def _checked_index(model: Scm) -> _Index:
    """`model`'s name index; raises ModelError with its first graph fault."""
    index = model._index
    if index.faults:
        raise ModelError(index.faults[0].message)
    return index


def validate_scm(model: Scm) -> ValidationReport:
    """Check well-formedness: the graph faults of the name index (names,
    domains, parents, exo terms, acyclicity), then mechanisms and P(U).

    Mechanism inputs and noise keys are tested with `out_of_range`, never
    listed: a mechanism's gaps number the product of its input domain sizes
    less its inputs in range, and one `mechanism-gap` issue names the first
    missing input in row-major order and how many more there are."""
    by_name, exo_by_name, _, _, faults = model._index
    report = ValidationReport(list(faults))

    # Mechanism totality: exactly one row per (parent values, exo value),
    # counted: the inputs in range against the product of the domain sizes.
    for v in model.variables:
        table = model.mechanisms.get(v.name)
        if table is None:
            report.add("missing-mechanism", _WORDS["missing-mechanism"].format(v.name))
            continue
        if any(p not in by_name for p in v.parents) or v.exogenous not in exo_by_name:
            continue  # already reported above
        inputs = [by_name[p].domain for p in v.parents] + [exo_by_name[v.exogenous][1].domain]
        extra = sorted(out_of_range(table, inputs), key=repr)
        gaps = math.prod(len(set(d)) for d in inputs) - (len(table) - len(extra))
        if gaps:
            first = next(k for k in itertools.product(*map(dict.fromkeys, inputs))
                         if k not in table)
            more = f" (and {gaps - 1} more)" if gaps > 1 else ""
            report.add("mechanism-gap", _WORDS["mechanism-gap"].format(v.name, first) + more)
        for key in extra:
            report.add("mechanism-extra", _WORDS["mechanism-extra"].format(v.name, key))
        for words in _strays(v, table):
            report.add("mechanism-range", words)

    # Joint exogenous table: each key by the range rule, entry by entry only
    # when a key is out of range or a weight below -TOL.
    strays = set(out_of_range(model.exo_table, [u.domain for u in model.exogenous]))
    below = map(lt, model.exo_table.values(), itertools.repeat(-TOL))
    for combo, p in model.exo_table.items() if strays or any(below) else ():
        if combo in strays:
            report.add("dist-key", _WORDS["dist-key"].format(combo))
        if p < -TOL:
            report.add("dist-negative", _WORDS["dist-negative"].format(p, combo))
    if not abs((total := sum(model.exo_table.values())) - 1.0) <= TOL:  # also fails a NaN total
        report.add("dist-total", _WORDS["dist-total"].format(total))

    return report


def _refuse_negative(table: Mapping[tuple, float]) -> None:
    """Raise ModelError, in `validate`'s words, at the first weight below -TOL in table order."""
    below = map(lt, table.values(), itertools.repeat(-TOL))  # as `validate_scm`
    if negative := next(itertools.compress(table.items(), below), None):
        raise ModelError(_WORDS["dist-negative"].format(*reversed(negative)))


def _strays(v: Variable, mechanism: Mapping[tuple, Value]) -> Iterator[str]:
    """The `mechanism-range` words of each row of `v`'s mechanism, in table
    order, whose value lies outside `v`'s domain."""
    return (_WORDS["mechanism-range"].format(v.name, key, out)
            for key, out in mechanism.items() if out not in v.domain)


def topological_order(model: Scm) -> tuple[str, ...]:
    """The variables layer by layer, each layer sorted; raises ModelError
    with the model's first graph fault."""
    return _checked_index(model).dag.topological_order


# ---------------------------------------------------------------------------
# Graph and interventions
# ---------------------------------------------------------------------------

def underlying_graph(model: Scm) -> Dag:
    """The DAG over endogenous variables (edges parent -> child): the one the
    model keeps until `variables` or `exogenous` is set again."""
    return model._index.dag


def intervene(model: Scm, assignments: Mapping[str, Value]) -> Scm:
    """Graph-surgery intervention do(X=x, ...).

    Each targeted variable gets a constant mechanism and loses its parents;
    its exogenous variable stays attached but is ignored by the new mechanism.
    An empty assignment returns an equal model.  Raises ModelError with the
    model's first graph fault, in `validate`'s words, before anything else.
    """
    by_name = _checked_index(model).by_name
    for name, value in assignments.items():
        if name not in by_name:
            raise ModelError(f"unknown variable {name!r} in intervention")
        if value not in by_name[name].domain:
            raise ModelError(
                f"value {value!r} is outside the domain of {name}"
            )
    new_vars = []
    new_mechs = {}
    for v in model.variables:
        if v.name in assignments:
            value = assignments[v.name]
            new_vars.append(replace(v, parents=()))
            new_mechs[v.name] = {
                (u,): value for u in model.exogenous_variable(v.exogenous).domain
            }
        elif v.name not in model.mechanisms:
            raise ModelError(_WORDS["missing-mechanism"].format(v.name))
        else:
            new_vars.append(v)
            new_mechs[v.name] = dict(model.mechanisms[v.name])
    return replace(model, variables=new_vars, mechanisms=new_mechs,
                   exo_table=dict(model.exo_table))


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def joint_distribution(model: Scm) -> Distribution:
    """Joint endogenous distribution by enumeration of the exogenous support.

    Walks the nonzero entries of `exo_table` in row-major order
    (`Scm.ranked_noise`) by columns: the entries' keys are transposed once
    into one noise column per term, and in topological order each
    variable's column holds its value at every entry, read from its
    mechanism with its parents' columns and its noise column, which is
    dropped then.  The outcomes zip the columns in
    declaration order and are summed in entry order, so every sum and the
    outcome order are those of a walk over the dense product of the domains.
    Raises, before any mechanism is read, ModelError in `validate`'s words on
    the model's first graph fault, then on a noise key out of range or a
    negative weight (a total other than 1 is summed as given), and
    CapacityError when the supported entries exceed the enumeration cap
    (`errors.check_cap`: 10^7 or `ABSAUDIT_ENUM_CAP`); then ModelError, in
    `validate`'s words, on a mechanism value outside its variable's domain
    (checked over the mechanism's rows before its column is built) or a
    mechanism gap."""
    index = _checked_index(model)
    _, keys, values = model.ranked_noise()
    _refuse_negative(model.exo_table)
    supported = list(map(ne, values, itertools.repeat(0.0)))
    combos, weights = (list(itertools.compress(c, supported)) for c in (keys, values))
    check_cap(len(weights), DEFAULT_EXO_CAP,
              f"exogenous table of {model.name!r} has {len(weights)} supported assignments")
    noise = dict(zip(model.exogenous_names, zip(*combos) if combos else itertools.repeat(())))
    del combos  # each noise column is dropped once its variable has read it
    columns: dict[str, list] = {}
    for v in map(index.by_name.__getitem__, index.dag.topological_order):
        inputs = [columns[q] for q in v.parents]
        inputs.append(noise.pop(v.exogenous))
        mechanism = model.mechanisms.get(v.name, {})
        for words in _strays(v, mechanism):  # no column holds a value outside its domain
            raise ModelError(words)
        try:
            columns[v.name] = list(map(mechanism.__getitem__, zip(*inputs)))
        except KeyError as miss:
            raise ModelError(_WORDS["mechanism-gap"].format(v.name, miss.args[0])) from None
    probs: dict[tuple, float] = {}
    outcomes = rows_of([columns[name] for name in index.names], len(weights))
    for p, outcome in zip(weights, outcomes):
        probs[outcome] = probs.get(outcome, 0.0) + p
    return Distribution(
        scope=index.names,
        domains=tuple(v.domain for v in model.variables),
        probs=probs,
    )


def mechanism_rows(model: Scm, v: Variable) -> Iterator[tuple[tuple, Value]]:
    """Each input of `v`'s mechanism (its parents' values, then its noise
    value) in row-major order, with the mechanism's value there, in a model
    whose graph faults were refused, so no domain repeats a value.  Raises
    ModelError, in `validate`'s words, at a missing input (`mechanism-gap`),
    and after the last input when the mechanism holds more rows than the
    inputs in range (its first `mechanism-extra` issue)."""
    mechanism = model.mechanisms.get(v.name, {})
    inputs = [*(model.variable(p).domain for p in v.parents),
              model.exogenous_variable(v.exogenous).domain]
    for key in itertools.product(*inputs):
        if key not in mechanism:
            raise ModelError(_WORDS["mechanism-gap"].format(v.name, key))
        yield key, mechanism[key]
    if len(mechanism) > math.prod(map(len, inputs)):  # a stray input
        stray = min(out_of_range(mechanism, inputs), key=repr)
        raise ModelError(_WORDS["mechanism-extra"].format(v.name, stray))


def refuse_misshapen(dist: Distribution) -> None:
    """Raise ModelError at the first outcome of `dist` that does not hold
    one value per variable of its scope."""
    if set(map(len, dist.probs)) - {len(dist.scope)}:
        bad = next(k for k in dist.probs if len(k) != len(dist.scope))
        raise ModelError(f"outcome {bad!r} has {len(bad)} values for a scope of "
                         f"{len(dist.scope)} variables")


def marginal(dist: Distribution, variables: Iterable[str]) -> Distribution:
    """Marginal over a subset of the scope, kept in canonical scope order;
    ModelError on an outcome that is not one value per scope variable."""
    wanted = set(variables)
    unknown = wanted - set(dist.scope)
    if unknown:
        raise ModelError(f"unknown variables in marginal: {sorted(unknown)}")
    refuse_misshapen(dist)
    keep = [i for i, name in enumerate(dist.scope) if name in wanted]
    probs: dict[tuple, float] = {}
    keys = rows_of([map(itemgetter(i), dist.probs) for i in keep], len(dist.probs))
    for key, p in zip(keys, dist.probs.values()):
        probs[key] = probs.get(key, 0.0) + p
    return Distribution(
        scope=tuple(dist.scope[i] for i in keep),
        domains=tuple(dist.domains[i] for i in keep),
        probs=probs,
    )


def _product_marginals(values: Sequence[float], domains: Sequence[Sequence]) -> list | None:
    """Each noise term's marginal by value, when the table of weights
    `values` in row-major order is dense, holds no negative weight and lies
    within ε (`mechanism_kernel`) of the product of its marginals; else
    None.  A term's j-th value picks runs of `stride` entries, one `block`
    apart, added from 0.0 in row-major order, in C."""
    if len(values) != (entries := math.prod(map(len, domains))) or not min(values) >= 0:
        return None
    stride, sums = entries, []
    for d in domains:
        block, stride = stride, stride // len(d)
        sums.append({x: _fold(itertools.compress(values, itertools.cycle(
                         [0] * (j * stride) + [1] * stride + [0] * (block - (j + 1) * stride))))
                     for j, x in enumerate(d)})
    product = [1.0]
    for own in reversed(sums):
        product = [w * q for w in own.values() for q in product]
    d = max(map(len, domains), default=0)
    a = max((abs(1.0 - sum(own.values())) for own in sums), default=0.0)
    eps = (TOL * (1 - 4 * TOL) - 1.001 * a - 5 * (len(sums) + d) * 2.0**-53) / (1 + d)
    return sums if max(map(abs, map(sub, values, product))) <= eps else None


# `sum` adds floats left to right up to Python 3.11, with compensation from 3.12 on
_fold = (partial(sum, start=0.0) if sys.version_info < (3, 12)
         else lambda column: reduce(add, column, 0.0))


def _factor(ranked: tuple[tuple, ...], domains: Sequence[Sequence], i: int) -> dict | None:
    """Noise term i's marginal by value, or None when the term is not
    independent of the others: P(u_i, rest) == P(u_i) * P(rest) within TOL
    at every pair, each entry once.  One pass over the ranked entries sums
    the term's marginal by value and the rest's by rank: the entry's rank
    less the term's offset.  A pair missing from the table weighs zero;
    only the rests that occur are paired (a rest that never occurs weighs
    zero)."""
    stride = math.prod(len(d) for d in domains[i + 1 :])
    offset = {x: j * stride for j, x in enumerate(domains[i])}  # as in the rank
    own: dict[Value, float] = dict.fromkeys(domains[i], 0.0)
    rest: dict[int, float] = {}
    for r, key, p in zip(*ranked):
        x = key[i]
        own[x] += p
        r -= offset[x]
        rest[r] = rest.get(r, 0.0) + p
    for r, key, p in zip(*ranked):
        x = key[i]
        if abs(p - own[x] * rest[r - offset[x]]) > TOL:
            return None
    if len(ranked[0]) < len(rest) * len(own):  # pairs are missing
        present = set(ranked[0])
        if any(abs(w * q) > TOL for r, q in rest.items() for val, w in own.items()
               if r + offset[val] not in present):
            return None
    return own


def mechanism_kernel(model: Scm, variable: str) -> Kernel:
    """The Markov kernel P(X | parents(X)) of one mechanism, each row the
    marginal of X's noise term (`Scm.noise_factors`) added up by the
    mechanism's value.  Raises ModelError, in `validate`'s words, on the
    model's first graph fault or noise table issue (as `noise_factors`);
    KernelUndefinedError when the term is not independent of the other
    noise terms; then ModelError on a `mechanism-range`, `mechanism-gap`
    or `mechanism-extra` issue.

    Independence is tested once for all terms: they are independent
    exactly when the table is the product Q of its marginals m_k.  A dense
    table with no negative weight and |p - Q| <= ε at every entry passes
    the per-term test (`_factor`) for every term, with d the largest
    domain, a the largest |1 - sum of m_k| as summed, and u = 2^-53:

        ε = (TOL (1 - 4 TOL) - 1.001 a - 5 (n + d) u) / (1 + d).

    Proof.  Take term i, an entry p at (x, y), x its value and y the rest;
    the per-term test sums r(y) over x and compares p with m_i(x) r(y).
    With the summed marginals taken as exact, M(y) the product of the
    others, T the exact sum of m_i, e = p - Q and E(y) the sum of e over x:
    Q = m_i(x) M(y), r(y) = M(y) T + E(y), so

        p - m_i(x) r(y) = Q (1 - T) + e - m_i(x) E(y),

    at most (1 + d) ε when T = 1.  Rounding, with γ_k = k u / (1 - k u):
    the product is Q within γ_(n-1) Q (underflow adds n 2^-1074), so
    |e| <= ε (1 + 2u) + γ_(n-1) Q; |1 - T| <= a + γ_d T; r(y) is summed from
    d weights within γ_d; the test's product and difference round twice.
    No weight is negative, so m_i(x) <= T and p, r(y) <= S, the total,
    within TOL of 1 as summed: S, Q and T stay below 1.001 for any table
    in memory.  The deviation the per-term test computes is then at most

        (1 + u) (1.001 a + (1 + d) ε (1 + 2u) + 2 TOL d ε + 4.1 γ_(n+d)),

    below TOL (1 - 2 TOL + 4u) < TOL.  Any other table, as when |1 - T| or
    rounding uses up ε, gets the per-term test of X's own term only, run
    once per table state however many kernels ask for it (`Scm._tested`).
    """
    index = _checked_index(model)
    v = model.variable(variable)
    i = index.exo_by_name[v.exogenous][0]
    own = model._tested([i])[i]
    if own is None:
        raise KernelUndefinedError("kernel undefined under exogenous dependence")
    for words in _strays(v, model.mechanisms.get(v.name, {})):
        raise ModelError(words)
    rows: dict[tuple, dict[Value, float]] = {}
    for key, value in mechanism_rows(model, v):
        rows.setdefault(key[:-1], dict.fromkeys(v.domain, 0.0))[value] += own[key[-1]]
    return Kernel(
        variable=variable,
        row_scope=v.parents,
        row_domains=tuple(model.variable(p).domain for p in v.parents),
        column_domain=v.domain,
        rows=rows,
    )
