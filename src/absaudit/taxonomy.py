"""A taxonomy of abstraction types and the property-admissibility matrices.

Each abstraction type has a canonical witness: a small self-contained
fixture (two models plus the map between them) shipped as package data.
Auditing every witness and folding the verdicts through the enforcement
conventions below reproduces the two admissibility matrices, which are also
shipped as ground-truth tables so the computation can be checked.

Enforcement conventions (how verdicts become matrix cells):

* the Functionality cell asks for a total *function*, so it combines the
  functional and deterministic verdicts;
* the Surjectivity/Injectivity cells presuppose a function and combine the
  Functionality cell with their verdict; Bijectivity is their conjunction;
* the Functoriality cell presupposes a function and a complete morphism
  layer: a missing or partial edge map is as inadmissible as a broken one;
* the Fullness/Faithfulness cells presuppose functoriality; the
  Faithfulness cell reads the hom-set-wise injectivity verdict
  (``faithful_parallel``); Fully Faithfulness is their conjunction;
* the last two rows flag modalities: they mark which single type *needs*
  a non-deterministic map or a reversed map, and are moot elsewhere;
* the reversal column is moot for property rows on the structural table and
  inadmissible on the distributional one (the layers treat a reversed map
  differently, and both tables keep their own convention).

The rows form three groups: the set-map rows (Functionality to Bijectivity,
read from a witness's node audit on the structural table and from its
outcome summary on the distributional one), on the structural table the
functor rows (Functoriality to Fully Faithfulness), and the two modality
rows.  In each of the first two groups every row presupposes the first and
the last is the conjunction of the two in between, so `_group` gives both.
One function, `_matrix`, computes both tables, a column per witness.

Type detection reads the node and outcome audits and `freecat.path_counts`
only: it runs no functor audit and lists no path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import groupby
from operator import itemgetter

from .abstraction import Abstraction, Direction
from .audit import PropertyProfile, audit_abstraction, audit_node_map
from .audit import audit_outcome_map, summarize_outcomes
from .errors import ModelError, ParseError
from .freecat import path_counts
from .scm import Scm, underlying_graph
from .textfmt import Document, _Lines, parse_document, read_text


class _Labelled(enum.Enum):
    """An abstraction type whose members carry their table column label."""

    def __new__(cls, value: str, label: str):
        member = object.__new__(cls)
        member._value_ = value
        member.label = label
        return member


class StructuralType(_Labelled):
    IDENTITY = "identity", "Identity"
    NODE_PERMUTATION = "node-permutation", "Node permutation"
    NODE_COARSENING = "node-coarsening", "Node coarsening"
    EDGE_COARSENING = "edge-coarsening", "Edge coarsening"
    NODE_EMBEDDING = "node-embedding", "Node embedding"
    EDGE_EMBEDDING = "edge-embedding", "Edge embedding"
    NODE_DROPPING = "node-dropping", "Node dropping"
    EDGE_DROPPING = "edge-dropping", "Edge dropping"
    CAUSAL_REVERSAL = "causal-reversal", "Causal reversal"
    CAUSAL_SPLITTING = "causal-splitting", "Causal splitting"
    ABSTRACTION_REVERSAL = "abstraction-reversal", "Abs. Reversal"


class DistributionalType(_Labelled):
    IDENTITY_OR_PERMUTATION = "identity-or-permutation", "Identity / Permutation"
    COARSENING = "coarsening", "Coarsening"
    EMBEDDING = "embedding", "Embedding"
    OUTCOME_DROPPING = "outcome-dropping", "Outcome dropping"
    OUTCOME_SPLITTING = "outcome-splitting", "Outcome splitting"
    ABSTRACTION_REVERSAL = "abstraction-reversal", "Abstraction reversal"


_SET_MAP_ROWS = ("Functionality", "Surjectivity", "Injectivity", "Bijectivity")
_FUNCTOR_ROWS = ("Functoriality", "Fullness", "Faithfulness", "Fully Faithfulness")
_MODALITY_ROWS = ("Non-Determinism", "Macro-to-micro")
STRUCTURAL_ROWS = _SET_MAP_ROWS + _FUNCTOR_ROWS + _MODALITY_ROWS
DISTRIBUTIONAL_ROWS = _SET_MAP_ROWS + _MODALITY_ROWS


class Admissibility(enum.Enum):
    ADMISSIBLE = "Y"
    DISALLOWED = "N"
    NOT_APPLICABLE = "-"

    @property
    def mark(self) -> str:
        return {"Y": "✓", "N": "×", "-": "−"}[self.value]

    @classmethod
    def from_letter(cls, letter: str) -> "Admissibility":
        for a in cls:
            if a.value == letter:
                return a
        raise ValueError(f"unknown admissibility letter {letter!r}")


def _admissible(flag: bool) -> Admissibility:
    return Admissibility.ADMISSIBLE if flag else Admissibility.DISALLOWED


def _modal(flag: bool) -> Admissibility:
    return Admissibility.ADMISSIBLE if flag else Admissibility.NOT_APPLICABLE


@dataclass
class PropertyMatrix:
    """A property-by-type admissibility table."""

    title: str
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    cells: dict[tuple[str, str], Admissibility]

    def cell(self, row: str, col: str) -> Admissibility:
        return self.cells[(row, col)]

    def diff(self, other: "PropertyMatrix") -> list[str]:
        """Human-readable list of differences (empty when equal)."""
        out = []
        if self.title != other.title:
            out.append(f"title: {self.title!r} vs {other.title!r}")
        if self.rows != other.rows:
            out.append("row labels differ")
        if self.cols != other.cols:
            out.append("column labels differ")
        if not out:
            for row in self.rows:
                for col in self.cols:
                    a, b = self.cells[(row, col)], other.cells[(row, col)]
                    if a != b:
                        out.append(f"({row}, {col}): {a.mark} vs {b.mark}")
        return out

    def to_tbl(self) -> str:
        lines = [f"absaudit-table {self.title}"]
        for col in self.cols:
            lines.append(f"col {col}")
        for row in self.rows:
            cells = " ".join(self.cells[(row, col)].value for col in self.cols)
            lines.append(f"row {row} : {cells}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tbl(cls, text: str) -> "PropertyMatrix":
        title = None
        cols: list[str] = []
        rows: list[str] = []
        cells: dict[tuple[str, str], Admissibility] = {}
        lines = _Lines(text)
        for head, *rest in lines.rows:
            if not rest or head not in ("absaudit-table", "col", "row"):
                raise lines.fail("expected 'absaudit-table', 'col' or 'row'")
            if head == "absaudit-table":
                title = " ".join(rest)
            elif head == "col":
                cols.append(" ".join(rest))
            else:
                i = rest.index(":") if ":" in rest else 0
                if not 0 < i < len(rest) - 1:
                    raise lines.fail("expected 'row LABEL : CELLS'")
                label, letters = " ".join(rest[:i]), rest[i + 1:]
                if len(letters) != len(cols):
                    raise lines.fail(f"expected {len(cols)} cells, found {len(letters)}")
                rows.append(label)
                for col, letter in zip(cols, letters):
                    try:
                        cells[(label, col)] = Admissibility.from_letter(letter)
                    except ValueError as exc:
                        raise lines.fail(str(exc)) from None
        if title is None:
            raise ParseError("missing 'absaudit-table' header", 1)
        return cls(title=title, rows=tuple(rows), cols=tuple(cols), cells=cells)

    def to_text(self) -> str:
        width = max(len(r) for r in self.rows) + 2
        abbrevs = [_abbrev(c) for c in self.cols]
        lines = [f"{self.title} admissibility"]
        lines.append(" " * width + "  ".join(f"{a:<3}" for a in abbrevs).rstrip())
        for row in self.rows:
            marks = "  ".join(
                f"{self.cells[(row, col)].mark:<3}" for col in self.cols
            ).rstrip()
            lines.append(f"{row:<{width}}{marks}")
        lines.append("")
        for col, abbrev in zip(self.cols, abbrevs):
            lines.append(f"  {abbrev} = {col}")
        return "\n".join(lines)


def _abbrev(label: str) -> str:
    words = [w for w in label.replace("/", " ").replace(".", " ").split() if w]
    if len(words) == 1:
        return words[0][:2]
    return "".join(w[0].upper() for w in words[:3])


# ---------------------------------------------------------------------------
# Shipped data
# ---------------------------------------------------------------------------

def data_text(*parts: str) -> str:
    """Read a shipped data file (models, witnesses, figures, tables)."""
    node = resources.files(__package__).joinpath("data")
    for part in parts:
        node = node.joinpath(part)
    return node.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _parsed_witness(kind: str, name: str) -> Document:
    return parse_document(data_text("witnesses", kind, f"{name}.abs"))


def witness_document(kind: str, name: str) -> Document:
    """A new document over the cached parse of a witness file: adding to it changes no other."""
    parsed = _parsed_witness(kind, name)
    return Document(dict(parsed.models), dict(parsed.abstractions))


def canonical_witness(
    abstraction_type: "StructuralType | DistributionalType",
) -> tuple[Abstraction, Scm, Scm]:
    """The shipped witness for a type: (abstraction, source, target)."""
    kind = "structural" if isinstance(abstraction_type, StructuralType) else "distributional"
    doc = witness_document(kind, abstraction_type.value)
    if len(doc.abstractions) != 1:
        raise ModelError(
            f"witness file for {abstraction_type.value} must hold one abstraction"
        )
    abstraction = next(iter(doc.abstractions.values()))
    source, target = doc.resolve(abstraction)
    return abstraction, source, target


def witness_profile(
    abstraction_type: "StructuralType | DistributionalType",
) -> PropertyProfile:
    abstraction, source, target = canonical_witness(abstraction_type)
    return audit_abstraction(abstraction, source, target)


# ---------------------------------------------------------------------------
# Matrix computation
# ---------------------------------------------------------------------------

def _group(first: bool, left: bool, right: bool) -> list[bool]:
    """A row group's four cells: its first, which the other three presuppose,
    the two verdicts in between, and their conjunction."""
    return [first, first and left, first and right, first and left and right]


def _property_cells(profile: PropertyProfile, structural: bool) -> list[bool]:
    """A witness's property rows: the set-map group of its node audit, then
    the functor group, which presupposes Functionality; or the set-map group
    of its outcome summary."""
    audit = profile.node if structural else profile.outcome_summary
    if audit is None:
        raise ModelError("a distributional witness needs an outcome layer")
    cells = _group(audit.functional and audit.deterministic, audit.surjective,
                   audit.injective is True)
    if structural:
        f = profile.functor
        cells += _group(cells[0] and f.functorial is True, f.full is True,
                        f.faithful_parallel is True)
    return cells


def _matrix(types, rows: tuple[str, ...], reversal: Admissibility) -> PropertyMatrix:
    """The table of the type enum `types` from their witnesses: a column per
    type, headed by its label; `reversal` on the property rows of the
    reversal column; the two modality rows last."""
    structural = types is StructuralType
    cells: dict[tuple[str, str], Admissibility] = {}
    cols = []
    for t in types:
        profile, label = witness_profile(t), t.label
        flags = _property_cells(profile, structural)
        if t is types.ABSTRACTION_REVERSAL:
            column = [reversal] * len(flags)
        else:
            column = list(map(_admissible, flags))
        column += [_modal(profile.modalities.non_deterministic),
                   _modal(profile.modalities.macro_to_micro)]
        cols.append(label)
        for row, cell in zip(rows, column, strict=True):
            cells[(row, label)] = cell
    title = "structural" if structural else "distributional"
    return PropertyMatrix(title, rows, tuple(cols), cells)


def structural_matrix() -> PropertyMatrix:
    """Recompute the structural table from the shipped witnesses."""
    return _matrix(StructuralType, STRUCTURAL_ROWS, Admissibility.NOT_APPLICABLE)


def distributional_matrix() -> PropertyMatrix:
    """Recompute the distributional table from the shipped witnesses."""
    return _matrix(DistributionalType, DISTRIBUTIONAL_ROWS, Admissibility.DISALLOWED)


def shipped_table(which: str) -> PropertyMatrix:
    """The ground-truth table shipped as package data."""
    if which not in ("structural", "distributional"):
        raise ModelError(f"unknown table {which!r}")
    return PropertyMatrix.from_tbl(data_text("tables", f"{which}.tbl"))


def load_table(path) -> PropertyMatrix:
    return PropertyMatrix.from_tbl(read_text(path))


# ---------------------------------------------------------------------------
# Type detection
# ---------------------------------------------------------------------------

def _shape(audit, forward: bool) -> str | None:
    """The shape of a set-map audit: "reversal" for a map from macro to
    micro, "splitting" for one that is not deterministic, "dropping" for one
    that is not total, else "bijection", "coarsening" (onto, not one-to-one)
    or "embedding" (one-to-one, not onto); None when it is neither."""
    if not (forward and audit.deterministic):
        return "splitting" if forward else "reversal"
    if not audit.functional:
        return "dropping"
    return {(True, True): "bijection", (True, False): "coarsening",
            (False, True): "embedding"}.get((audit.surjective, audit.injective))


# Each shape's type on the node layer and on the outcome layer.  A node
# bijection is an identity or a node permutation, as its pairing decides.
_SHAPE_TYPES = {
    "bijection": (None, DistributionalType.IDENTITY_OR_PERMUTATION),
    "coarsening": (StructuralType.NODE_COARSENING, DistributionalType.COARSENING),
    "embedding": (StructuralType.NODE_EMBEDDING, DistributionalType.EMBEDDING),
    "dropping": (StructuralType.NODE_DROPPING, DistributionalType.OUTCOME_DROPPING),
    "splitting": (StructuralType.CAUSAL_SPLITTING, DistributionalType.OUTCOME_SPLITTING),
    "reversal": (StructuralType.ABSTRACTION_REVERSAL, DistributionalType.ABSTRACTION_REVERSAL),
}


def detect_types(
    abstraction: Abstraction, source: Scm, target: Scm
) -> dict[str, list[str]]:
    """Name every taxonomy type the abstraction instantiates, per layer.

    The node map and the outcome summary each have one `_shape`, whose
    `_SHAPE_TYPES` row names their type.  A reversed or split node map has
    that type alone; any other is labelled in one forward branch: a
    bijection is an identity or a node permutation, with edge coarsening or
    embedding where hom-set sizes differ, any other shape has its node type,
    and edge dropping and causal reversal follow.  Labels can overlap: a
    crossed two-node bijection is both a permutation and a causal reversal."""
    node = audit_node_map(abstraction, source, target)
    sm = abstraction.structure
    forward = abstraction.direction is Direction.MICRO_TO_MACRO
    shape = _shape(node, forward)
    structural: list[str] = []
    if shape in ("splitting", "reversal"):
        structural.append(_SHAPE_TYPES[shape][0].value)
    else:
        src_dag, tgt_dag = underlying_graph(source), underlying_graph(target)
        pi = sm.images()  # an all-zero row leaves its node unmapped
        if unknown := [x for x in pi.values() if x not in tgt_dag.node_set]:
            raise ModelError(f"unknown node {unknown[0]!r}")
        ends = {(pi[u], pi[v]) for u, v in src_dag.edges if u in pi and v in pi}
        # An image pair that is one node or a target edge fires no edge label.
        apart = {(x, y) for x, y in ends if x != y} - tgt_dag.edge_set
        tgt_hom = {}  # one target DP per end of a pair in `apart`, held one at a time
        for x, pairs in groupby(sorted(apart | {(y, x) for x, y in apart}), itemgetter(0)):
            counts = path_counts(tgt_dag, x)
            tgt_hom.update(((x, y), counts[y]) for _, y in pairs)
        arrows = [(tgt_hom[x, y], tgt_hom[y, x]) for x, y in apart]
        if shape == "bijection":  # the declared pairs, else the k-th names in sorted order
            twin = dict(zip(sorted(pi), sorted(pi.values()))) if sm.pairing is None else sm.pairing
            respects = all(pi[u] == twin.get(u) for u in pi)
            if respects and ends == tgt_dag.edge_set and len(src_dag.edges) == len(tgt_dag.edges):
                structural.append(StructuralType.IDENTITY.value)
            if not respects:
                structural.append(StructuralType.NODE_PERMUTATION.value)
            # Hom-set sizes differ only from nodes that reach an edge one graph lacks
            # (the same nodes in both graphs: the edges on the way agree).
            coarsens = embeds = False
            if tails := {x for x, _ in ends ^ tgt_dag.edge_set}:
                above = path_counts(src_dag.opposite, *(u for u, x in pi.items() if x in tails))
                for u in src_dag.nodes:
                    if above[u]:
                        src_counts, counts = path_counts(src_dag, u), path_counts(tgt_dag, pi[u])
                        coarsens |= any(src_counts[v] > counts[pi[v]] >= 1 for v in src_dag.nodes)
                        embeds |= any(counts[pi[v]] > src_counts[v] >= 1 for v in src_dag.nodes)
            if coarsens:
                structural.append(StructuralType.EDGE_COARSENING.value)
            if embeds:
                structural.append(StructuralType.EDGE_EMBEDDING.value)
        elif shape is not None:
            structural.append(_SHAPE_TYPES[shape][0].value)
        if any(fwd == 0 and bwd == 0 for fwd, bwd in arrows):
            structural.append(StructuralType.EDGE_DROPPING.value)
        if any(fwd == 0 and bwd > 0 for fwd, bwd in arrows):
            structural.append(StructuralType.CAUSAL_REVERSAL.value)

    s = summarize_outcomes([audit_outcome_map(om, source, target)
                            for om in abstraction.outcome_maps])
    kind = None if s is None else _SHAPE_TYPES.get(_shape(s, forward))
    return {"structural": structural, "distributional": [kind[1].value] if kind else []}
