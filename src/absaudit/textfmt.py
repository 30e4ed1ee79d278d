"""Plain-text formats for models (.scm) and abstractions (.abs).

Both formats share one framing: a header line ``absaudit-format 1`` followed
by named blocks delimited by braces.  A file may hold any number of model
and abstraction blocks, so a fixture can ship a map together with the two
models it connects.  Tokens are whitespace-separated; ``#`` starts a
comment; identifiers may contain primes (``S'``).

Model block::

    scm NAME {
      var NAME : VALUE... [parents NAME...]
      exo NAME : VALUE... for NAME
      dist EXONAME... {
        VALUE... : PROB
      }
      mech NAME {
        PARENTVALUES... EXOVALUE : VALUE
      }
    }

Abstraction block::

    abs NAME {
      source NAME
      target NAME
      direction micro-to-macro|macro-to-micro
      nodes {
        NAME : NAME WEIGHT [NAME WEIGHT...]
      }
      edges {
        PATH : PATH            # PATH is N^N^...; an identity is N^N
      }
      pairs {
        NAME : NAME
      }
      outcomes NAME from NAME... {        # per-variable map
        VALUE... : VALUE WEIGHT [VALUE WEIGHT...]
      }
      outcomes * from NAME... onto NAME... {   # global map
        VALUE... : VALUE... WEIGHT [VALUE... WEIGHT...]
      }
    }

The parser reads one stream of non-empty token rows.  Every braced body, a
top-level block or a nested row block, is read from it by one generator that
stops at the closing brace, so a parse error names the line it was read from.
A long `dist` block is read in one split of its lines instead, unless that
finds a row the generator's reader would refuse: that reader words it.
The serializer writes blocks in a canonical order with canonical row order,
so parsing a canonical file and emitting it again reproduces it byte for
byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, count, islice, repeat
from operator import add, contains
from typing import Iterator, Sequence

from .abstraction import (
    GLOBAL,
    Abstraction,
    Direction,
    OutcomeMap,
    StructuralMap,
)
from .errors import ModelError, ParseError
from .scm import Exogenous, Scm, Variable, _checked_index, mechanism_rows

HEADER = "absaudit-format 1"


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

@dataclass
class Document:
    """Everything found in one or more files, addressable by name."""

    models: dict[str, Scm] = field(default_factory=dict)
    abstractions: dict[str, Abstraction] = field(default_factory=dict)

    def add_model(self, model: Scm) -> None:
        if model.name in self.models:
            raise ModelError(f"duplicate model name {model.name!r}")
        self.models[model.name] = model

    def add_abstraction(self, abstraction: Abstraction) -> None:
        if abstraction.name in self.abstractions:
            raise ModelError(f"duplicate abstraction name {abstraction.name!r}")
        self.abstractions[abstraction.name] = abstraction

    def merge(self, other: "Document") -> None:
        for model in other.models.values():
            self.add_model(model)
        for abstraction in other.abstractions.values():
            self.add_abstraction(abstraction)

    def resolve(self, abstraction: Abstraction) -> tuple[Scm, Scm]:
        """Look up the two models an abstraction runs between."""
        for role, ref in (("source", abstraction.source_ref), ("target", abstraction.target_ref)):
            if ref not in self.models:
                raise ModelError(
                    f"abstraction {abstraction.name!r} references unknown "
                    f"{role} model {ref!r}"
                )
        return self.models[abstraction.source_ref], self.models[abstraction.target_ref]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_CLOSE = ["}"]  # the closing row, built once rather than per row


class _Lines:
    """The non-empty token rows of the input, comments stripped.

    Every block reader, `rows` at the top level included, reads the lines
    `raw` from `numbered`, one `enumerate` shared by all, so a nested block
    reads on from where its parent stopped, and the parent resumes after
    it.  A reader of a whole block may step `numbered` past the lines it
    read too.  `line_no` is the 1-based number of the line last read (0
    before any)."""

    def __init__(self, text: str) -> None:
        self.line_no = 0
        self.raw = text.splitlines()
        self.numbered = enumerate(self.raw, 1)
        self.rows = self.block(None)

    def block(self, what: str | None) -> Iterator[list[str]]:
        """Each row up to the closing brace of block `what`, which it
        consumes, or up to the end of the input when `what` is None."""
        for self.line_no, line in self.numbered:
            if "#" in line:
                line = line[: line.index("#")]
            tokens = line.split()
            if tokens:
                if tokens == _CLOSE and what is not None:
                    return
                yield tokens
        if what is not None:
            raise self.fail(f"{what} is missing its closing brace")

    def fail(self, reason: str) -> ParseError:
        return ParseError(reason, max(self.line_no, 1))


_LONG_DIST = 24  # body lines from which one split of a dist block beats a split per row (README)
_CHUNK = 1024  # lines split or written at once, which bounds the copies a long table makes


def chunks(rows: Sequence) -> Iterator[Sequence]:
    """`rows` in runs of `_CHUNK`, as a writer formats them."""
    return (rows[at : at + _CHUNK] for at in range(0, len(rows), _CHUNK))


def weight_texts(weights: Sequence, number=repr) -> list[str]:
    """`number` of each of `weights`, one chunk of a writer's rows, called
    once per distinct weight and looked up for its repeats (README).  Equal
    weights get one text, so `number` must write equal weights alike, as
    `repr` does floats; a NaN is a key of its own, found by identity.  But
    0.0 and -0.0 are one key and two texts, so a chunk holding a zero, or
    one in which no weight repeats, gets `number` of each weight."""
    distinct = set(weights)
    if 0.0 in distinct or len(distinct) == len(weights):
        return list(map(number, weights))
    texts = dict(zip(distinct, map(number, distinct)))
    return list(map(texts.__getitem__, weights))


def _read_dist(lines: _Lines, k: int, table: dict[tuple, float]) -> bool:
    """Add to `table` the rows of the dist block opened on the line last
    read, each k values, ':' and a finite number, split `_CHUNK` lines at a
    time and checked a column at a time, and step `lines` past its closing
    brace.  Adds nothing and returns False when the body is shorter than
    `_LONG_DIST` lines, has no closing brace, or holds a comment, a blank
    line, a NUL, a row that the row loop would refuse or a key already
    read: the row loop reads the block then, and words its errors."""
    raw, start, before = lines.raw, lines.line_no, len(table)
    if "}" in "".join(raw[start : start + _LONG_DIST]):
        return False  # a short block, or a brace in a token or a comment
    braced = compress(count(start), map(contains, islice(raw, start, None), repeat("}")))
    end = next((j for j in braced if raw[j].split("#", 1)[0].split() == _CLOSE), start)
    width = k + 3  # a line: k values, ':', a number and a NUL
    for at in range(start, end, _CHUNK):
        n = min(_CHUNK, end - at)
        body = " \0 ".join(raw[at : at + n]) + " \0"  # a NUL token ends each line
        tokens = body.split()
        if ("#" in body or body.count("\0") != n or body.count(":") != n
                or len(tokens) != width * n or tokens[k + 2 :: width].count("\0") != n
                or tokens[k::width].count(":") != n):
            break
        try:
            probs = list(map(float, tokens[k + 1 :: width]))
        except ValueError:
            break
        if not math.isfinite(sum(probs)):  # a weight is not, or the sum overflowed
            break
        table.update(zip(zip(*(tokens[i::width] for i in range(k))), probs))
    else:
        if end > start and len(table) == before + end - start:  # no key read twice
            next(islice(lines.numbered, end - start, None))  # the body, then the closing brace
            lines.line_no = end + 1
            return True
    while len(table) > before:  # the keys this block added, last first; a key it
        table.popitem()  # read again keeps its place, and the row loop refuses it
    return False


def _split_colon(tokens: list[str], lines: _Lines) -> tuple[list[str], list[str]]:
    if ":" not in tokens:
        raise lines.fail("expected a ':' separator")
    i = tokens.index(":")
    return tokens[:i], tokens[i + 1 :]


def _float(token: str, lines: _Lines) -> float:
    try:
        value = float(token)
    except ValueError:
        raise lines.fail(f"expected a number, found {token!r}") from None
    if not math.isfinite(value):
        raise lines.fail(f"expected a finite number, found {token!r}")
    return value


def _path(token: str, lines: _Lines) -> tuple[str, ...]:
    parts = tuple(token.split("^"))
    if not all(parts):
        raise lines.fail(f"malformed path {token!r}")
    if len(parts) == 2 and parts[0] == parts[1]:
        return parts[:1]
    return parts


def parse_document(text: str) -> Document:
    lines = _Lines(text)
    if next(lines.rows, None) != HEADER.split():
        raise lines.fail(f"expected header {HEADER!r}")
    doc = Document()
    for tokens in lines.rows:
        if len(tokens) == 3 and tokens[0] == "scm" and tokens[2] == "{":
            doc.add_model(_parse_scm(tokens[1], lines))
        elif len(tokens) == 3 and tokens[0] == "abs" and tokens[2] == "{":
            doc.add_abstraction(_parse_abs(tokens[1], lines))
        else:
            raise lines.fail(
                "expected 'scm NAME {' or 'abs NAME {' at the top level"
            )
    return doc


def _parse_scm(name: str, lines: _Lines) -> Scm:
    specs: list[list] = []  # each variable's fields; its exo line sets the last
    positions: dict[str, list[int]] = {}  # each variable name's positions so far
    exogenous: list[Exogenous] = []
    mechanisms: dict[str, dict[tuple, str]] = {}
    exo_table: dict[tuple, float] = {}
    saw_dist = False
    for tokens in lines.block(f"model {name!r}"):
        head = tokens[0]
        if head == "var":
            if len(tokens) < 4 or tokens[2] != ":":
                raise lines.fail("expected 'var NAME : VALUE...'")
            rest = tokens[3:]
            parents: tuple[str, ...] = ()
            if "parents" in rest:
                j = rest.index("parents")
                parents = tuple(rest[j + 1 :])
                rest = rest[:j]
            if not rest:
                raise lines.fail("a variable needs at least one value")
            positions.setdefault(tokens[1], []).append(len(specs))
            specs.append([tokens[1], tuple(rest), parents, ""])
        elif head == "exo":
            if len(tokens) < 6 or tokens[2] != ":" or tokens[-2] != "for":
                raise lines.fail("expected 'exo NAME : VALUE... for NAME'")
            owner = tokens[-1]
            exogenous.append(
                Exogenous(name=tokens[1], domain=tuple(tokens[3:-2]), endogenous=owner)
            )
            for i in positions.get(owner, ()):
                specs[i][3] = tokens[1]
        elif head == "dist":
            if tokens[-1] != "{":
                raise lines.fail("expected 'dist NAME... {'")
            declared = tokens[1:-1]
            if declared != [u.name for u in exogenous]:
                raise lines.fail(
                    "the dist block must list every exogenous variable "
                    "in declaration order"
                )
            saw_dist = True
            k = len(declared)
            if _read_dist(lines, k, exo_table):
                continue
            for row in lines.block("dist block"):
                if len(row) != k + 2 or row[k] != ":" or row.index(":") != k:
                    _split_colon(row, lines)  # words a row without a ':'
                    raise lines.fail("expected 'VALUE... : PROB'")
                key = tuple(row[:k])
                if key in exo_table:
                    raise lines.fail(f"duplicate dist row {' '.join(key)}")
                exo_table[key] = _float(row[-1], lines)
        elif head == "mech":
            if len(tokens) != 3 or tokens[2] != "{":
                raise lines.fail("expected 'mech NAME {'")
            var = tokens[1]
            if var in mechanisms:
                raise lines.fail(f"duplicate mechanism for {var}")
            table: dict[tuple, str] = {}
            for row in lines.block("mech block"):
                if len(row) < 3 or row[-2] != ":" or row.index(":") != len(row) - 2:
                    _split_colon(row, lines)  # words a row without a ':'
                    raise lines.fail("expected 'VALUE... : VALUE'")
                key = tuple(row[:-2])
                if key in table:
                    raise lines.fail(f"duplicate mechanism row {' '.join(key)}")
                table[key] = row[-1]
            mechanisms[var] = table
        else:
            raise lines.fail(f"unexpected {head!r} inside a model block")
    if not saw_dist and exogenous:
        raise lines.fail(f"model {name!r} has no dist block")
    return Scm(name, [Variable(*spec) for spec in specs], exogenous, mechanisms, exo_table)


def _parse_abs(name: str, lines: _Lines) -> Abstraction:
    source = target = None
    direction: Direction | None = None
    rows: dict[str, dict[str, float]] = {}
    edge_map: dict[tuple[str, ...], tuple[str, ...]] | None = None
    pairing: dict[str, str] | None = None
    outcome_maps: list[OutcomeMap] = []
    for tokens in lines.block(f"abstraction {name!r}"):
        head = tokens[0]
        if head == "source" and len(tokens) == 2:
            source = tokens[1]
        elif head == "target" and len(tokens) == 2:
            target = tokens[1]
        elif head == "direction" and len(tokens) == 2:
            try:
                direction = Direction(tokens[1])
            except ValueError:
                raise lines.fail(
                    "direction must be micro-to-macro or macro-to-micro"
                ) from None
        elif tokens == ["nodes", "{"]:
            for row in lines.block("nodes block"):
                left, right = _split_colon(row, lines)
                if len(left) != 1 or not right or len(right) % 2:
                    raise lines.fail("expected 'NAME : NAME WEIGHT...'")
                if left[0] in rows:
                    raise lines.fail(f"duplicate node row {left[0]}")
                entry: dict[str, float] = {}
                for j in range(0, len(right), 2):
                    entry[right[j]] = _float(right[j + 1], lines)
                rows[left[0]] = entry
        elif tokens == ["edges", "{"]:
            edge_map = {}
            for row in lines.block("edges block"):
                if len(row) != 3 or row[1] != ":" or row.index(":") != 1:
                    _split_colon(row, lines)  # words a row without a ':'
                    raise lines.fail("expected 'PATH : PATH'")
                key = _path(row[0], lines)
                if key in edge_map:
                    raise lines.fail(f"duplicate edge row {row[0]}")
                edge_map[key] = _path(row[2], lines)
        elif tokens == ["pairs", "{"]:
            pairing = {}
            for row in lines.block("pairs block"):
                left, right = _split_colon(row, lines)
                if len(left) != 1 or len(right) != 1:
                    raise lines.fail("expected 'NAME : NAME'")
                if left[0] in pairing:
                    raise lines.fail(f"duplicate pair row {left[0]}")
                pairing[left[0]] = right[0]
        elif head == "outcomes" and tokens[-1] == "{":
            spec = tokens[1:-1]
            if len(spec) < 3 or spec[1] != "from":
                raise lines.fail(
                    "expected 'outcomes NAME from NAME... {' or "
                    "'outcomes * from NAME... onto NAME... {'"
                )
            om_target = spec[0]
            rest = spec[2:]
            if om_target == GLOBAL:
                if "onto" not in rest:
                    raise lines.fail("a global outcome map needs an onto clause")
                j = rest.index("onto")
                sources = tuple(rest[:j])
                onto = tuple(rest[j + 1 :])
                if not sources or not onto:
                    raise lines.fail("empty from/onto clause")
                arity = len(onto)
            else:
                if "onto" in rest:
                    raise lines.fail("only global outcome maps take an onto clause")
                sources = tuple(rest)
                onto = ()
                arity = 1
            om_rows: dict[tuple, dict[tuple, float]] = {}
            for row in lines.block("outcomes block"):
                left, right = _split_colon(row, lines)
                if len(left) != len(sources):
                    raise lines.fail(
                        f"expected {len(sources)} value(s) before the ':'"
                    )
                if not right or len(right) % (arity + 1):
                    raise lines.fail(
                        f"expected groups of {arity} value(s) plus a weight"
                    )
                key = tuple(left)
                if key in om_rows:
                    raise lines.fail(f"duplicate outcome row {' '.join(left)}")
                entry: dict[tuple, float] = {}
                for j in range(0, len(right), arity + 1):
                    val = tuple(right[j : j + arity])
                    entry[val] = _float(right[j + arity], lines)
                om_rows[key] = entry
            outcome_maps.append(
                OutcomeMap(target=om_target, sources=sources, rows=om_rows, onto=onto)
            )
        else:
            raise lines.fail(f"unexpected {head!r} inside an abstraction block")
    if source is None or target is None or direction is None:
        raise lines.fail(
            f"abstraction {name!r} needs source, target and direction lines"
        )
    structure = StructuralMap(rows=rows, edge_map=edge_map, pairing=pairing)
    return Abstraction(name, source, target, direction, structure, outcome_maps)


def read_text(path) -> str:
    """The text of the UTF-8 file at `path`, or a `ParseError` at its first bad byte."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line, column
        ) from None


def parse_path(path) -> Document:
    return parse_document(read_text(path))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def join_labels(values: tuple) -> str:
    """A row's labels as the text format writes them: `str` of each, space-separated."""
    try:
        return " ".join(values)
    except TypeError:  # an integer label
        return " ".join(map(str, values))


def join_rows(keys: Sequence[tuple]) -> list[str]:
    """`join_labels` of each of `keys`, in C unless a label is an integer."""
    try:
        return list(map(" ".join, keys))
    except TypeError:  # an integer label
        return list(map(join_labels, keys))


def _path_token(m: tuple[str, ...]) -> str:
    return "^".join(m * 2 if len(m) == 1 else m)


def emit_scm(model: Scm) -> list[str]:
    _checked_index(model)  # refuses the first graph fault, then a noise key out of range
    keys, values = model.ranked_noise()[1:]
    out = [f"scm {model.name} {{"]
    for v in model.variables:
        line = f"  var {v.name} : {join_labels(v.domain)}"
        if v.parents:
            line += f" parents {join_labels(v.parents)}"
        out.append(line)
    for u in model.exogenous:
        out.append(f"  exo {u.name} : {join_labels(u.domain)} for {u.endogenous}")
    if model.exogenous:
        out.append(f"  dist {join_labels(model.exogenous_names)} {{")
        for combos, weights in zip(chunks(keys), chunks(values)):  # each weight as `_num` writes it
            out += map(add, repeat("    "), map(" : ".join, zip(
                join_rows(combos), weight_texts(list(map(float, weights))))))
        out.append("  }")
    for v in model.variables:
        rows = (f"    {join_labels(key)} : {value}" for key, value in mechanism_rows(model, v))
        out += [f"  mech {v.name} {{", *rows, "  }"]
    out.append("}")
    return out


def emit_abstraction(abstraction: Abstraction) -> list[str]:
    out = [f"abs {abstraction.name} {{"]
    out.append(f"  source {abstraction.source_ref}")
    out.append(f"  target {abstraction.target_ref}")
    out.append(f"  direction {abstraction.direction.value}")
    sm = abstraction.structure
    out.append("  nodes {")
    for u, row in sm.rows.items():
        cells = " ".join(f"{x} {_num(w)}" for x, w in row.items())
        out.append(f"    {u} : {cells}")
    out.append("  }")
    if sm.edge_map is not None:
        out.append("  edges {")
        for m in sorted(sm.edge_map, key=lambda m: (len(m), m)):
            out.append(f"    {_path_token(m)} : {_path_token(sm.edge_map[m])}")
        out.append("  }")
    if sm.pairing is not None:
        out.append("  pairs {")
        for u, x in sm.pairing.items():
            out.append(f"    {u} : {x}")
        out.append("  }")
    for om in abstraction.outcome_maps:
        if om.is_global:
            out.append(f"  outcomes * from {join_labels(om.sources)} "
                       f"onto {join_labels(om.onto)} {{")
        else:
            out.append(f"  outcomes {om.target} from {join_labels(om.sources)} {{")
        for key in sorted(om.rows):
            cells = " ".join(f"{join_labels(val)} {_num(w)}"
                             for val, w in sorted(om.rows[key].items()))
            out.append(f"    {join_labels(key)} : {cells}")
        out.append("  }")
    out.append("}")
    return out


def emit_document(doc: Document) -> str:
    blocks = [[HEADER]]
    for model in doc.models.values():
        blocks.append(emit_scm(model))
    for abstraction in doc.abstractions.values():
        blocks.append(emit_abstraction(abstraction))
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
