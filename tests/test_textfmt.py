"""Text format: parser, emitter, round-trip stability."""

from __future__ import annotations

import contextlib
import importlib.resources
import io
import itertools
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import absaudit.cli
from absaudit import textfmt
from absaudit.abstraction import Direction
from absaudit.errors import AbsauditError, ModelError, ParseError
from absaudit.textfmt import (
    HEADER,
    Document,
    _CHUNK,
    _LONG_DIST,
    emit_abstraction,
    emit_document,
    emit_scm,
    join_labels,
    parse_document,
    parse_path,
    weight_texts,
)
from absaudit.scm import Distribution, Exogenous, Scm, Variable, validate_scm
from absaudit.taxonomy import load_table

from helpers import M, abstraction, chain, det_outcomes, random_model
from oracles import emitted_dist_block, printed_dist, weight_text

MINI = """\
absaudit-format 1

scm mini {
  var A : 0 1
  exo U_A : 0 1 for A
  dist U_A {
    0 : 0.5
    1 : 0.5
  }
  mech A {
    0 : 0
    1 : 1
  }
}
"""

PAIR = MINI + """
scm mini2 {
  var B : 0 1
  exo U_B : 0 1 for B
  dist U_B {
    0 : 0.25
    1 : 0.75
  }
  mech B {
    0 : 1
    1 : 0
  }
}

abs lift {
  source mini
  target mini2
  direction micro-to-macro
  nodes {
    A : B 1.0
  }
  edges {
    A^A : B^B
  }
  pairs {
    A : B
  }
  outcomes B from A {
    0 : 1 1.0
    1 : 0 1.0
  }
}
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_model():
    doc = parse_document(MINI)
    model = doc.models["mini"]
    assert model.variable_names == ("A",)
    assert model.exogenous_names == ("U_A",)
    assert model.mechanisms["A"][("0",)] == "0"
    assert model.exo_table[("0",)] == 0.5


def test_an_exo_line_attaches_to_every_variable_of_its_name_above_it():
    text = MINI.replace("  var A : 0 1\n", "  var A : 0 1\n  var A : 0 1\n")
    text = text.replace("  exo U_A : 0 1 for A\n", "  exo U_A : 0 1 for A\n  var A : 0 1\n")
    model = parse_document(text).models["mini"]
    assert [(v.name, v.exogenous) for v in model.variables] == [
        ("A", "U_A"), ("A", "U_A"), ("A", "")]


def test_lines_after_the_dist_block_still_declare_and_attach():
    text = MINI.replace("  mech A {", "  var B : 0 1\n  exo U_B : 0 1 for B\n  mech A {")
    model = parse_document(text).models["mini"]
    assert [(v.name, v.exogenous) for v in model.variables] == [("A", "U_A"), ("B", "U_B")]


def test_parse_full_document():
    doc = parse_document(PAIR)
    assert set(doc.models) == {"mini", "mini2"}
    a = doc.abstractions["lift"]
    assert a.source_ref == "mini" and a.target_ref == "mini2"
    assert a.direction is Direction.MICRO_TO_MACRO
    assert a.structure.rows["A"] == {"B": 1.0}
    assert a.structure.edge_map[("A",)] == ("B",)
    assert a.structure.pairing == {"A": "B"}
    om = a.outcome_maps[0]
    assert om.target == "B" and om.sources == ("A",)
    assert om.rows[("0",)] == {("1",): 1.0}


def test_parse_comments_and_blank_lines():
    text = MINI.replace("0 : 0.5", "0 : 0.5   # a comment\n\n# full-line note")
    doc = parse_document(text)
    assert doc.models["mini"].exo_table[("0",)] == 0.5


def test_parse_identity_path_token():
    doc = parse_document(PAIR)
    edge_map = doc.abstractions["lift"].structure.edge_map
    assert ("A",) in edge_map and len(edge_map[("A",)]) == 1


def test_parse_missing_header():
    with pytest.raises(ParseError) as err:
        parse_document("scm x {\n}\n")
    assert "expected header" in str(err.value)
    assert err.value.line == 1


def test_parse_error_reports_line():
    bad = MINI.replace("0 : 0.5", "0 0.5")
    with pytest.raises(ParseError) as err:
        parse_document(bad)
    assert err.value.line == 7
    assert "line 7, column 1:" in str(err.value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.replace("scm mini {", "model mini {"),
         "at the top level"),
        (lambda t: t.replace("var A : 0 1", "var A :"),
         "expected 'var NAME : VALUE...'"),
        (lambda t: t.replace("var A : 0 1", "var A : parents B"),
         "a variable needs at least one value"),
        (lambda t: t.replace("exo U_A : 0 1 for A", "exo U_A : 0 1"),
         "expected 'exo NAME : VALUE... for NAME'"),
        (lambda t: t.replace("mech A {", "mech A"),
         "expected 'mech NAME {'"),
        (lambda t: t.replace("1 : 1\n  }\n}\n", "1 : 1\n  }\n"),
         "missing its closing brace"),
        (lambda t: t.replace("0 : 0.5", "0 : half"),
         "expected a number, found 'half'"),
        (lambda t: t + "junk\n", "at the top level"),
    ],
)
def test_parse_model_errors(mutate, message):
    with pytest.raises(ParseError, match=None) as err:
        parse_document(mutate(MINI))
    assert message in str(err.value)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.replace("direction micro-to-macro", "direction sideways"),
         "direction"),
        (lambda t: t.replace("A^A : B^B", "A^^A : B^B"),
         "malformed path"),
        (lambda t: t.replace("outcomes B from A {", "outcomes B from A"),
         "outcomes"),
        (lambda t: t.replace("outcomes B from A {", "outcomes * from A {"),
         "onto clause"),
        (lambda t: t.replace("outcomes B from A {",
                             "outcomes B from A onto B {"),
         "only global outcome maps take an onto clause"),
        (lambda t: t.replace("  pairs {\n    A : B\n  }\n",
                             "  pairs {\n    A : B\n    A : B\n  }\n"),
         "duplicate pair row"),
        (lambda t: t.replace("  nodes {\n    A : B 1.0\n  }\n",
                             "  nodes {\n    A : B 1.0\n    A : B 1.0\n  }\n"),
         "duplicate node row"),
    ],
)
def test_parse_abstraction_errors(mutate, message):
    with pytest.raises(ParseError) as err:
        parse_document(mutate(PAIR))
    assert message in str(err.value)


def test_parse_duplicate_scm_rows():
    dup = MINI.replace("0 : 0.5\n    1 : 0.5", "0 : 0.5\n    0 : 0.5")
    with pytest.raises(ParseError, match="duplicate dist row"):
        parse_document(dup)
    dup = MINI.replace("mech A {\n    0 : 0",
                       "mech A {\n    0 : 0\n    0 : 0")
    with pytest.raises(ParseError, match="duplicate mechanism row"):
        parse_document(dup)


def test_document_duplicate_names():
    doc = parse_document(MINI)
    with pytest.raises(ModelError, match="duplicate model name"):
        doc.add_model(doc.models["mini"])
    with pytest.raises(ModelError, match="duplicate model name"):
        doc.merge(parse_document(MINI))


def test_parse_duplicate_abstraction_name():
    text = PAIR + PAIR[PAIR.index("abs lift {"):]
    with pytest.raises(ModelError) as err:
        parse_document(text)
    assert str(err.value) == "duplicate abstraction name 'lift'"


def test_document_resolve_unknown_reference():
    doc = parse_document(PAIR)
    lift = doc.abstractions["lift"]
    lonely = Document()
    lonely.add_abstraction(lift)
    with pytest.raises(ModelError, match="unknown\\s+source model"):
        lonely.resolve(lift)
    lonely.add_model(doc.models["mini"])
    with pytest.raises(ModelError) as err:
        lonely.resolve(lift)
    assert str(err.value) == "abstraction 'lift' references unknown target model 'mini2'"


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def test_emit_scm_matches_reference():
    doc = parse_document(MINI)
    assert "\n".join(emit_scm(doc.models["mini"])) + "\n" == MINI.split("\n", 2)[2]


@settings(max_examples=200, deadline=None)
@given(noise=st.lists(st.lists(st.sampled_from(["0", "1", "b", 0, 1, 7]), min_size=1, max_size=3,
                               unique=True), min_size=1, max_size=3),
       data=st.data(), chunk=st.sampled_from((1, 3, textfmt._CHUNK)))
def test_emit_scm_writes_each_dist_row_as_a_row_at_a_time(noise, data, chunk):
    """The `dist` block of `emit_scm`, its rows written `chunk` at a time,
    holds per noise entry in row-major order `join_labels` of its key, ':'
    and the `repr` of its weight as a float, as a row at a time wrote it:
    integer labels, integer weights and zeros too."""
    terms = [(f"V{i}", tuple(d)) for i, d in enumerate(noise)]
    keys = data.draw(st.permutations(list(itertools.product(*noise))))
    weights = st.sampled_from([0.25, 0.0, 1, 0.1 + 0.2, 5e-324])
    table = {key: data.draw(weights) for key in keys[: data.draw(st.integers(0, len(keys)))]}
    model = Scm("m", [Variable(v, ("0",), (), f"U{v}") for v, _ in terms],
                [Exogenous(f"U{v}", d, v) for v, d in terms],
                {v: {(u,): "0" for u in d} for v, d in terms}, table)
    ranked = [key for key in itertools.product(*noise) if key in table]
    want = [f"    {join_labels(key)} : {float(table[key])!r}" for key in ranked]
    with mock.patch.object(textfmt, "_CHUNK", chunk):
        lines = emit_scm(model)
    opened = lines.index("  dist " + " ".join(f"UV{i}" for i in range(len(noise))) + " {")
    assert lines[opened + 1 : opened + 1 + len(want) + 1] == [*want, "  }"]


WEIGHT_KINDS = ("pool", "fresh", "signed-zeros", "integers", "non-finite")


def _weights(kind: str, n: int, rng: random.Random) -> list:
    """n weights of one kind: drawn from a pool of three, so they repeat;
    fresh floats; 0.0, -0.0 and two more; integers; NaN (one object that
    repeats, and fresh ones) and +-inf among finite weights."""
    nan = float("nan")
    pools = {"pool": [rng.random() for _ in range(3)], "signed-zeros": [0.0, -0.0, 0.25, 0.5],
             "integers": [1, 2, 1.0, 3], "non-finite": [nan, nan, math.inf, -math.inf, 0.5]}
    if kind == "fresh":
        return [rng.random() for _ in range(n)]
    if kind == "non-finite":
        return [float("nan") if rng.random() < 0.1 else rng.choice(pools[kind]) for _ in range(n)]
    return [rng.choice(pools[kind]) for _ in range(n)]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(WEIGHT_KINDS), n=st.sampled_from((1, 1023, 1024, 1025, 2049)),
       seed=st.integers(0, 2**32), number=st.sampled_from((repr, json.dumps, textfmt._num)))
def test_weight_texts_write_each_weight_as_a_row_at_a_time(kind, n, seed, number):
    """`weight_texts` gives `number` of each weight, as the row-at-a-time
    oracle writes it (`oracles.weight_text`), calling `number` once per
    distinct weight where a weight repeats and the chunk holds no zero,
    else once per weight; a NaN found again by identity, and 0.0 and -0.0
    written apart.  A second call formats again: no text is kept.  Equal
    weights share a text, so integers go with a `number` that floats them."""
    ws = _weights(kind, n, random.Random(seed))
    number = textfmt._num if kind == "integers" else number
    distinct = len({w if w == w else id(w) for w in ws})  # a NaN is equal only to itself
    formatted = n if 0 in ws or distinct == n else distinct
    calls = []

    def counted(w):
        calls.append(w)
        return number(w)

    for _ in range(2):
        calls.clear()
        assert weight_texts(ws, counted) == [weight_text(w, number is not json.dumps) for w in ws]
        assert len(calls) == formatted


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(WEIGHT_KINDS), n=st.sampled_from((1, 1023, 1024, 1025, 2049)),
       seed=st.integers(0, 2**32))
def test_writers_of_weights_match_a_row_by_row_oracle(kind, n, seed):
    """The text and JSON rows of `dist` and `push` and the `dist` block of
    `emit_scm` are the row-at-a-time oracle's (`oracles.printed_dist`,
    `oracles.emitted_dist_block`), across chunk ends, each chunk's weights
    formatted by one `weight_texts` call: repeated and fresh weights,
    0.0 and -0.0, integer weights of a library table (emit) and NaN and
    +-inf (dist, whose JSON then writes `json.dumps` of each)."""
    rng = random.Random(seed)
    labels = tuple(f"x{i}" for i in range(n))
    keys = [(x,) for x in labels]
    ws = _weights(kind, n, rng)
    table = dict(zip(keys, ws))
    shuffled = list(table.items())
    rng.shuffle(shuffled)
    chunked = []

    def spy(weights, number=repr):
        chunked.append(len(weights))
        return weight_texts(weights, number)

    with mock.patch.object(textfmt, "weight_texts", spy), \
            mock.patch.object(absaudit.cli, "weight_texts", spy):
        if kind != "non-finite":
            model = Scm("m", [Variable("A", ("0",), (), "U")], [Exogenous("U", labels, "A")],
                        {"A": {key: "0" for key in keys}}, dict(shuffled))
            lines = emit_scm(model)
            opened = lines.index("  dist U {")
            assert lines[opened + 1 : opened + 2 + n] == [
                *emitted_dist_block(table, [labels]), "  }"]
            assert sum(chunked) == n and max(chunked) <= _CHUNK
        if kind != "integers":  # the CLI's weights are floats
            dist = Distribution(("A",), (labels,), dict(shuffled))
            for as_json in (False, True):
                chunked.clear()
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    absaudit.cli._print_dist(dist, as_json)
                assert out.getvalue() == printed_dist(("A",), [labels], table, as_json)
                assert sum(chunked) == sum(w != 0 for w in ws) and max(chunked, default=0) <= _CHUNK


def test_emit_document_round_trip():
    doc = parse_document(PAIR)
    text = emit_document(doc)
    assert text.startswith(HEADER + "\n\n")
    again = parse_document(text)
    assert emit_document(again) == text


def test_emit_canonical_edge_order():
    micro = chain("m", ["A", "B", "C"])
    macro = chain("n", ["X", "Y"])
    a = abstraction(
        "a", micro, macro, {"A": "X", "B": "X", "C": "Y"},
        edges={
            M("A", "B", "C"): M("X", "Y"),
            M("A"): M("X"),
            M("B", "C"): M("X", "Y"),
        },
    )
    lines = emit_abstraction(a)
    block = lines[lines.index("  edges {") + 1 : lines.index("  }", lines.index("  edges {"))]
    assert block == [
        "    A^A : X^X",
        "    B^C : X^Y",
        "    A^B^C : X^Y",
    ]


@pytest.mark.parametrize("old, new, issue", [
    ("    1 : 0.5\n  }", "    1 : 0.5\n    7 : 0.0\n  }",
     "[dist-key] exogenous table key ('7',) is out of range"),
    ("    1 : 1\n  }", "    1 : 1\n    2 : 0\n  }",
     "[mechanism-extra] mechanism for A has stray input ('2',)"),
])
def test_emit_refuses_a_row_that_the_text_would_drop(old, new, issue):
    """A noise key or a mechanism input out of range, which the emitted text
    would leave out, is refused in the words of its `validate` issue, so that
    emitting an invalid model never gives a valid one."""
    assert MINI.count(old) == 1
    doc = parse_document(MINI.replace(old, new))
    assert [str(i) for i in validate_scm(doc.models["mini"]).issues] == [issue]
    with pytest.raises(ModelError) as refused:
        emit_document(doc)
    assert issue.endswith(f"] {refused.value}")


def test_emit_float_uses_repr():
    micro = chain("m", ["A"])
    macro = chain("n", ["X"])
    a = abstraction("a", micro, macro, {"A": {"X": 1 / 3}})
    lines = emit_abstraction(a)
    assert any(line.strip() == f"A : X {1 / 3!r}" for line in lines)


def test_round_trip_random_models():
    import random

    for seed in range(30):
        rng = random.Random(seed)
        model = random_model(rng)
        doc = Document()
        doc.add_model(model)
        text = emit_document(doc)
        back = parse_document(text).models[model.name]
        assert back == model
        assert emit_document(parse_document(text)) == text


def test_shipped_fixtures_byte_stable(tmp_path):
    data = importlib.resources.files("absaudit") / "data"
    count = 0
    for sub in ("models", "figures", "witnesses/structural",
                "witnesses/distributional"):
        folder = data / sub
        for entry in sorted(folder.iterdir(), key=lambda e: e.name):
            if not entry.name.endswith((".scm", ".abs")):
                continue
            raw = entry.read_text()
            assert emit_document(parse_document(raw)) == raw, entry.name
            count += 1
    assert count == 43


def test_parse_path_reads_files(tmp_path):
    p = tmp_path / "doc.scm"
    p.write_text(MINI)
    doc = parse_path(p)
    assert "mini" in doc.models


@pytest.mark.parametrize("read", [parse_path, load_table])
def test_non_utf8_file_is_a_parse_error(tmp_path, read):
    p = tmp_path / "binary.txt"
    p.write_bytes(HEADER.encode() + b"\n\n  \xe9t\xe9\n")
    with pytest.raises(ParseError) as err:
        read(p)
    assert isinstance(err.value, AbsauditError)
    assert (err.value.line, err.value.column) == (3, 3)
    assert err.value.reason == "invalid UTF-8 byte 0xe9"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
@pytest.mark.parametrize(
    "old, line",
    [("    0 : 0.25\n", 20), ("    A : B 1.0\n", 34), ("    0 : 1 1.0\n", 43)],
    ids=["dist-row", "node-row", "outcome-row"],
)
def test_parse_rejects_non_finite_weights(token, old, line):
    new = old.replace(old.split()[-1], token)
    with pytest.raises(ParseError) as err:
        parse_document(PAIR.replace(old, new, 1))
    assert err.value.line == line
    assert err.value.reason == f"expected a finite number, found {token!r}"


def _cut(text: str, row: str) -> str:
    """`text` up to and including the first `row`: the input ends inside its block."""
    return text[: text.index(row) + len(row)]


@pytest.mark.parametrize(
    "text, message",
    [
        (MINI[:-2], "line 13, column 1: model 'mini' is missing its closing brace"),
        (MINI[:-2] + "# a note\n\n",
         "line 15, column 1: model 'mini' is missing its closing brace"),
        (PAIR[:-2], "line 45, column 1: abstraction 'lift' is missing its closing brace"),
        (_cut(MINI, "    0 : 0.5\n"), "line 7, column 1: dist block is missing its closing brace"),
        (_cut(MINI, "    0 : 0\n"), "line 11, column 1: mech block is missing its closing brace"),
        (_cut(PAIR, "    A : B 1.0\n"),
         "line 34, column 1: nodes block is missing its closing brace"),
        (_cut(PAIR, "    A^A : B^B\n"),
         "line 37, column 1: edges block is missing its closing brace"),
        (_cut(PAIR, "    A : B\n"), "line 40, column 1: pairs block is missing its closing brace"),
        (_cut(PAIR, "    0 : 1 1.0\n"),
         "line 43, column 1: outcomes block is missing its closing brace"),
        (MINI.replace("    1 : 0.5\n", "    1 0.5\n"),
         "line 8, column 1: expected a ':' separator"),
        (MINI.replace("    1 : 1\n", "    1 : 1 0\n"),
         "line 12, column 1: expected 'VALUE... : VALUE'"),
        (PAIR.replace("    A : B 1.0\n", "    A : B\n"),
         "line 34, column 1: expected 'NAME : NAME WEIGHT...'"),
        (PAIR.replace("    A^A : B^B\n", "    A^A : B^^B\n"),
         "line 37, column 1: malformed path 'B^^B'"),
        (PAIR.replace("    A : B\n", "    A : B C\n"), "line 40, column 1: expected 'NAME : NAME'"),
        (PAIR.replace("    1 : 0 1.0\n", "    1 : 0 1.0 0\n"),
         "line 44, column 1: expected groups of 1 value(s) plus a weight"),
    ],
    ids=["model", "model-trailing-comment", "abstraction", "dist", "mech", "nodes",
         "edges", "pairs", "outcomes", "dist-row", "mech-row", "nodes-row", "edges-row",
         "pairs-row", "outcomes-row"],
)
def test_parse_error_pins_line_and_column(text, message):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert str(err.value) == message


MECH_A = "  mech A {\n    0 : 0\n    1 : 1\n  }\n"
DIST_A = "  dist U_A {\n    0 : 0.5\n    1 : 0.5\n  }\n"


@pytest.mark.parametrize(
    "text, reason, line",
    [
        (MINI.replace("dist U_A {", "dist U_A"), "expected 'dist NAME... {'", 6),
        (MINI.replace("dist U_A {", "dist {"),
         "the dist block must list every exogenous variable in declaration order", 6),
        (MINI.replace(MECH_A, MECH_A + MECH_A), "duplicate mechanism for A", 14),
        (MINI.replace(DIST_A, ""), "model 'mini' has no dist block", 10),
        (PAIR.replace("    A^A : B^B\n", "    A^A : B^B\n    A^A : B^B\n"),
         "duplicate edge row A^A", 38),
        (PAIR.replace("outcomes B from A {", "outcomes B of A {"),
         "expected 'outcomes NAME from NAME... {' or 'outcomes * from NAME... onto NAME... {'",
         42),
        (PAIR.replace("outcomes B from A {", "outcomes * from A onto {"),
         "empty from/onto clause", 42),
        (PAIR.replace("outcomes B from A {", "outcomes * from onto B {"),
         "empty from/onto clause", 42),
        (PAIR.replace("    0 : 1 1.0\n", "    0 0 : 1 1.0\n"),
         "expected 1 value(s) before the ':'", 43),
        (PAIR.replace("    1 : 0 1.0\n", "    0 : 0 1.0\n"), "duplicate outcome row 0", 44),
        (PAIR.replace("  source mini\n", ""),
         "abstraction 'lift' needs source, target and direction lines", 45),
        (PAIR.replace("  target mini2\n", ""),
         "abstraction 'lift' needs source, target and direction lines", 45),
        (PAIR.replace("  direction micro-to-macro\n", ""),
         "abstraction 'lift' needs source, target and direction lines", 45),
    ],
    ids=["dist-no-brace", "dist-header", "mech-twice", "no-dist", "edge-row-twice",
         "outcomes-header", "empty-onto", "empty-from", "key-arity", "outcome-row-twice",
         "no-source", "no-target", "no-direction"],
)
def test_parse_error_names_its_reason_and_line(text, reason, line):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.reason, err.value.line, err.value.column) == (reason, line, 1)


TWO_TERMS = """\
absaudit-format 1
scm m {
  var A : 0 1
  var B : 0 1
  exo U : 0 1 for A
  exo W : 0 1 for B
%s}
"""


def _plain_dist_rows(rows: list[list[str]], first_line: int, table: dict | None = None):
    """The table the dist rows give, added to `table`, or the (reason, line)
    of the first bad row, read plainly: split each row at its first ':'."""
    table = {} if table is None else table
    for line, row in enumerate(rows, first_line):
        if not row:
            continue
        if ":" not in row:
            return "expected a ':' separator", line
        i = row.index(":")
        left, right = row[:i], row[i + 1:]
        if len(left) != 2 or len(right) != 1:
            return "expected 'VALUE... : PROB'", line
        if tuple(left) in table:
            return f"duplicate dist row {' '.join(left)}", line
        try:
            table[tuple(left)] = float(right[0])
        except ValueError:
            return f"expected a number, found {right[0]!r}", line
        if not math.isfinite(table[tuple(left)]):
            return f"expected a finite number, found {right[0]!r}", line
    return table


# every line break of `str.splitlines`
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ODD = ["0", "1", ":", "0.5", "1e0", "x", "inf", "a}", "}:", "\0", "x\0", "\x1f"]
LONG = [(f"    {i} {i % 3} : {0.1 * (i % 4)!r}", "\n") for i in range(2 * _LONG_DIST)]


@st.composite
def dist_blocks(draw) -> list[list[tuple[str, str]]]:
    """One or two dist blocks over U W, each a list of (line, line break)
    pairs: up to 2.5 times `_LONG_DIST` rows keyed apart, sharing a few
    probability tokens, then edited a few times: a row replaced by odd
    tokens or by none (a blank line), a comment added, the key of a row
    anywhere above repeated, a NUL or a comment glued to a token."""
    blocks, keys = [], []
    for b in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, _LONG_DIST * 5 // 2))
        keys += [[f"{b}k{i}", str(i % 3)] for i in range(n)]
        rows = [[*key, ":", draw(st.sampled_from(["0.5", "1e0", "0.125", repr(0.1 + 0.2)]))]
                for key in keys[-n:]]
        comments = [""] * n
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            edit = draw(st.sampled_from(["odd", "comment", "repeat", "glue"]))
            if edit == "odd":
                rows[i] = draw(st.lists(st.sampled_from(ODD), max_size=5)
                               .filter(lambda row: row != ["}"]))
            elif edit == "comment":
                comments[i] = draw(st.sampled_from(["#", " # }", "#:", " # 0 0 : 1"]))
            elif edit == "repeat":
                rows[i] = [*keys[draw(st.integers(0, len(keys) - n + i))], ":", "0.5"]
            elif rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] += draw(st.sampled_from("\0#"))
        blocks.append([("    " + " ".join(row) + comment, draw(st.sampled_from(BREAKS)))
                       for row, comment in zip(rows, comments)])
    return blocks


def _every_break(block: list[tuple[str, str]]) -> list[tuple[str, str]]:
    return [(line, BREAKS[i % len(BREAKS)]) for i, (line, _) in enumerate(block)]


@settings(max_examples=600, deadline=None)
@given(blocks=dist_blocks())
@example(blocks=[LONG])
@example(blocks=[_every_break(LONG)])
@example(blocks=[LONG, [(f"    b{i} 0 : 0.5", "\r\n") for i in range(_LONG_DIST + 1)]])
@example(blocks=[LONG, [*LONG[:_LONG_DIST + 1]]])
@example(blocks=[LONG[:-1] + [("    0 0 : 0.5", "\n")]])
@example(blocks=[LONG[:_LONG_DIST + 1] + [("    a} } : 0.5", "\n")] + LONG[_LONG_DIST + 1:]])
@example(blocks=[LONG[:_LONG_DIST + 1] + [("    x\0 0 : 0.5", "\n")] + LONG[_LONG_DIST + 1:]])
@example(blocks=[LONG[:_LONG_DIST + 1] + [("    x 0 : 0.5 # }", "\n")] + LONG[_LONG_DIST + 1:]])
@example(blocks=[LONG[:_LONG_DIST + 1] + [("    x#y 0 : 0.5", "\n")] + LONG[_LONG_DIST + 1:]])
@example(blocks=[LONG[:_LONG_DIST + 1] + [("   ", "\n")] + LONG[_LONG_DIST + 1:]])
@example(blocks=[LONG[:-1] + [("    x 0 : 1e999", "\n")]])
@example(blocks=[LONG[:-1] + [("    x : 0 : 1", "\n")]])
@example(blocks=[LONG[:-1] + [("    : 0 : 0.5", "\n")]])
@example(blocks=[LONG[:-1] + [("    0 : 0 0.5", "\n")]])
@example(blocks=[LONG[:-2] + [("    x 0 : 0.5 y", "\n"), ("    1 : 0.5", "\n")]])
@example(blocks=[LONG[:-2] + [("    x 0 : 0.5 \0 1", "\n"), ("    : 0.5", "\n")]])
@example(blocks=[LONG[:-2] + [("    x 0 : 0.5", "\n"), ("    y 1 : 0.5 z y 1 z 0.5", "\n")]])
def test_dist_rows_read_as_split_at_the_first_colon(blocks):
    """Every dist block, longer than `_LONG_DIST` rows or not, gives the
    table, or the first bad row's error and line, of the plain reading,
    across every line break, comment, blank line, NUL, brace inside a token
    and repeated key, also one repeated from an earlier block; repeated
    probability tokens read alike."""
    text = TWO_TERMS % "".join(
        "  dist U W {\n" + "".join(line + end for line, end in block) + "  }\n"
        for block in blocks)
    want, first = {}, 8
    for block in blocks:
        want = _plain_dist_rows([line.split("#", 1)[0].split() for line, _ in block], first, want)
        if not isinstance(want, dict):
            break
        first += len(block) + 2
    if isinstance(want, dict):
        table = parse_document(text).models["m"].exo_table
        assert list(table.items()) == list(want.items())
    else:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.reason, err.value.line, err.value.column) == (*want, 1)


@pytest.mark.parametrize("closing, reason, last", [
    ("  }\n", "model 'm' is missing its closing brace", 8 + len(LONG)),
    ("", "dist block is missing its closing brace", 7 + len(LONG)),
], ids=["closed", "open"])
def test_a_long_dist_block_at_the_end_of_the_text(closing, reason, last):
    """A dist block longer than `_LONG_DIST` rows that ends the text: the
    error names the last line, its closing brace or, without one, its last
    row."""
    body = "".join(line + "\n" for line, _ in LONG)
    text = (TWO_TERMS % f"  dist U W {{\n{body}{closing}").removesuffix("}\n")
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert (err.value.reason, err.value.line) == (reason, last)


@pytest.mark.parametrize("earlier", [0, 3], ids=["first-block", "after-a-block"])
@pytest.mark.parametrize("late", ["x 0 : 0.5  # a comment", "x 0 : half", "0 0 : 0.5"],
                         ids=["comment", "bad-number", "repeated-key"])
def test_a_dist_block_read_in_part_falls_back_whole(earlier, late):
    """A dist block longer than `_CHUNK` rows, alone or after a block of
    `earlier` rows, whose second chunk holds a comment, a bad number or the
    key of its first row: its first chunk went into the model's table,
    which loses those rows again before the row loop reads the block, so
    the parse gives the plain reading's table or its error, and no
    duplicate row."""
    blocks = [[f"e{i} 0 : 0.25" for i in range(earlier)],
              [f"{i} {i % 3} : 0.5" for i in range(_CHUNK + 10)]]
    blocks[1][_CHUNK + 5] = late
    text = TWO_TERMS % "".join("  dist U W {\n" + "".join(f"    {row}\n" for row in rows)
                               + "  }\n" for rows in blocks if rows)
    want = _plain_dist_rows([row.split() for row in blocks[0]], 8)
    want = _plain_dist_rows([row.split("#", 1)[0].split() for row in blocks[1]],
                            8 + (earlier and earlier + 2), want)
    if isinstance(want, dict):
        assert list(parse_document(text).models["m"].exo_table.items()) == list(want.items())
    else:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.reason, err.value.line) == want


def _commented(text: str) -> str:
    """`text` with a comment after each row of each dist block."""
    lines, opened = text.split("\n"), False
    for i, line in enumerate(lines):
        if opened and line.strip() == "}":
            opened = False
        elif opened and line.strip():
            lines[i] += "  # a row"
        elif line.split()[:1] == ["dist"]:
            opened = True
    return "\n".join(lines)


def test_dist_rows_read_alike_with_a_trailing_comment():
    """Every shipped file, and a model whose dist block is longer than
    `_LONG_DIST` rows, parse to the same document with a comment after each
    dist row, which the block read leaves to the row loop."""
    data = importlib.resources.files("absaudit") / "data"
    texts = [entry.read_text() for sub in ("models", "figures", "witnesses/structural",
                                           "witnesses/distributional")
             for entry in (data / sub).iterdir() if entry.name.endswith((".scm", ".abs"))]
    body = "".join(line + "\n" for line, _ in LONG)
    texts.append(TWO_TERMS % f"  dist U W {{\n{body}  }}\n")
    assert len(texts) == 44
    for text in texts:
        assert _commented(text) != text
        assert parse_document(_commented(text)) == parse_document(text)


ONE_MECH = """\
absaudit-format 1
scm m {
  var A : 0 1
  mech A {
%s
  }
}
"""


def _plain_mech_rows(rows: list[list[str]], first_line: int):
    """The table the mech rows give, or the (reason, line) of the first bad
    row, read plainly: split each row at its first ':'."""
    table = {}
    for line, row in enumerate(rows, first_line):
        if not row:
            continue
        if ":" not in row:
            return "expected a ':' separator", line
        i = row.index(":")
        left, right = row[:i], row[i + 1:]
        if not left or len(right) != 1:
            return "expected 'VALUE... : VALUE'", line
        if tuple(left) in table:
            return f"duplicate mechanism row {' '.join(left)}", line
        table[tuple(left)] = right[0]
    return table


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(["0", "1", ":", "x"]), max_size=5),
                     min_size=1, max_size=6))
def test_mech_rows_read_as_split_at_the_first_colon(rows):
    """Every mech row gives the table, or the first bad row's error and line,
    of the plain reading."""
    text = ONE_MECH % "\n".join(" ".join(row) for row in rows)
    want = _plain_mech_rows(rows, 5)
    if isinstance(want, dict):
        table = parse_document(text).models["m"].mechanisms["A"]
        assert list(table.items()) == list(want.items())
    else:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.reason, err.value.line, err.value.column) == (*want, 1)


ONE_EDGES = """\
absaudit-format 1
abs a {
  source s
  target t
  direction micro-to-macro
  edges {
%s
  }
}
"""


def _plain_path(token: str) -> tuple[str, ...] | None:
    """The nodes of a path token (`A^A` is the identity on A); None when
    one is empty."""
    parts = token.split("^")
    if not all(parts):
        return None
    return (parts[0],) if len(parts) == 2 and parts[0] == parts[1] else tuple(parts)


def _plain_edge_rows(rows: list[list[str]], first_line: int):
    """The edge map (as node tuples) the edges rows give, or the (reason,
    line) of the first bad row, read plainly: split each row at its first
    ':', then read the key, check it is new, and read the image."""
    table = {}
    for line, row in enumerate(rows, first_line):
        if not row:
            continue
        if ":" not in row:
            return "expected a ':' separator", line
        i = row.index(":")
        left, right = row[:i], row[i + 1:]
        if len(left) != 1 or len(right) != 1:
            return "expected 'PATH : PATH'", line
        key = _plain_path(left[0])
        if key is None:
            return f"malformed path {left[0]!r}", line
        if key in table:
            return f"duplicate edge row {left[0]}", line
        table[key] = _plain_path(right[0])
        if table[key] is None:
            return f"malformed path {right[0]!r}", line
    return table


@settings(max_examples=400, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(["A", "A^A", "A^B", "B^^", ":", "x"]),
                              max_size=4), min_size=1, max_size=6))
def test_edge_rows_read_as_split_at_the_first_colon(rows):
    """Every edges row gives the edge map, or the first bad row's error and
    line, of the plain reading."""
    text = ONE_EDGES % "\n".join(" ".join(row) for row in rows)
    want = _plain_edge_rows(rows, 7)
    if isinstance(want, dict):
        edge_map = parse_document(text).abstractions["a"].structure.edge_map
        assert list(edge_map.items()) == list(want.items())
    else:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert (err.value.reason, err.value.line, err.value.column) == (*want, 1)


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(st.lists(st.text(max_size=3)), st.lists(st.integers()),
                        st.lists(st.one_of(st.text(max_size=3), st.integers()))).map(tuple))
def test_join_is_str_of_each_label_joined(values):
    """Labels are joined as `str` writes each: strings, integers, or both."""
    assert join_labels(values) == " ".join(map(str, values))
