"""Command-line interface, driven through main(argv)."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.resources
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import absaudit
from absaudit import textfmt
from absaudit.abstraction import OutcomeMap, pushforward
from absaudit.cli import _dist_rows, _print_dist, build_parser, main
from absaudit.scm import Distribution, intervene, joint_distribution, marginal
from absaudit.textfmt import Document, emit_document, join_labels, parse_document

from helpers import abstraction, mutate, mutated_text, random_model
from oracles import block
from test_collector import SHIPPED, _commands

DATA = importlib.resources.files("absaudit") / "data"
CHAIN = str(DATA / "models" / "chain3_micro.scm")
CONFOUNDED = str(DATA / "models" / "confounded_micro.scm")
FIG3A = str(DATA / "figures" / "fig3a.abs")
FIG7A = str(DATA / "figures" / "fig7a.abs")
FIG9B = str(DATA / "figures" / "fig9b.abs")
COARSEN = str(DATA / "witnesses" / "structural" / "node-coarsening.abs")
EDGE_COARSEN = str(DATA / "witnesses" / "structural" / "edge-coarsening.abs")
DROPPING = str(DATA / "witnesses" / "distributional" / "outcome-dropping.abs")
DROPPING_TEXT = Path(DROPPING).read_text()

BAD_SCM = """\
absaudit-format 1

scm broken {
  var A : 0 1
  exo U_A : 0 1 for A
  dist U_A {
    0 : 0.6
    1 : 0.5
  }
  mech A {
    0 : 0
    1 : 1
  }
}
"""


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_ok(capsys):
    assert main(["validate", CHAIN]) == 0
    out = capsys.readouterr().out
    assert "model chain3_micro: ok" in out


def test_validate_reports_issues(tmp_path, capsys):
    p = tmp_path / "bad.scm"
    p.write_text(BAD_SCM)
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "model broken: INVALID" in out
    assert "[dist-total]" in out


def test_an_exo_line_attaches_only_to_variables_above_it(tmp_path, capsys):
    """`exo` before `var` leaves the variable unattached."""
    p = tmp_path / "early.scm"
    p.write_text(BAD_SCM.replace("  var A : 0 1\n  exo U_A : 0 1 for A\n",
                                 "  exo U_A : 0 1 for A\n  var A : 0 1\n")
                 .replace("0 : 0.6", "0 : 0.5"))
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert "[unknown-exogenous] A has no exo term\n" in out
    assert "[exogenous-attachment] A must have exactly one attached exogenous variable" in out


def test_validate_json(tmp_path, capsys):
    assert main(["--format", "json", "validate", FIG3A]) == 0
    payload = json.loads(capsys.readouterr().out)
    kinds = {(entry["kind"], entry["name"]) for entry in payload}
    assert ("abstraction", "fig3a") in kinds
    assert all(entry["ok"] for entry in payload)


def test_parse_error_exits_1(tmp_path, capsys):
    p = tmp_path / "junk.scm"
    p.write_text("not a document\n")
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().err.startswith("parse error: ")


def test_missing_file_exits_1(capsys):
    assert main(["validate", "/nonexistent/file.scm"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["validate", "{path}"], ["tables", "--which", "structural", "--truth", "{path}"]],
)
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, argv):
    p = tmp_path / "binary.abs"
    p.write_bytes(b"\xff\xfe")
    assert main([arg.format(path=p) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 1, column 1: invalid UTF-8 byte 0xff")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("    0 : 0.2\n", "    0 : nan\n"),
        ("    S : S' 1.0\n", "    S : S' nan\n"),
        ("    1 : 0 1.0\n", "    1 : 0 inf\n"),
    ],
    ids=["dist-row", "node-row", "outcome-row"],
)
def test_non_finite_weight_is_a_parse_error(tmp_path, capsys, old, new):
    p = tmp_path / "nan.abs"
    p.write_text(DROPPING_TEXT.replace(old, new, 1))
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")
    assert "expected a finite number" in captured.err


# ---------------------------------------------------------------------------
# usage errors and the shared parser
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, message",
    [
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["validate"], "the following arguments are required: files"),
        (["--format", "xml", "validate", CHAIN], "invalid choice: 'xml'"),
    ],
    ids=["unknown-command", "missing-file", "bad-format"],
)
def test_usage_error_exits_2_and_keeps_no_state(capsys, argv, message):
    errs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: absaudit")
        assert message in captured.err
        errs.append(captured.err)
    assert errs[0] == errs[1]


def test_usage_error_then_a_good_call_write_to_the_current_streams(capsys):
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit):
            main(["validate"])
        assert err.getvalue().startswith("usage: absaudit")
        assert capsys.readouterr() == ("", "")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["validate", CHAIN]) == 0
        assert "model chain3_micro: ok" in out.getvalue()
        assert capsys.readouterr() == ("", "")


def test_do_default_is_not_shared_between_calls(capsys):
    assert main(["dist", CHAIN]) == 0
    plain = capsys.readouterr().out
    assert main(["dist", CHAIN, "--do", "S=1"]) == 0
    assert capsys.readouterr().out != plain
    assert main(["dist", CHAIN]) == 0
    assert capsys.readouterr().out == plain


def _help(run, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        run(argv)
    assert exit_info.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [["--help"], ["push", "--help"]])
def test_help_follows_the_terminal_width_at_call_time(monkeypatch, argv):
    build_parser()
    texts = []
    for width in ("40", "160"):
        monkeypatch.setenv("COLUMNS", width)
        text = _help(main, argv)
        assert text == _help(build_parser.__wrapped__().parse_args, argv)
        texts.append(text)
    assert texts[0] != texts[1]


def _fresh_python(code: str, *argv: str) -> str:
    """The output of `code` run with `argv` in a new interpreter that
    imports this absaudit."""
    src = str(Path(absaudit.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return run.stdout


def test_importing_the_cli_builds_no_parser():
    code = (
        "import absaudit.cli as cli; "
        "print(cli.build_parser.cache_info().currsize)"
    )
    assert _fresh_python(code).strip() == "0"


# Run in a fresh interpreter: which of the lazily loaded modules have run
# their bodies after `import absaudit.cli`, and after one call of `main`.  A
# module has run when its dict holds the function it defines; the dict is read
# past the module's `__getattribute__`, which would run the body.
_RUN_MODULES = """\
import contextlib, io, json, sys
import absaudit.cli

DEFINES = {"audit": "audit_abstraction", "dot": "model_dot", "taxonomy": "detect_types"}

def ran():
    return sorted(name for name, func in DEFINES.items()
                  if func in object.__getattribute__(sys.modules["absaudit." + name], "__dict__"))

before = ran()
with contextlib.redirect_stdout(io.StringIO()):
    code = absaudit.cli.main(sys.argv[1:])
print(json.dumps([before, code, ran()]))
"""


@pytest.mark.parametrize("argv, runs", [
    (["validate", FIG7A], []),
    (["dist", CHAIN], []),
    (["push", "--renormalize", DROPPING], []),
    (["graph", CHAIN], []),
    (["graph", "--hom", "S", "C", CHAIN], []),
    (["--format", "json", "audit", FIG7A], ["audit"]),
    (["graph", "--dot", CHAIN], ["dot"]),
    (["graph", "--dot", "--abs", "fig7a", FIG7A], ["dot"]),
    (["classify", FIG7A], ["audit", "taxonomy"]),
    (["tables", "--which", "structural"], ["audit", "taxonomy"]),
])
def test_a_command_runs_only_the_modules_it_uses(argv, runs):
    assert json.loads(_fresh_python(_RUN_MODULES, *argv)) == [[], 0, runs]


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_text(capsys):
    assert main(["graph", CHAIN]) == 0
    out = capsys.readouterr().out
    assert "model chain3_micro" in out
    assert "  nodes: S T C" in out
    assert "  S -> T" in out and "  T -> C" in out


def test_graph_json(capsys):
    assert main(["--format", "json", "graph", CHAIN]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nodes"] == ["S", "T", "C"]
    assert ["S", "T"] in payload["edges"]


def test_graph_dot(capsys):
    assert main(["graph", CHAIN, "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "chain3_micro" {')


def test_graph_hom(capsys):
    assert main(["graph", CHAIN, "--hom", "S", "C"]) == 0
    out = capsys.readouterr().out
    assert "hom(S, C) in chain3_micro: 1 morphism(s)" in out
    assert "  S^T^C" in out


def test_graph_hom_json(capsys):
    assert main(["--format", "json", "graph", CHAIN, "--hom", "S", "C"]) == 0
    assert json.loads(capsys.readouterr().out) == ["S^T^C"]


def test_graph_hom_on_a_long_chain(tmp_path, capsys):
    # One value per variable and per noise term keeps the file small.
    names = [f"X{i}" for i in range(1200)]
    lines = ["absaudit-format 1", "", "scm long {"]
    for i, name in enumerate(names):
        parents = f" parents {names[i - 1]}" if i else ""
        lines.append(f"  var {name} : 0{parents}")
        lines.append(f"  exo U_{name} : 0 for {name}")
    lines.append(f"  dist {' '.join(f'U_{n}' for n in names)} {{")
    lines.append(f"    {' '.join('0' for _ in names)} : 1.0")
    lines.append("  }")
    for i, name in enumerate(names):
        lines += [f"  mech {name} {{", f"    {'0 ' if i else ''}0 : 0", "  }"]
    lines.append("}")
    p = tmp_path / "long.scm"
    p.write_text("\n".join(lines) + "\n")
    assert main(["graph", str(p), "--hom", "X0", "X1199"]) == 0
    assert "hom(X0, X1199) in long: 1 morphism(s)" in capsys.readouterr().out


def test_graph_hom_on_a_cyclic_model(tmp_path, capsys):
    p = tmp_path / "cyclic.scm"
    p.write_text(
        "absaudit-format 1\n\nscm c {\n"
        "  var A : 0 parents B\n  var B : 0 parents A\n"
        "  exo U_A : 0 for A\n  exo U_B : 0 for B\n"
        "  dist U_A U_B {\n    0 0 : 1.0\n  }\n"
        "  mech A {\n    0 0 : 0\n  }\n  mech B {\n    0 0 : 0\n  }\n}\n"
    )
    assert main(["graph", str(p), "--hom", "A", "B"]) == 1
    assert capsys.readouterr().err == "error: the graph has a cycle\n"


def test_graph_hom_capacity_exit(monkeypatch, capsys):
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "1")
    assert main(["graph", EDGE_COARSEN, "--model", "w3direct_micro",
                 "--hom", "A", "C"]) == 3
    assert capsys.readouterr().err.startswith("capacity: ")


@pytest.mark.parametrize("raw, words", [
    ("abc", "must be an integer, got 'abc'"),
    ("0", "must be positive, got 0"),
    ("-3", "must be positive, got -3"),
])
@pytest.mark.parametrize("argv", [
    ["dist", CHAIN],
    ["graph", EDGE_COARSEN, "--model", "w3direct_micro", "--hom", "A", "C"],
    ["push", DROPPING],
])
def test_a_cap_that_is_not_a_positive_integer_is_an_error(monkeypatch, capsys, raw, words, argv):
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", raw)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: ABSAUDIT_ENUM_CAP {words}\n")


@pytest.mark.parametrize("command", ["audit", "classify"])
def test_audit_and_classify_ignore_the_enumeration_cap(monkeypatch, capsys, command):
    # Both count paths; neither lists a hom-set, so no cap applies.
    assert main(["--format", "json", command, EDGE_COARSEN]) == 0
    uncapped = capsys.readouterr().out
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "1")
    assert main(["--format", "json", command, EDGE_COARSEN]) == 0
    assert capsys.readouterr().out == uncapped


def test_graph_abs_requires_dot(capsys):
    assert main(["graph", FIG3A, "--abs", "fig3a"]) == 1
    assert "--abs on the graph command requires --dot" in capsys.readouterr().err


def test_graph_abs_dot(capsys):
    assert main(["graph", FIG3A, "--abs", "fig3a", "--dot"]) == 0
    out = capsys.readouterr().out
    assert "subgraph cluster_src {" in out
    assert "style=dotted" in out


def test_graph_model_ambiguity(capsys):
    assert main(["graph", FIG3A]) == 1
    assert "several models loaded; choose one with --model" in (
        capsys.readouterr().err
    )
    assert main(["graph", FIG3A, "--model", "nope"]) == 1
    assert "no model named 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, kind", [("audit", "abstraction"), ("dist", "model")]
)
def test_nothing_to_pick(tmp_path, capsys, command, kind):
    p = tmp_path / "empty.abs"
    p.write_text("absaudit-format 1\n")
    assert main([command, str(p)]) == 1
    assert capsys.readouterr().err == f"error: no {kind} found in the given files\n"


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------

def test_dist_joint(capsys):
    assert main(["dist", CHAIN]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "S T C"
    assert len(lines) == 9
    assert all(line.endswith(" : 0.125") for line in lines[1:])


def test_dist_marginal(capsys):
    assert main(["dist", CHAIN, "--marginal", "C"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["C", "0 : 0.5", "1 : 0.5"]


def test_dist_do(capsys):
    assert main(["dist", CHAIN, "--do", "T=1", "--marginal", "T"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["T", "1 : 1.0"]


def test_dist_do_bad_syntax(capsys):
    assert main(["dist", CHAIN, "--do", "T:1"]) == 1
    assert "--do expects VAR=VALUE" in capsys.readouterr().err


def test_dist_json(capsys):
    assert main(["--format", "json", "dist", CHAIN, "--marginal", "S"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"scope": ["S"], "probs": {"0": 0.5, "1": 0.5}}


def test_dist_validates_first(tmp_path, capsys):
    p = tmp_path / "bad.scm"
    p.write_text(BAD_SCM)
    assert main(["dist", str(p)]) == 1
    assert "[dist-total]" in capsys.readouterr().err


def test_classify_validates_first(tmp_path, capsys):
    identity = DATA / "witnesses" / "structural" / "identity.abs"
    p = tmp_path / "half.abs"
    p.write_text(identity.read_text().replace("    A : X 1.0\n", "    A : X 0.5\n"))
    assert main(["classify", str(p)]) == 1
    captured = capsys.readouterr()
    assert "[map-row-total]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("line, name", [("  var B : 0 1 parents A", "B"),
                                        ("  var Y : 0 1 parents X", "Y")],
                         ids=["source", "target"])
@pytest.mark.parametrize("command", ["audit", "classify"])
def test_audit_and_classify_refuse_an_unknown_parent(tmp_path, capsys, command, line, name):
    """A parent that the map's source or target does not declare gets
    `validate`'s `unknown-parent` issue on stderr and exit 1, no verdict."""
    identity = DATA / "witnesses" / "structural" / "identity.abs"
    p = tmp_path / "unknown-parent.abs"
    p.write_text(identity.read_text().replace(line, line + " Z", 1))
    for fmt in ([], ["--format", "json"]):
        assert main([*fmt, command, str(p)]) == 1
        assert capsys.readouterr() == ("", f"[unknown-parent] {name} lists unknown parent Z\n")
    assert main(["validate", str(p)]) == 1
    assert f"  [unknown-parent] {name} lists unknown parent Z" in capsys.readouterr().out


@pytest.mark.parametrize("old, new, issues", [
    ("  var A : 0 1\n", "  var A : 0 1 parents B\n", ["[cyclic] the parent relation has a cycle"]),
    ("  var B : 0 1 parents A\n", "  var B : 0 1 parents A B\n",
     ["[self-parent] B lists itself as a parent", "[cyclic] the parent relation has a cycle"]),
    ("  var Y : 0 1 parents X\n", "  var Y : 0 1 parents Z X Y\n",
     ["[unknown-parent] Y lists unknown parent Z", "[self-parent] Y lists itself as a parent",
      "[cyclic] the parent relation has a cycle"]),
], ids=["cycle", "self-parent", "target"])
@pytest.mark.parametrize("command", ["audit", "classify", "push"])
def test_audit_and_classify_refuse_a_self_parent_or_a_cycle(tmp_path, capsys, command, old, new,
                                                            issues):
    """A self-parent or a cycle in the map's source or target gets the
    issues `validate` gives the graph, in its order, on stderr and exit 1,
    no verdict and no traceback."""
    identity = DATA / "witnesses" / "structural" / "identity.abs"
    p = tmp_path / "cyclic.abs"
    p.write_text(identity.read_text().replace(old, new, 1))
    for fmt in ([], ["--format", "json"]):
        assert main([*fmt, command, str(p)]) == 1
        assert capsys.readouterr() == ("", "".join(f"{issue}\n" for issue in issues))
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert [line.strip() for line in out.splitlines() if line.strip() in issues] == issues


@pytest.mark.parametrize("old, new, issues", [
    ("  var B : 0 1 parents A\n", "  var B : 0 1 parents A\n" * 2,
     ["[dup-variable] duplicate endogenous variable names"]),
    ("  var A : 0 1\n  var B : 0 1 parents A\n  exo U_A : 0 1 for A\n",
     "  exo U_A : 0 1 for A\n  var A : 0 1\n  var B : 0 1 parents A\n",
     ["[unknown-exogenous] A has no exo term",
      "[exogenous-attachment] A must have exactly one attached exogenous variable"]),
], ids=["dup-variable", "exo-before-var"])
@pytest.mark.parametrize("command", ["audit", "classify", "push"])
def test_audit_and_classify_refuse_every_graph_fault(tmp_path, capsys, command, old, new, issues):
    """The identity witness with its `var B` line twice, or with its first
    `exo` line above the `var` lines, so A has no exo term: the graph faults
    `validate` gives the source, in its order, on stderr and exit 1, with
    nothing on stdout, where a verdict would read a malformed model."""
    identity = DATA / "witnesses" / "structural" / "identity.abs"
    p = tmp_path / "faulty.abs"
    p.write_text(identity.read_text().replace(old, new, 1))
    for fmt in ([], ["--format", "json"]):
        assert main([*fmt, command, str(p)]) == 1
        assert capsys.readouterr() == ("", "".join(f"{issue}\n" for issue in issues))
    assert main(["validate", str(p)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("model w2_micro: INVALID\n" + "".join(f"  {i}\n" for i in issues))


@settings(max_examples=300, deadline=None)
@given(
    scope=st.lists(st.text(max_size=4), max_size=3),
    probs=st.dictionaries(
        st.lists(st.one_of(st.text(st.sampled_from('ab" \\\x00\x1f\x7f\xe9\u2028\U0001f600'),
                                   max_size=3), st.integers(-3, 12)),
                 min_size=1, max_size=3).map(tuple),
        st.one_of(st.sampled_from([5e-324, 0.1 + 0.2, 1e300, -1e300, 0.0, -0.0, 1.0,
                                   float("inf"), float("-inf"), float("nan")]),
                  st.floats()),
        max_size=8),
    chunk=st.sampled_from((1, 3, textfmt._CHUNK)),
)
def test_dist_json_is_json_dumps_written_a_label_at_a_time(scope, probs, chunk):
    """`dist --format json` and `push --format json` print the bytes of
    `json.dumps(payload, sort_keys=True)`: escapes, non-ASCII, integer
    labels, the shortest float text and json's NaN and Infinity, also when
    the labels are written `chunk` at a time."""
    dist = Distribution(scope=tuple(scope), domains=(), probs=probs)
    want = json.dumps({"scope": scope,
                       "probs": {join_labels(k): p for k, p in probs.items() if p != 0.0}},
                      sort_keys=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(textfmt, "_CHUNK", chunk):
        _print_dist(dist, as_json=True)
    assert out.getvalue() == want + "\n"


_LABEL = st.one_of(st.text(st.sampled_from("ab1 \u2028"), max_size=2), st.integers(-3, 12))


@settings(max_examples=300, deadline=None)
@given(domains=st.lists(st.lists(_LABEL, min_size=1, max_size=3, unique=True).map(tuple),
                        max_size=3),
       data=st.data(), chunk=st.sampled_from((1, 3, textfmt._CHUNK)))
def test_dist_text_is_printed_a_row_at_a_time(domains, data, chunk):
    """`dist` and `push` in text print the bytes of `print` of the scope,
    then of `label : repr(weight)` per nonzero outcome in row-major order,
    an outcome outside the domains left out, also when the rows are
    written `chunk` at a time: integer labels, zeros, NaN and the shortest
    float text."""
    outcomes = list(itertools.product(*domains)) + [("x",) * len(domains)]
    weights = st.sampled_from([0.0, -0.0, 0.25, 0.1 + 0.2, 5e-324, -1.0, float("nan"), 1])
    probs = data.draw(st.dictionaries(st.sampled_from(outcomes), weights))
    dist = Distribution(tuple(f"V{i}" for i in range(len(domains))), tuple(domains), probs)
    want = io.StringIO()
    with contextlib.redirect_stdout(want):
        print(" ".join(dist.scope))
        for outcome in itertools.product(*domains):
            if probs.get(outcome, 0.0) != 0.0:
                print(f"{join_labels(outcome)} : {probs[outcome]!r}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(textfmt, "_CHUNK", chunk):
        _print_dist(dist, as_json=False)
    assert out.getvalue() == want.getvalue()


def test_dist_rows_follow_the_domains_and_skip_zeros():
    dist = Distribution(
        scope=("A", "B"),
        domains=(("1", "0"), ("x", "y")),
        probs={("0", "y"): 0.25, ("1", "y"): 0.0, ("9", "x"): 0.5,
               ("0", "x"): 0.25, ("1", "x"): 0.5},
    )
    assert _dist_rows(dist) == [("1 x", 0.5), ("0 x", 0.25), ("0 y", 0.25)]


def _random_push_file(rng: random.Random, directory: str) -> str:
    """A file holding a random model `rnd`, a random model `tgt` and a map
    `a` between them: the variables of `rnd` go onto those of `tgt`, each
    hit, and the outcome map of each sends every outcome of its block to one
    value or to two, with weights that sum to one exactly."""
    source = random_model(rng)
    target = dataclasses.replace(random_model(rng, len(source.variables)), name="tgt")
    names = rng.sample(source.variable_names, len(source.variables))
    owner = dict(zip(names, target.variable_names))  # a block holds at least one variable
    owner.update((v, rng.choice(target.variable_names)) for v in names[len(owner):])
    maps = []
    for y in target.variable_names:
        sources = tuple(v for v in source.variable_names if owner[v] == y)
        values = [(x,) for x in target.domain_of(y)]
        rows = {}
        for key in block(source, sources):
            picked = rng.sample(values, 2)
            rows[key] = rng.choice(({picked[0]: 1.0}, dict(zip(picked, (0.25, 0.75)))))
        maps.append(OutcomeMap(target=y, sources=sources, rows=rows))
    a = abstraction("a", source, target, owner, outcomes=maps)
    path = os.path.join(directory, "push.abs")
    Path(path).write_text(emit_document(Document({"rnd": source, "tgt": target}, {"a": a})),
                          encoding="utf-8")
    return path


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_json_distributions_equal_the_ranked_rows(seed):
    """`--format json` of dist, dist --do, dist --marginal and push on a
    random file prints the JSON built from the ranked rows of `_dist_rows`."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as directory:
        path = _random_push_file(rng, directory)
        doc = parse_document(Path(path).read_text(encoding="utf-8"))
        source, target = doc.models["rnd"], doc.models["tgt"]
        v = rng.choice(source.variables)
        x = rng.choice(v.domain)
        kept = rng.sample(source.variable_names, rng.randint(1, len(source.variables)))
        joint = joint_distribution(source)
        cases = [
            (["dist", path, "--model", "rnd"], joint),
            (["dist", path, "--model", "rnd", "--do", f"{v.name}={x}"],
             joint_distribution(intervene(source, {v.name: x}))),
            (["dist", path, "--model", "rnd", "--marginal", ",".join(kept)],
             marginal(joint, kept)),
            (["push", path], pushforward(doc.abstractions["a"], joint, source, target)),
        ]
        for argv, dist in cases:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["--format", "json", *argv]) == 0
            want = {"scope": list(dist.scope), "probs": dict(_dist_rows(dist))}
            assert out.getvalue() == json.dumps(want, sort_keys=True) + "\n", argv


def test_dist_capacity(monkeypatch, capsys):
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "2")
    assert main(["dist", CHAIN]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity: ")
    assert "exceeding the enumeration cap of 2" in err


def _sparse_chain(name: str, prefix: str, n: int) -> tuple[list[str], list[tuple]]:
    """A binary parity chain X_j = X_(j-1) xor U_j whose noise has n+1 rows
    (all zero, and each one-hot) out of 2^n: the model's lines and rows."""
    noise = [(0,) * n] + [tuple(int(j == k) for j in range(n)) for k in range(n)]
    weights = [(k + 1) / ((n + 1) * (n + 2) / 2) for k in range(n + 1)]
    names = [f"{prefix}{j}" for j in range(n)]
    lines = [f"scm {name} {{"]
    for j, v in enumerate(names):
        lines.append(f"  var {v} : 0 1" + (f" parents {names[j - 1]}" if j else ""))
    lines += [f"  exo U_{v} : 0 1 for {v}" for v in names]
    lines.append(f"  dist {' '.join(f'U_{v}' for v in names)} {{")
    lines += [f"    {' '.join(map(str, u))} : {w!r}" for u, w in zip(noise, weights)]
    lines.append("  }")
    for j, v in enumerate(names):
        rows = ["    0 : 0", "    1 : 1"]
        if j:
            rows = [f"    {x} {u} : {x ^ u}" for x in (0, 1) for u in (0, 1)]
        lines += [f"  mech {v} {{", *rows, "  }"]
    return lines + ["}"], list(zip(noise, weights))


def _simulated(rows, forced=None) -> dict[str, float]:
    """The printed joint of the chain, by running each noise row forward."""
    out: dict[str, float] = {}
    for noise, w in rows:
        x, values = 0, []
        for j, u in enumerate(noise):
            x = forced[j] if forced and j in forced else x ^ u
            values.append(x)
        key = " ".join(map(str, values))
        out[key] = out.get(key, 0.0) + w
    return dict(sorted(out.items()))


def test_sparse_noise_with_a_dense_space_beyond_the_cap(tmp_path, capsys):
    # 40 binary noise terms span 2^40 joint values; the table stores 41.
    n = 40
    source, rows = _sparse_chain("big", "X", n)
    target, _ = _sparse_chain("macro", "Y", n)
    mapping = ["abs lift {", "  source big", "  target macro",
               "  direction micro-to-macro", "  nodes {"]
    mapping += [f"    X{j} : Y{j} 1.0" for j in range(n)] + ["  }"]
    for j in range(n):
        mapping += [f"  outcomes Y{j} from X{j} {{", "    0 : 0 1.0", "    1 : 1 1.0", "  }"]
    mapping.append("}")
    text = "\n\n".join(["absaudit-format 1", *("\n".join(b) for b in (source, target, mapping))])
    path = tmp_path / "big.abs"
    path.write_text(text + "\n")
    xs, ys = " ".join(f"X{j}" for j in range(n)), " ".join(f"Y{j}" for j in range(n))

    def printed(scope, joint):
        return "\n".join([scope] + [f"{k} : {p!r}" for k, p in joint.items()]) + "\n"

    want = _simulated(rows)
    assert len(want) == n + 1
    assert main(["dist", str(path), "--model", "big"]) == 0
    assert capsys.readouterr().out == printed(xs, want)
    assert main(["dist", str(path), "--model", "big", "--do", "X20=1"]) == 0
    assert capsys.readouterr().out == printed(xs, _simulated(rows, {20: 1}))
    assert main(["push", str(path)]) == 0
    assert capsys.readouterr().out == printed(ys, want)

    emitted = emit_document(parse_document(text))
    assert emit_document(parse_document(emitted)) == emitted
    block = emitted.split("  dist U_X0")[1].split("  }")[0].splitlines()[1:]
    assert len(block) == n + 1


def _wide_block(n: int) -> str:
    """n parentless binary X_j whose noise has one row, all zeros, mapped
    onto one binary Y by an outcome map with two rows: all zeros to 0 and
    all ones to 1.  The block X_0..X_(n-1) has 2^n outcomes."""
    xs = [f"X{j}" for j in range(n)]
    zeros, ones = " ".join("0" * n), " ".join("1" * n)
    lines = ["absaudit-format 1", "", "scm wide {", *(f"  var {x} : 0 1" for x in xs)]
    lines += [f"  exo U_{x} : 0 1 for {x}" for x in xs]
    lines += [f"  dist {' '.join('U_' + x for x in xs)} {{", f"    {zeros} : 1.0", "  }"]
    for x in xs:
        lines += [f"  mech {x} {{", "    0 : 0", "    1 : 1", "  }"]
    lines += ["}", "", "scm narrow {", "  var Y : 0 1", "  exo U_Y : 0 1 for Y",
              "  dist U_Y {", "    0 : 0.5", "    1 : 0.5", "  }",
              "  mech Y {", "    0 : 0", "    1 : 1", "  }", "}", ""]
    lines += ["abs squash {", "  source wide", "  target narrow",
              "  direction micro-to-macro", "  nodes {", *(f"    {x} : Y 1.0" for x in xs), "  }"]
    lines += [f"  outcomes Y from {' '.join(xs)} {{", f"    {zeros} : 0 1.0",
              f"    {ones} : 1 1.0", "  }", "}"]
    return "\n".join(lines) + "\n"


def test_two_row_outcome_map_over_a_40_variable_block(tmp_path, capsys):
    # Validation and the audits count the 2^40 block outcomes, never list them.
    path = tmp_path / "wide.abs"
    path.write_text(_wide_block(40))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.endswith("abstraction squash: ok\n")
    assert main(["--format", "json", "audit", str(path)]) == 0
    (y,) = json.loads(capsys.readouterr().out)["outcomes"]
    assert (y["functional"], y["surjective"], y["injective"]) == (False, True, True)
    assert main(["--format", "json", "classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["distributional"] == ["outcome-dropping"]
    assert main(["push", str(path)]) == 0
    assert capsys.readouterr().out == "Y\n0 : 1.0\n"


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_text(capsys):
    assert main(["audit", FIG9B]) == 0
    out = capsys.readouterr().out
    assert out.startswith("audit of fig9b")
    assert "faithful" in out


def test_audit_json(capsys):
    assert main(["--format", "json", "audit", FIG9B]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["functor"]["faithful"] is False
    assert payload["functor"]["faithful_parallel"] is True
    assert payload["node"]["surjective"] is True


def test_audit_require_pass(capsys):
    assert main(["audit", FIG9B, "--require", "full,faithful-parallel"]) == 0


def test_audit_require_fail(capsys):
    assert main(["audit", FIG9B, "--require", "faithful"]) == 1
    assert "required properties not satisfied: faithful" in (
        capsys.readouterr().err
    )


def test_audit_require_unknown(capsys):
    """Every name is checked before the profile is printed: an unknown one,
    even after a known one, or a blank one, prints nothing on stdout.  The
    error says how a printed row is named when it is not named as printed."""
    assert main(["audit", FIG9B, "--require", "perfect-node"]) == 1
    out, err = capsys.readouterr()
    assert "unknown property 'perfect-node'" in err
    assert "bijective" in err  # lists the available names
    assert err.endswith(". A row under invertibility: is required as <row>-invertible, and an"
                        " outcome-summary row as outcome-<row>\n")
    assert out == ""
    for fmt in ([], ["--format", "json"]):
        for names, unknown in (("functorial,shiny", "shiny"), (" ", "")):
            assert main([*fmt, "audit", FIG9B, "--require", names]) == 1
            out, err = capsys.readouterr()
            assert out == "" and f"error: unknown property {unknown!r}; choose from " in err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_text(capsys):
    assert main(["classify", COARSEN]) == 0
    out = capsys.readouterr().out
    assert "classification of witness_node_coarsening" in out
    assert "structural: node-coarsening" in out
    assert "distributional: (none)" in out


def test_classify_json(capsys):
    assert main(["--format", "json", "classify", COARSEN]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"structural": ["node-coarsening"], "distributional": []}


def test_classify_pairs_nodes_by_name_not_by_declaration_order(tmp_path, capsys):
    """fig2a, with no `pairs` block, stays an identity when its target model
    declares T' above S'."""
    text = (DATA / "figures" / "fig2a.abs").read_text()
    swapped = text.replace("  var S' : 0 1\n  var T' : 0 1 parents S'\n",
                           "  var T' : 0 1 parents S'\n  var S' : 0 1\n")
    assert swapped != text
    path = tmp_path / "fig2a.abs"
    path.write_text(swapped)
    assert main(["--format", "json", "classify", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["structural"] == ["identity"]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_both(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "structural admissibility" in out
    assert "distributional admissibility" in out
    assert "matches ground truth (110/110 cells)" in out
    assert "matches ground truth (36/36 cells)" in out


def test_tables_single(capsys):
    assert main(["tables", "--which", "distributional"]) == 0
    out = capsys.readouterr().out
    assert "structural admissibility" not in out
    assert "matches ground truth (36/36 cells)" in out


def test_tables_truth_match(tmp_path, capsys):
    from absaudit.taxonomy import shipped_table

    p = tmp_path / "truth.tbl"
    p.write_text(shipped_table("structural").to_tbl())
    assert main(["tables", "--which", "structural", "--truth", str(p)]) == 0


def test_tables_truth_mismatch(tmp_path, capsys):
    from absaudit.taxonomy import shipped_table

    text = shipped_table("structural").to_tbl().replace(
        "row Fullness : Y N Y Y Y N N N N N -",
        "row Fullness : Y N Y Y Y Y N N N N -",
    )
    p = tmp_path / "truth.tbl"
    p.write_text(text)
    assert main(["tables", "--which", "structural", "--truth", str(p)]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH against ground truth:" in out
    assert "(Fullness, Edge embedding): × vs ✓" in out


@pytest.mark.parametrize("label, words", [
    ("row Fullness", "row labels differ"),
    ("col Edge embedding", "column labels differ"),
])
def test_tables_truth_with_other_labels_compares_no_cell(tmp_path, capsys, label, words):
    from absaudit.taxonomy import shipped_table

    p = tmp_path / "truth.tbl"
    p.write_text(shipped_table("structural").to_tbl().replace(label, label + "s"))
    assert main(["tables", "--which", "structural", "--truth", str(p)]) == 1
    out = capsys.readouterr().out
    assert out.endswith(f"MISMATCH against ground truth:\n  {words}\n\n")


def test_tables_truth_needs_single_which(capsys):
    assert main(["tables", "--truth", "whatever.tbl"]) == 2
    assert "--truth needs --which structural or distributional" in (
        capsys.readouterr().err
    )


def test_tables_json(capsys):
    assert main(["--format", "json", "tables", "--which", "distributional"]) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["distributional"]
    assert entry["matches_ground_truth"] is True
    assert entry["differences"] == []
    assert entry["cells"]["Bijectivity | Coarsening"] == "N"


# ---------------------------------------------------------------------------
# push
# ---------------------------------------------------------------------------

def test_push(capsys):
    assert main(["push", FIG3A]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "S' C'"
    assert len(lines) == 5
    assert all(line.endswith(" : 0.25") for line in lines[1:])


def test_push_do(capsys):
    assert main(["push", FIG3A, "--do", "S=1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["S' C'", "1 0 : 0.5", "1 1 : 0.5"]


def test_push_partial_requires_renormalize(capsys):
    assert main(["push", DROPPING]) == 1
    assert "renormalization required" in capsys.readouterr().err
    assert main(["push", DROPPING, "--renormalize"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "S'"
    probs = {line.split(" : ")[0]: float(line.split(" : ")[1]) for line in lines[1:]}
    assert probs["0"] == pytest.approx(0.375, abs=1e-9)
    assert probs["1"] == pytest.approx(0.625, abs=1e-9)


@pytest.mark.parametrize("row, issue", [
    ("9 0 0 : 0.125", "[dist-key] exogenous table key ('9', '0', '0') is out of range"),
    ("0 0 0 : 0.625", "[dist-total] exogenous table sums to 1.5, not 1"),
], ids=["dist-key", "dist-total"])
def test_push_validates_its_source_model(tmp_path, capsys, row, issue):
    path = tmp_path / "fig3a.abs"
    path.write_text(Path(FIG3A).read_text().replace("0 0 0 : 0.125", row, 1))
    assert main(["push", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [issue]


def test_push_json(capsys):
    assert main(["--format", "json", "push", DROPPING, "--renormalize"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probs"]["0"] == pytest.approx(0.375, abs=1e-9)
    assert payload["probs"]["1"] == pytest.approx(0.625, abs=1e-9)


def _splitting(n: int) -> str:
    """n parentless binary X_j whose noise has one row, all zeros, mapped
    onto n binary Y_j by outcome maps that split 0 evenly between 0 and 1:
    the joint has one outcome, and pushing it forward walks 2^n cells."""
    lines = ["absaudit-format 1", ""]
    for model, prefix in (("micro", "X"), ("macro", "Y")):
        vs = [f"{prefix}{j}" for j in range(n)]
        lines += [f"scm {model} {{", *(f"  var {v} : 0 1" for v in vs)]
        lines += [f"  exo U_{v} : 0 1 for {v}" for v in vs]
        lines += [f"  dist {' '.join('U_' + v for v in vs)} {{", f"    {'0 ' * n}: 1.0", "  }"]
        for v in vs:
            lines += [f"  mech {v} {{", "    0 : 0", "    1 : 1", "  }"]
        lines += ["}", ""]
    lines += ["abs split {", "  source micro", "  target macro", "  direction micro-to-macro",
              "  nodes {", *(f"    X{j} : Y{j} 1.0" for j in range(n)), "  }"]
    for j in range(n):
        lines += [f"  outcomes Y{j} from X{j} {{", "    0 : 0 0.5 1 0.5", "    1 : 1 1.0", "  }"]
    return "\n".join(lines + ["}", ""])


def test_push_counts_its_cells_before_the_walk(tmp_path, monkeypatch, capsys):
    path = tmp_path / "split.abs"
    path.write_text(_splitting(12))
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", str(2 ** 12 - 1))  # the joint's one row fits
    assert main(["push", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("capacity: pushforward through 'split' walks 4096 outcome cells, "
                   "exceeding the enumeration cap of 4095\n")
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", str(2 ** 12))
    assert main(["push", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2 ** 12 + 1
    # 2^40 cells under the default cap: refused after counting, not walked
    path.write_text(_splitting(40))
    monkeypatch.delenv("ABSAUDIT_ENUM_CAP")
    assert main(["push", str(path)]) == 3
    assert f"walks {2 ** 40} outcome cells" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reading the command line
# ---------------------------------------------------------------------------

# values for an option without choices, and tokens that argparse reads,
# refuses or helps on but the reader hands over (or must read exactly)
VALUES = ["S", "C", "S=1", "T,S", "chain3_micro", "chain2_macro", "fig3a", "functorial",
          "structural", "json", ""]
ODD = ["--form", "--mod", "--format=json", "--model=chain3_micro", "--", "-h", "--help",
       "-1", "", "-", "x"]


def _outcome(run, argv) -> tuple:
    """The exit code, stdout and stderr of `run(argv)`; the code of a
    `SystemExit` too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


@st.composite
def _command_lines(draw):
    """Options of the main parser, a command, then pieces in any order:
    the command's options with values (a choice or not), runs of files and
    odd tokens (help, a command, an option without its values); so options
    repeat and positionals are split by an option."""
    def option(parser) -> list[str]:
        actions = [a for a in parser._actions if a.option_strings and "-h" not in a.option_strings]
        if not actions:
            return []
        action = draw(st.sampled_from(actions))
        n = 1 if action.nargs is None else action.nargs
        values = st.sampled_from(list(action.choices or VALUES)) | st.sampled_from(VALUES)
        return [draw(st.sampled_from(action.option_strings)), *(draw(values) for _ in range(n))]

    parser = build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
    name = draw(st.sampled_from([*commands, "x", "-h"]))
    command = commands.get(name, parser)
    kinds = draw(st.lists(st.sampled_from(["option"] * 3 + ["odd"]), max_size=4))
    kinds.insert(draw(st.integers(0, len(kinds))), "files")
    pieces = [option(parser) for _ in range(draw(st.integers(0, 2)))] + [[name]]
    for kind in kinds:
        if kind == "option":
            pieces.append(option(command))
        elif kind == "files":
            pieces.append(draw(st.lists(st.sampled_from([CHAIN, FIG3A]), max_size=2)))
        else:
            pieces.append([draw(st.sampled_from([*ODD, *commands, *command._option_string_actions]))])
    return [token for piece in pieces for token in piece]


@settings(max_examples=150, deadline=None)
@given(_command_lines())
@example(["dist", CHAIN, "--model"])
@example(["graph", CHAIN, "--hom", "S"])
def test_the_reader_reads_as_argparse_does_or_hands_over(argv):
    """Where `_read` reads a command line, its namespace is argparse's; and
    `main` answers every line as it does when argparse reads them all."""
    args = absaudit.cli._read(argv)
    if args is not None:
        assert vars(args) == vars(build_parser.__wrapped__().parse_args(argv))
    with mock.patch.object(absaudit.cli, "_read", return_value=None):
        want = _outcome(main, argv)
    assert _outcome(main, argv) == want


def test_the_reader_reads_every_command_of_the_collector_test(monkeypatch):
    """The fast path does not go dead unseen: `_read` reads, not hands over,
    every command line of `test_collector._commands` on every shipped
    file, in text and JSON, and the `sys.argv` of a `main()` call."""
    for argv in [line for path in SHIPPED for line in _commands(path)]:
        for line in (argv, ["--format", "json", *argv]):
            args = absaudit.cli._read(line)
            assert args is not None, line
            assert vars(args) == vars(build_parser().parse_args(line))
    read, results = absaudit.cli._read, []
    monkeypatch.setattr(absaudit.cli, "_read", lambda argv: results.append(read(argv)) or results[-1])
    monkeypatch.setattr(sys, "argv", ["absaudit", "--format", "json", "validate", CHAIN])
    code, out, err = _outcome(lambda _: main(), None)
    assert (code, err) == (0, "") and json.loads(out)[0]["ok"]
    assert len(results) == 1 and vars(results[0]) == vars(
        build_parser().parse_args(["--format", "json", "validate", CHAIN]))


def test_a_path_token_reads_as_its_str_and_another_token_is_a_usage_error():
    """A `Path` token gives the exit code, stdout and stderr of its `str`
    spelling; a `bytes` or `int` token exits 2 through argparse's usage
    error, which names its type, rather than raise from argparse."""
    for argv in (["validate", CHAIN], ["--format", "json", "dist", FIG3A, "--model", "chain2_macro"],
                 ["push", FIG3A, "--abs", "fig3a"], ["validate", "no-such-file.abs"]):
        paths = [Path(token) if token.endswith((".abs", ".scm")) else token for token in argv]
        assert _outcome(main, paths) == _outcome(main, argv)
    for token in (b"x", 3):
        code, out, err = _outcome(main, ["validate", token])
        assert (code, out) == (2, "") and err.startswith("usage: absaudit ")
        assert err.splitlines()[-1] == (
            f"absaudit: error: a token must be a str or a path, not {type(token).__name__}")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_files_and_command_lines_exit_with_a_code(fuzz_dir, data):
    """A shipped file mutated token by token (a token replaced, inserted or
    deleted, or a line doubled) through every command but `tables`, in text
    and JSON, and one of its valid command lines mutated the same way: each
    `main` call returns 0-3 or stops with `SystemExit` 0 or 2, and raises
    nothing else."""
    path = data.draw(st.sampled_from(SHIPPED))
    mutated = fuzz_dir / Path(path).name
    mutated.write_text(mutated_text(data, Path(path).read_text(encoding="utf-8")), encoding="utf-8")
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
    argvs = [[*fmt, command, str(mutated)] for fmt in ([], ["--format", "json"])
             for command in ("validate", "audit", "classify", "push", "dist", "graph")]
    argv = [str(mutated) if token == path else token
            for token in data.draw(st.sampled_from(_commands(path)))]
    pool = [*VALUES, *ODD, *commands, *(s for p in (parser, *commands.values())
                                         for s in p._option_string_actions), str(mutated)]
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(data, argv, pool)
    for line in [*argvs, argv]:
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(line)
        except SystemExit as stop:
            assert stop.code in (0, 2), line
        else:
            assert code in (0, 1, 2, 3), line
