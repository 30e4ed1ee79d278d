"""`main` pauses the cyclic garbage collector for the one command it runs:
it leaves the collector on or off as it found it, on every exit, and no
command leaves cyclic garbage that the pause would hold back."""

from __future__ import annotations

import contextlib
import gc
import importlib.resources
import io
import sys
from pathlib import Path

import pytest

import absaudit.cli
from absaudit.cli import build_parser, main
from absaudit.textfmt import parse_path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(str(importlib.resources.files("absaudit") / "data"))
SHIPPED = sorted(str(p) for p in DATA.rglob("*") if p.suffix in (".abs", ".scm"))
CHAIN = str(DATA / "models" / "chain3_micro.scm")
FIG9B = str(DATA / "figures" / "fig9b.abs")
SPLITTING = "witnesses/distributional/outcome-splitting.abs"
INVALID = """\
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


def _generated(work: Path) -> list[str]:
    """The benchmark's generated maps, written into `work`: the chain
    identity and the chain coarsening of consecutive pairs, each with a
    full edge map, at 6 and 12 nodes, and a parity chain of 8 nodes with
    uniform noise (2^8 rows) and an outcome layer."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import gen
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    out = []
    for n in (6, 12):
        src = gen.unary_model("src", "X", n, gen.chain_edges(n))
        for name, node_of in (("identity", list(range(n))), ("pairs", [i // 2 for i in range(n)])):
            m = max(node_of) + 1
            tgt = gen.unary_model("tgt", "Y", m, gen.chain_edges(m))
            text = gen.document(gen.model_text(src), gen.model_text(tgt), gen.abs_text(
                "a", src, tgt, node_of, gen.paths(n, gen.chain_edges(n))))
            out.append(work / f"chain-{name}-{n}.abs")
            out[-1].write_text(text, encoding="utf-8")
    src = gen.parity_model("src", "X", 8, gen.chain_edges(8), gen.uniform_dist(8))
    tgt = gen.constant_binary_model("tgt", "Y", 4)
    text = gen.document(gen.model_text(src), gen.model_text(tgt), gen.abs_text(
        "a", src, tgt, [i // 2 for i in range(8)], None, gen.parity_outcome_blocks(src, tgt)))
    out.append(work / "dense-chain-8.abs")
    out[-1].write_text(text, encoding="utf-8")
    return [str(p) for p in out]


def _commands(path: str) -> list[list[str]]:
    """Every command on `path`, and on each of its models and maps."""
    out = [[cmd, path] for cmd in ("validate", "graph", "dist", "audit", "classify", "push")]
    doc = parse_path(path)
    for name, model in doc.models.items():
        pick, nodes, v = ["--model", name], model.variable_names, model.variables[0]
        out += [["graph", path, *pick], ["graph", path, "--dot", *pick],
                ["graph", path, *pick, "--hom", nodes[0], nodes[-1]], ["dist", path, *pick],
                ["dist", path, *pick, "--do", f"{v.name}={v.domain[-1]}"],
                ["dist", path, *pick, "--marginal", nodes[-1]]]
    for name in doc.abstractions:
        pick = ["--abs", name]
        out += [["graph", path, "--dot", *pick], ["audit", path, *pick],
                ["classify", path, *pick], ["push", path, *pick]]
    return out


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture
def frozen():
    """The heap so far moved out of the collector's sight, so that each
    collection walks only what was made since.  Building the parser leaves
    cyclic garbage once per process, before any command runs."""
    build_parser()
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def test_no_command_leaves_cyclic_garbage(tmp_path, monkeypatch, frozen):
    """A collection right after each command finds nothing: every command
    on every shipped and generated file, both tables commands and the
    error exits, in text and in JSON."""
    (tmp_path / "junk.scm").write_text("not a document\n")
    (tmp_path / "broken.scm").write_text(INVALID)
    runs = [(argv, None) for path in [*SHIPPED, *_generated(tmp_path)]
            for argv in _commands(path)]
    runs += [(["tables"], 0), (["tables", "--which", "structural"], 0)]
    runs += [(["validate", str(tmp_path / "junk.scm")], 1),
             (["validate", str(tmp_path / "missing.scm")], 1),
             (["validate", str(tmp_path / "broken.scm")], 1),
             (["dist", str(tmp_path / "broken.scm")], 1),
             (["audit", FIG9B, "--require", "faithful"], 1),
             (["audit", FIG9B, "--require", "shiny"], 1)]
    # each just over its cap (ABSAUDIT_ENUM_CAP): the joint, then the pushforward
    capped = {("dist", CHAIN): "1", ("push", str(DATA / SPLITTING)): "2"}
    runs += [([*argv], 3) for argv in capped]
    found, codes = {}, {}
    for fmt in ([], ["--format", "json"]):
        for argv, want in runs:
            with monkeypatch.context() as env:
                if tuple(argv) in capped:
                    env.setenv("ABSAUDIT_ENUM_CAP", capped[tuple(argv)])
                codes[(*fmt, *argv)] = _run([*fmt, *argv]), want
            if left := gc.collect():
                found[" ".join([*fmt, *argv])] = left
    assert found == {}
    assert {argv: code for argv, (code, want) in codes.items()
            if want is not None and code != want} == {}
    assert {code for code, _ in codes.values()} == {0, 1, 3}


@pytest.fixture(params=[True, False], ids=["on", "off"])
def collecting(request):
    """The collector switched on or off before the call, and back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv, code", [
    (["validate", CHAIN], 0),
    (["validate", "{tmp}/broken.scm"], 1),
    (["validate", "{tmp}/junk.scm"], 1),
    (["validate", "{tmp}/missing.scm"], 1),
    (["audit", FIG9B, "--require", "faithful"], 1),
    (["cap", "dist", CHAIN], 3),
], ids=["ok", "invalid", "parse-error", "missing-file", "require-failed", "capacity"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, collecting, argv, code):
    """The collector is off while the command runs, and as it was after."""
    (tmp_path / "junk.scm").write_text("not a document\n")
    (tmp_path / "broken.scm").write_text(INVALID)
    if argv[0] == "cap":
        monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "1")
        argv = argv[1:]
    seen = []
    load = absaudit.cli._load

    def watched(paths):
        seen.append(gc.isenabled())
        return load(paths)

    monkeypatch.setattr(absaudit.cli, "_load", watched)
    assert _run([arg.format(tmp=tmp_path) for arg in argv]) == code
    assert gc.isenabled() is collecting
    assert seen == [False]


def test_a_usage_error_exits_before_the_pause(collecting):
    with pytest.raises(SystemExit) as stop, contextlib.redirect_stderr(io.StringIO()):
        main(["no-such-command"])
    assert stop.value.code == 2
    assert gc.isenabled() is collecting
