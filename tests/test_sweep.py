"""The output-diff sweep runs, with its invalid-noise copies, its edited
copies and kernel lines, shuffling the dist rows changes no line, and the
full sweep prints the lines of the golden file."""

from __future__ import annotations

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from absaudit.abstraction import pushforward, validate_abstraction
from absaudit.audit import audit_abstraction
from absaudit.cli import build_parser, main
from absaudit.freecat import hom_set
from absaudit.scm import joint_distribution, underlying_graph, validate_scm
from absaudit import textfmt
from absaudit.errors import ParseError
from absaudit.taxonomy import detect_types
from absaudit.textfmt import parse_document

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "absaudit" / "data"
FILES = [str(DATA / "models" / "chain3_micro.scm"), str(DATA / "figures" / "fig3a.abs")]
GOLDEN = ROOT / "tests" / "sweep.golden"


def _sweep(*args: str) -> list[str]:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"), *args, *FILES],
        check=True, capture_output=True, text=True,
    )
    return run.stdout.splitlines()


def test_sweep_on_two_files():
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    lines = _sweep()
    calls = [line.split(" ", 2) for line in lines]
    assert all(len(digest) == 64 for _, digest, _ in calls)
    argvs = [argv for _, _, argv in calls]
    assert len(set(argvs)) == len(argvs)
    assert "dist models/chain3_micro.scm" in argvs
    assert "--format json graph models/chain3_micro.scm --model chain3_micro --hom C S" in argvs
    codes = {argv: code for code, _, argv in calls}
    assert codes["audit figures/fig3a.abs"] == "0"
    assert codes["no-such-command"] == "2"
    # dist --do at each variable's first and last value, dist --marginal of
    # each variable and of all in reverse, and push --do at each source
    # variable's first value, plain and with --renormalize
    do = [argv for argv in argvs if argv.startswith("dist models/chain3_micro.scm --model")]
    assert do == [f"dist models/chain3_micro.scm --model chain3_micro{rest}" for rest in (
        "", *(f" --do {v}={x}" for v in "STC" for x in "01"),
        *(f" --marginal {vs}" for vs in ("S", "T", "C", "C,T,S")))]
    # audit --require with every property name, which no map satisfies, and
    # with an unknown name
    doc = parse_document((DATA / "figures" / "fig3a.abs").read_text(encoding="utf-8"))
    a = doc.abstractions["fig3a"]
    assert sweep.REQUIRE == ",".join(sorted(audit_abstraction(a, *doc.resolve(a)).flat()))
    assert codes[f"audit figures/fig3a.abs --abs fig3a --require {sweep.REQUIRE}"] == "1"
    assert codes["audit figures/fig3a.abs --require functorial,no-such-property"] == "1"
    for argv in ("push figures/fig3a.abs --abs fig3a --do T=0",
                 "--format json push figures/fig3a.abs --abs fig3a --renormalize --do C=0"):
        assert codes[argv] == "0"
    # chain3_micro.scm without line 19, the closing brace of its dist block
    assert codes["validate models/chain3_micro.scm.no-brace-19"] == "1"
    # chain3_micro.scm without line 25, the row `0 0 : 0` of T's mechanism
    assert codes["validate models/chain3_micro.scm.no-mech-row-25"] == "1"
    # fig3a.abs with a parent its source does not declare, with its source's
    # last variable declared twice, and with its source's first exo term
    # above the variables: audit and classify refuse each
    for fault in ("unknown-parent", "dup-variable", "exo-before-var"):
        for argv in (f"audit figures/fig3a.abs.{fault}",
                     f"--format json classify figures/fig3a.abs.{fault}"):
            assert codes[argv] == "1"
    # fig3a.abs with its source's first dist row keyed out of range, then
    # weighing 0.5 more, its last row keyed out of range, and its first
    # weight negative: every command and every kernel reading that model
    # refuses it
    for tag in ("bad-key", "bad-total", "bad-key-last", "bad-negative"):
        copy = f"figures/fig3a.abs.{tag}-chain3_micro"
        for argv in (f"validate {copy}", f"dist {copy} --model chain3_micro",
                     f"push {copy} --abs fig3a"):
            assert codes[argv] == "1"
        for v in ("S", "T", "C"):
            assert codes[f"kernel {copy} --model chain3_micro {v}"] == "ModelError"
    # chain3_micro.scm with a stray input in S's mechanism, its first mech
    # block: validate, emit and S's kernel refuse it; T's and C's kernels
    # are those of the file
    lines_by_argv = {argv: (code, digest) for code, digest, argv in calls}
    stray = "models/chain3_micro.scm.stray-row-chain3_micro"
    assert codes[f"validate {stray}"] == codes[f"--format json validate {stray}"] == "1"
    assert codes[f"emit {stray}"] == "ModelError"
    assert codes[f"kernel {stray} --model chain3_micro S"] == "ModelError"
    for v in ("T", "C"):
        assert (lines_by_argv[f"kernel {stray} --model chain3_micro {v}"]
                == lines_by_argv[f"kernel models/chain3_micro.scm --model chain3_micro {v}"])
    # chain3_micro.scm with 0.6 TOL of weight moved from its first dist row,
    # noise values 0 0 0, to its second, 0 0 1: every kernel is defined, C's
    # moves with the marginal of C's noise term, and S's and T's do not
    near = "models/chain3_micro.scm.near-product-chain3_micro"
    assert [argv for argv in argvs if argv.startswith(f"kernel {near} ")] == [
        f"kernel {near} --model chain3_micro {v}" for v in ("S", "T", "C")]
    for v in ("S", "T", "C"):
        got = lines_by_argv[f"kernel {near} --model chain3_micro {v}"]
        want = lines_by_argv[f"kernel models/chain3_micro.scm --model chain3_micro {v}"]
        assert got[0] == "0" and (got == want) == (v != "C")
    # fig3a.abs with each row of its first outcome map, S' from S T, sent
    # half to its value and half to the other value of S': push reads it,
    # plain and with --renormalize, and the rows of C' are as written
    text = (DATA / "figures" / "fig3a.abs").read_text(encoding="utf-8")
    halved = sweep.split_rows(text, doc).split("\n")
    assert [line.strip() for line in halved if ":" in line][-6:] == [
        "0 0 : 0 0.5 1 0.5", "0 1 : 0 0.5 1 0.5", "1 0 : 1 0.5 0 0.5", "1 1 : 1 0.5 0 0.5",
        "0 : 0 1.0", "1 : 1 1.0"]
    for flag in ("", " --renormalize"):
        for fmt in ("", "--format json "):
            assert codes[f"{fmt}push figures/fig3a.abs.split-rows{flag}"] == "0"
    # one kernel line per variable of chain3_micro, in declaration order
    kernels = [argv for argv in argvs if argv.startswith("kernel models/chain3_micro.scm ")]
    assert kernels == [f"kernel models/chain3_micro.scm --model chain3_micro {v}"
                       for v in ("S", "T", "C")]
    assert all(codes[argv] == "0" for argv in kernels)
    assert _sweep("--shuffle-dist", "1") == lines


def test_sweep_refuses_a_require_list_that_misses_a_verdict(monkeypatch):
    """The sweep stops before its first call when `REQUIRE` lacks a name of
    the profile, or names one the profile lacks."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    doc = parse_document(sweep.chain_maps(["identity"]))
    sweep.check_require(audit_abstraction, doc)
    for names in (sweep.REQUIRE.split(",")[1:], sweep.REQUIRE.split(",") + ["no-such"]):
        monkeypatch.setattr(sweep, "REQUIRE", ",".join(names))
        with pytest.raises(RuntimeError, match="REQUIRE lists"):
            sweep.check_require(audit_abstraction, doc)


def _chain_identity_cuts(kind: str) -> list[str]:
    """The argv, in both formats, of each sweep call of `kind` (`no-edge-row`
    or `swapped-edge-row`) on a copy of the generated identity chain map."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    return [f"{fmt}{command} {sweep.CHAIN_IDENTITY_FILE}.{tag}"
            for command, tag, _ in sweep.cuts(sweep.chain_maps(["identity"]))
            if tag.startswith(f"{kind}-") for fmt in ("", "--format json ")]


def test_sweep_audits_a_copy_per_edge_row():
    fig9a = str(DATA / "figures" / "fig9a.abs")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep.py"), fig9a],
                         check=True, capture_output=True, text=True)
    codes = {argv: (code, digest) for code, digest, argv in
             (line.split(" ", 2) for line in run.stdout.splitlines())}
    # lines 70-72 are the rows C^C, S^S and S^T^C of fig9a's edges block;
    # without any one of them the morphism layer is not total.  The other
    # copies without an edge row are those of the generated identity chain map.
    edge_cuts = sorted(argv for argv in codes if "fig9a.abs.no-edge-row-" in argv)
    assert edge_cuts == sorted(f"{fmt}audit figures/fig9a.abs.no-edge-row-{n}"
                               for fmt in ("", "--format json ") for n in (70, 71, 72))
    assert sorted(argv for argv in codes if ".no-edge-row-" in argv) == sorted(
        edge_cuts + _chain_identity_cuts("no-edge-row"))
    for argv in edge_cuts:
        whole = argv.replace(argv.split()[-1], "figures/fig9a.abs")
        assert codes[argv][0] == "0" and codes[argv][1] != codes[whole][1]


def test_sweep_validates_a_copy_per_swapped_edge_row():
    """Each row of fig9a's edges block, its two paths swapped, gives a copy
    that the sweep validates in both formats, and whose validation names
    both swapped paths: the source side's new key, the target side's new
    image, a one-node path by its lone node."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    fig9a = DATA / "figures" / "fig9a.abs"
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep.py"), str(fig9a)],
                         check=True, capture_output=True, text=True)
    codes = {argv: code for code, _, argv in
             (line.split(" ", 2) for line in run.stdout.splitlines())}
    assert sorted(argv for argv in codes if ".swapped-edge-row-" in argv) == sorted(
        [f"{fmt}validate figures/fig9a.abs.swapped-edge-row-{n}"
         for fmt in ("", "--format json ") for n in (70, 71, 72)]
        + _chain_identity_cuts("swapped-edge-row"))
    swapped = [(tag, copy) for command, tag, copy in sweep.cuts(fig9a.read_text("utf-8"))
               if command == "validate" and tag.startswith("swapped-")]
    assert len(swapped) == 3
    for (tag, copy), (key, image) in zip(swapped, (("C'", "C"), ("S'", "S"), ("S'^C'", "S^T^C"))):
        assert codes[f"validate figures/fig9a.abs.{tag}"] == "1"
        doc = parse_document(copy)
        a = doc.abstractions["fig9a"]
        assert [(i.code, i.message) for i in validate_abstraction(a, *doc.resolve(a)).issues] == [
            ("edge-map-source", f"{key} is not a morphism of the source graph"),
            ("edge-map-target", f"{image} is not a morphism of the target graph"),
        ]


def test_sweep_lists_the_hom_sets_of_a_generated_complete_dag():
    """`graph --hom` on every ordered pair of the generated seven-node
    complete DAG, in both formats, then on its largest hom-set under a cap
    of 1 and of 0.  The model is valid, and that hom-set, from the first
    node declared to the last, holds 2^5 paths."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    calls = [line.split(" ", 2) for line in _sweep() if "complete7" in line]
    pairs = [(s, t) for s in sweep.COMPLETE for t in sweep.COMPLETE]
    assert [argv for _, _, argv in calls] == [
        f"{fmt}graph generated/complete7.scm --hom {s} {t}"
        for s, t in pairs for fmt in ("", "--format json ")] + [
        f"ABSAUDIT_ENUM_CAP={cap} {fmt}graph generated/complete7.scm --hom z m"
        for cap in ("1", "0") for fmt in ("", "--format json ")]
    assert [code for code, _, _ in calls[-4:]] == ["3", "3", "1", "1"]
    assert sorted(sweep.COMPLETE) != list(sweep.COMPLETE)
    model = parse_document(sweep.complete_dag()).models["complete7"]
    assert validate_scm(model).ok
    assert len(hom_set(underlying_graph(model), "z", "m")) == 2 ** 5


def test_sweep_classifies_the_generated_bijections():
    """`classify` in both formats on each generated bijection between
    seven-node DAGs.  The maps are valid, and each names its types: a deep
    edge more, a deep edge fewer, a deep edge reversed, and a permutation
    whose edges correspond."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    calls = [line.split(" ", 2) for line in _sweep() if "bijections" in line]
    assert [argv for _, _, argv in calls] == [
        f"{fmt}classify generated/bijections.abs --abs {name}"
        for name in sweep.BIJECTIONS for fmt in ("", "--format json ")]
    assert {code for code, _, _ in calls} == {"0"}
    doc = parse_document(sweep.bijections())
    types = {}
    for name, a in doc.abstractions.items():
        assert validate_abstraction(a, *doc.resolve(a)).ok
        types[name] = detect_types(a, *doc.resolve(a))["structural"]
    assert types == {"plus": ["edge-embedding"], "minus": ["edge-coarsening"],
                     "flip": ["edge-coarsening", "edge-embedding", "causal-reversal"],
                     "perm": ["node-permutation"]}


def test_sweep_audits_and_classifies_the_generated_chain_maps():
    """`audit` and `classify`, in both formats, on each generated map from
    the twelve-node chain.  The maps are valid and list all 78 paths; the
    identity is a fully faithful functor, and the pair coarsening a full
    functor that is faithful only hom-set-wise."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    calls = [line.split(" ", 2) for line in _sweep() if "chain-maps" in line]
    assert [argv for _, _, argv in calls] == [
        f"{fmt}{command} generated/chain-maps.abs --abs {name}{extra}"
        for name in sweep.CHAIN_MAPS
        for command, extra in (("audit", ""), ("audit", f" --require {sweep.REQUIRE}"),
                               ("classify", ""))
        for fmt in ("", "--format json ")]
    # no map has every property: `deterministic` and `non-deterministic` exclude each other
    assert [code for code, _, argv in calls] == [
        "1" if "--require" in argv else "0" for _, _, argv in calls]
    doc = parse_document(sweep.chain_maps())
    verdicts, types = {}, {}
    for name, a in doc.abstractions.items():
        assert validate_abstraction(a, *doc.resolve(a)).ok
        assert len(a.structure.edge_map) == 78
        verdicts[name] = audit_abstraction(a, *doc.resolve(a)).functor
        types[name] = detect_types(a, *doc.resolve(a))["structural"]
    assert verdicts["identity"].fully_faithful and verdicts["identity"].functorial
    pairs = verdicts["pairs"]
    assert pairs.functorial and pairs.full and pairs.faithful_parallel and not pairs.faithful
    assert types == {"identity": ["identity"], "pairs": ["node-coarsening"]}


def test_sweep_cuts_each_edge_row_of_the_generated_identity_chain_map():
    """Each of the 78 rows of the edges block of the generated identity
    chain map gives two copies, each run in both formats: one without the
    row, which validates and whose morphism layer is no functor, and one
    with the row's two paths swapped, whose validation names both."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    golden = [line.split(" ", 2) for line in GOLDEN.read_text(encoding="utf-8").splitlines()
              if sweep.CHAIN_IDENTITY_FILE in line]
    picked = [(command, tag, copy)
              for command, tag, copy in sweep.cuts(sweep.chain_maps(["identity"]))
              if "edge-row" in tag]
    assert len(picked) == 2 * 78
    assert [(code, argv) for code, _, argv in golden] == [
        ("0" if command == "audit" else "1",
         f"{fmt}{command} {sweep.CHAIN_IDENTITY_FILE}.{tag}")
        for command, tag, _ in picked for fmt in ("", "--format json ")]
    for command, tag, copy in picked:
        doc = parse_document(copy)
        a = doc.abstractions["identity"]
        issues = validate_abstraction(a, *doc.resolve(a)).issues
        if command == "audit":
            assert not issues and not audit_abstraction(a, *doc.resolve(a)).functor.functorial
        else:
            assert [i.code for i in issues] == ["edge-map-source", "edge-map-target"]


def test_sweep_reads_the_generated_parity_chain_both_ways(monkeypatch):
    """The 64-row dist block of the generated parity chain is read in one
    split, also in each invalid-noise copy and each copy without a lone
    brace, except the copy without its own: there the closing-brace search
    reaches the first mech block's, the block read refuses that body, and
    the row loop words the error at the mech line."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    reads = []
    read = textfmt._read_dist
    monkeypatch.setattr(textfmt, "_read_dist", lambda *args: reads.append(read(*args)) or reads[-1])
    text = sweep.parity_chain()
    doc = parse_document(text)
    assert reads == [True] and len(doc.models["parity6"].exo_table) == 64
    for _, _, copy in sweep.bad_noise(text, doc):
        reads.clear()
        parse_document(copy)
        assert reads == [True]
    braces = [(tag, copy) for _, tag, copy in sweep.cuts(text) if tag.startswith("no-brace-")]
    assert len(braces) == 8
    for tag, copy in braces:
        reads.clear()
        if tag == "no-brace-81":  # the dist block's
            with pytest.raises(ParseError) as err:
                parse_document(copy)
            assert (err.value.reason, err.value.line) == ("expected a ':' separator", 81)
            assert reads == [False]
        else:
            with pytest.raises(ParseError):
                parse_document(copy)
            assert reads == [True]


def test_sweep_runs_a_generated_dense_file_past_a_chunk(monkeypatch):
    """The generated dense file's 2048-row dist block is read in one split
    of two chunks, its map is valid, and its joint and pushforward each hold
    more rows than a writer formats at once; every sweep call on it exits 0."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    reads = []
    read = textfmt._read_dist
    monkeypatch.setattr(textfmt, "_read_dist", lambda *args: reads.append(read(*args)) or reads[-1])
    doc = parse_document(sweep.dense_pairs())
    assert reads == [True, False]  # the one-row block of the target is read row by row
    source, target = doc.resolve(a := doc.abstractions["pairs"])
    assert len(source.exo_table) == 2048 > textfmt._CHUNK
    assert validate_scm(source).ok and validate_abstraction(a, source, target).ok
    dist = joint_distribution(source)
    assert len(dist.probs) == len(pushforward(a, dist, source, target).probs) == 2048
    golden = [line.split(" ", 2) for line in GOLDEN.read_text(encoding="utf-8").splitlines()
              if sweep.DENSE_FILE in line and " kernel " not in f" {line}"]
    assert len(golden) == 11 and {code for code, _, _ in golden} == {"0"}


def test_sweep_generates_repeated_weights_and_signed_zeros():
    """The product-noise copy of the dense file has 2048 noise rows with 49
    distinct weights, summing to 0.999999999999993; the signed-zero copy of
    fig3a.abs keeps its total and emits its -0.0 and 0.0 rows as written."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    weights = list(parse_document(sweep.dense_pairs(sweep.PRODUCT)).models["parity11"]
                   .exo_table.values())
    assert len(weights) == 2048 and len(set(weights)) == 49 and sum(weights) == 0.999999999999993
    text = (DATA / sweep.SIGNED_ZERO_SOURCE).read_text(encoding="utf-8")
    zeros = sweep.signed_zeros(text)
    tables = [parse_document(t).models["chain3_micro"].exo_table for t in (text, zeros)]
    assert sum(tables[0].values()) == sum(tables[1].values()) == 1.0
    assert list(tables[1].values())[:3] == [0.0, 0.0, 0.375]
    emitted = textfmt.emit_document(parse_document(zeros))
    assert "    0 0 0 : -0.0\n    0 0 1 : 0.0\n    0 1 0 : 0.375\n" in emitted


def _differing_argvs(got: list[str], want: list[str]) -> list[str]:
    """The argv of each sweep line that is in one list and not in the other."""
    old = {line.split(" ", 2)[2]: line for line in want}
    new = {line.split(" ", 2)[2]: line for line in got}
    return [argv for argv in {**old, **new} if old.get(argv) != new.get(argv)]


def _without_argparse_bytes(lines: list[str], argparse_argvs: set[str]) -> list[str]:
    """`lines` with the digest of each call in `argparse_argvs` blanked."""
    calls = [line.split(" ", 2) for line in lines]
    return [" ".join((code, "-" if argv in argparse_argvs else digest, argv))
            for code, digest, argv in calls]


@pytest.mark.parametrize("args", [[], ["--shuffle-dist", "1"]])
def test_sweep_matches_the_golden_file(args, monkeypatch, capsys):
    """The full sweep, run in this process, prints the lines of
    `tests/sweep.golden` exactly: every exit code and output byte of every
    command on the shipped files, copies and generated files.  Of the usage
    errors and help, whose bytes argparse writes in words that change
    between Python versions, only the exit code is compared here; the next
    test checks their output.  Regenerate the file with
    `python3 tools/sweep.py > tests/sweep.golden` when output changes on
    purpose."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # undone with the sweep's own --src
    import sweep

    monkeypatch.setenv("COLUMNS", "80")  # the sweep sets it for the help text
    monkeypatch.delenv("ABSAUDIT_ENUM_CAP", raising=False)
    assert sweep.main(args) == 0
    owned = {shlex.join(argv) for cmd in sweep.ARGPARSE
             for argv in (cmd, ("--format", "json", *cmd))}
    got = _without_argparse_bytes(capsys.readouterr().out.splitlines(), owned)
    want = _without_argparse_bytes(GOLDEN.read_text(encoding="utf-8").splitlines(), owned)
    differ = _differing_argvs(got, want)
    assert not differ, "lines that differ from the golden file:\n" + "\n".join(differ)
    assert got == want, "the golden file's lines, in another order"


def test_sweep_usage_errors_and_help_print_the_parsers_own_text(monkeypatch):
    """Each help call of the sweep prints its parser's own help and nothing
    else; each usage error prints nothing on stdout, the usage of
    `absaudit` on stderr and ends with the program's `error:` line."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
    for cmd in sweep.ARGPARSE:
        for argv in (list(cmd), ["--format", "json", *cmd]):
            code, out, err = sweep.run(main, argv)
            if argv[-1] == "--help":
                helped = commands["dist"] if "dist" in argv else parser
                assert (code, out, err) == (0, helped.format_help(), ""), argv
            else:
                assert (code, out) == (2, ""), argv
                assert err.startswith("usage: absaudit "), argv
                assert re.match(r"absaudit( dist)?: error: ", err.splitlines()[-1]), argv
