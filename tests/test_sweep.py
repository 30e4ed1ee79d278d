"""The output-diff sweep runs, with its invalid-noise copies, its edited
copies and kernel lines, and shuffling the dist rows changes no line."""

from __future__ import annotations

import pathlib
import subprocess
import sys

from absaudit.abstraction import validate_abstraction
from absaudit.freecat import hom_set
from absaudit.scm import underlying_graph, validate_scm
from absaudit.taxonomy import detect_types
from absaudit.textfmt import parse_document

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "absaudit" / "data"
FILES = [str(DATA / "models" / "chain3_micro.scm"), str(DATA / "figures" / "fig3a.abs")]


def _sweep(*args: str) -> list[str]:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "sweep.py"), *args, *FILES],
        check=True, capture_output=True, text=True,
    )
    return run.stdout.splitlines()


def test_sweep_on_two_files():
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
    # chain3_micro.scm without line 19, the closing brace of its dist block
    assert codes["validate models/chain3_micro.scm.no-brace-19"] == "1"
    # chain3_micro.scm without line 25, the row `0 0 : 0` of T's mechanism
    assert codes["validate models/chain3_micro.scm.no-mech-row-25"] == "1"
    # fig3a.abs with its source's first dist row keyed out of range, then
    # weighing 0.5 more: every command reading that model refuses it
    for tag in ("bad-key", "bad-total"):
        copy = f"figures/fig3a.abs.{tag}-chain3_micro"
        for argv in (f"validate {copy}", f"dist {copy} --model chain3_micro",
                     f"push {copy} --abs fig3a"):
            assert codes[argv] == "1"
    # one kernel line per variable of chain3_micro, in declaration order
    kernels = [argv for argv in argvs if argv.startswith("kernel models/chain3_micro.scm ")]
    assert kernels == [f"kernel models/chain3_micro.scm --model chain3_micro {v}"
                       for v in ("S", "T", "C")]
    assert all(codes[argv] == "0" for argv in kernels)
    assert _sweep("--shuffle-dist", "1") == lines


def test_sweep_audits_a_copy_per_edge_row():
    fig9a = str(DATA / "figures" / "fig9a.abs")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep.py"), fig9a],
                         check=True, capture_output=True, text=True)
    codes = {argv: (code, digest) for code, digest, argv in
             (line.split(" ", 2) for line in run.stdout.splitlines())}
    # lines 70-72 are the rows C^C, S^S and S^T^C of fig9a's edges block;
    # without any one of them the morphism layer is not total
    edge_cuts = sorted(argv for argv in codes if ".no-edge-row-" in argv)
    assert edge_cuts == sorted(f"{fmt}audit figures/fig9a.abs.no-edge-row-{n}"
                               for fmt in ("", "--format json ") for n in (70, 71, 72))
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
        f"{fmt}validate figures/fig9a.abs.swapped-edge-row-{n}"
        for fmt in ("", "--format json ") for n in (70, 71, 72))
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
    complete DAG, in both formats.  The model is valid, and its largest
    hom-set, from the first node declared to the last, holds 2^5 paths."""
    sys.path.insert(0, str(ROOT / "tools"))
    import sweep

    argvs = [line.split(" ", 2)[2] for line in _sweep() if "complete7" in line]
    pairs = [(s, t) for s in sweep.COMPLETE for t in sweep.COMPLETE]
    assert argvs == [f"{fmt}graph generated/complete7.scm --hom {s} {t}"
                     for s, t in pairs for fmt in ("", "--format json ")]
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
