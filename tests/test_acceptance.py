"""Acceptance gate: the seven headline guarantees, one test per criterion.

Every test records a PASS/FAIL verdict through the `acceptance` fixture; the
terminal summary prints one line per criterion.  All numeric comparisons use
the library-wide tolerance of 1e-9.
"""

from __future__ import annotations

import importlib.resources
import itertools
import random
import time
import zlib

from absaudit.abstraction import (
    Abstraction,
    Direction,
    OutcomeMap,
    StructuralMap,
    pushforward,
    validate_abstraction,
)
from absaudit.audit import audit_abstraction, tri_and
from absaudit.cli import main
from absaudit.errors import TOL
from absaudit.freecat import hom_set
from absaudit.scm import (
    Dag,
    Distribution,
    intervene,
    joint_distribution,
    marginal,
    underlying_graph,
    validate_scm,
)
from absaudit import taxonomy
from absaudit.textfmt import emit_document, parse_document

from helpers import (BIN, U2, model as build_model, plain_scm, random_dag, random_edge_map,
                     random_model, random_outcome_maps, random_rows)
from oracles import (
    all_paths,
    path_count,
    plain_joint,
    plain_joint_via_kernels,
    pushforward_by_preimage,
)

DATA = importlib.resources.files("absaudit") / "data"

# Verdicts each committed regression fixture must reproduce (keys are the
# flat() property names; only the listed ones are pinned).
EXPECTED = {
    "fig2a": {"bijective": True, "functorial": True, "full": True,
              "faithful": True, "fully-faithful": True},
    "fig2b": {"functorial": True, "full": True, "faithful": False,
              "faithful-parallel": True, "fully-faithful": False},
    "fig3a": {"functional": True, "deterministic": True, "surjective": True,
              "injective": False, "outcome-functional": True,
              "outcome-surjective": True, "outcome-injective": False},
    "fig3b": {"functional": False, "surjective": True, "injective": True,
              "bijective": False},
    "fig4a": {"functional": False, "surjective": True, "injective": False},
    "fig4b": {"functional": False, "surjective": False, "injective": True},
    "fig5a": {"functional": True, "surjective": True, "injective": True,
              "bijective": True},
    "fig5b": {"functional": True, "surjective": True, "injective": False,
              "bijective": False},
    "fig6a": {"bijective": True},
    "fig6b": {"bijective": False},
    "fig7a": {"functorial": True, "full": True, "faithful": True},
    "fig7b": {"functorial": False},
    "fig8a": {"functorial": True, "full": True},
    "fig8b": {"functorial": True, "full": False},
    "fig9a": {"functorial": True, "faithful": True},
    "fig9b": {"functorial": True, "full": True, "faithful": False,
              "faithful-parallel": True},
    "fig10a": {"outcome-functional": True, "outcome-surjective": True,
               "outcome-injective": False},
    "fig10b": {"outcome-functional": False, "outcome-surjective": True,
               "outcome-injective": True},
    "fig11a": {"outcome-surjective": True},
    "fig11b": {"outcome-surjective": False, "outcome-injective": False},
    "fig12a": {"outcome-injective": True, "outcome-surjective": False},
    "fig12b": {"outcome-injective": False},
    "fig13a": {"outcome-bijective": True},
    "fig13b": {"outcome-bijective": False},
}

# The two standalone model fixtures and the graph shape each must expose.
EXPECTED_MODELS = {
    "chain3_micro": (("S", "T", "C"), {("S", "T"), ("T", "C")}),
    "confounded_micro": (("P", "S", "T", "C"),
                         {("P", "T"), ("S", "T"), ("T", "C")}),
}


def _close(a: dict, b: dict, tol: float = TOL) -> bool:
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


# ---------------------------------------------------------------------------
# Criterion 1 and 2: the admissibility tables
# ---------------------------------------------------------------------------

def test_criterion_1_structural_table(acceptance):
    acceptance(1, "structural table reproduction", False)
    taxonomy._parsed_witness.cache_clear()
    start = time.perf_counter()
    computed = taxonomy.structural_matrix()
    elapsed = time.perf_counter() - start
    diff = computed.diff(taxonomy.shipped_table("structural"))
    cells = len(computed.rows) * len(computed.cols)
    ok = diff == [] and cells == 110 and elapsed < 1.0
    acceptance(1, "structural table reproduction", ok)
    assert cells == 110
    assert diff == []
    assert elapsed < 1.0


def test_criterion_2_distributional_table(acceptance):
    acceptance(2, "distributional table reproduction", False)
    taxonomy._parsed_witness.cache_clear()
    start = time.perf_counter()
    computed = taxonomy.distributional_matrix()
    elapsed = time.perf_counter() - start
    diff = computed.diff(taxonomy.shipped_table("distributional"))
    cells = len(computed.rows) * len(computed.cols)
    ok = diff == [] and cells == 36 and elapsed < 1.0
    acceptance(2, "distributional table reproduction", ok)
    assert cells == 36
    assert diff == []
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 3: committed regression fixtures
# ---------------------------------------------------------------------------

def test_criterion_3_fixture_regressions(acceptance):
    acceptance(3, "fixture regression suite", False)
    mismatches: list[str] = []
    fixtures = 0

    for name, (nodes, edges) in EXPECTED_MODELS.items():
        doc = parse_document((DATA / "models" / f"{name}.scm").read_text())
        m = doc.models[name]
        fixtures += 1
        if not validate_scm(m).ok:
            mismatches.append(f"{name}: invalid")
        dag = underlying_graph(m)
        if dag.nodes != nodes or set(dag.edges) != edges:
            mismatches.append(f"{name}: graph shape")

    for name, wanted in EXPECTED.items():
        doc = parse_document((DATA / "figures" / f"{name}.abs").read_text())
        a = doc.abstractions[name]
        source, target = doc.resolve(a)
        fixtures += 1
        if not (validate_scm(source).ok and validate_scm(target).ok
                and validate_abstraction(a, source, target).ok):
            mismatches.append(f"{name}: invalid fixture")
            continue
        flat = audit_abstraction(a, source, target).flat()
        for prop, want in wanted.items():
            got = flat[prop]
            if got is not want:
                mismatches.append(f"{name}.{prop}: {got} != {want}")

    ok = fixtures == 26 and mismatches == []
    acceptance(3, "fixture regression suite", ok)
    assert fixtures == 26
    assert mismatches == []


# ---------------------------------------------------------------------------
# Criterion 4: property-lattice laws on random abstractions
# ---------------------------------------------------------------------------

def _lattice_violations(profile) -> list[str]:
    out = []
    n = profile.node
    if n.functional:
        if n.bijective != tri_and(n.surjective, n.injective):
            out.append("node: bijective vs surjective∧injective")
    elif n.bijective is not False:
        out.append("node: partial map must not be bijective")
    f = profile.functor
    if f.fully_faithful != tri_and(f.full, f.faithful):
        out.append("functor: fully-faithful vs full∧faithful")
    audits = list(profile.outcomes)
    if profile.outcome_summary is not None:
        audits.append(profile.outcome_summary)
    for a in audits:
        if a.functional:
            if a.bijective != tri_and(a.surjective, a.injective):
                out.append(f"outcome {a.target}: bijective law")
        elif a.bijective is not False:
            out.append(f"outcome {a.target}: partial map must not be bijective")
    return out


def test_criterion_4_property_lattice_laws(acceptance):
    acceptance(4, "property-lattice laws", False)
    rng = random.Random(20260814)
    violations: list[str] = []
    count = 0
    while count < 1000:
        src = random_model(rng)
        tgt = random_model(rng)
        rows = random_rows(rng, src, tgt)
        if not rows:
            continue
        a = Abstraction(
            name=f"rand{count}",
            source_ref=src.name,
            target_ref=tgt.name,
            direction=rng.choice(list(Direction)),
            structure=StructuralMap(
                rows=rows,
                edge_map=(
                    random_edge_map(rng, src, tgt, rows)
                    if rng.random() < 0.5
                    else None
                ),
            ),
            outcome_maps=random_outcome_maps(rng, src, tgt),
        )
        profile = audit_abstraction(a, src, tgt)
        bad = _lattice_violations(profile)
        if bad:
            violations.append(f"seed-case {count}: {'; '.join(bad)}")
        count += 1
    ok = count >= 1000 and violations == []
    acceptance(4, "property-lattice laws", ok)
    assert count >= 1000
    assert violations == []


# ---------------------------------------------------------------------------
# Criterion 5: oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_oracle_equivalence(acceptance):
    acceptance(5, "oracle equivalence", False)
    failures: list[str] = []
    rng = random.Random(5050)

    # (a) hom-set enumeration against recursive path search, 200 DAGs.
    dags = 0
    for case in range(200):
        adj = random_dag(rng, rng.randint(1, 8))
        nodes = tuple(adj)
        dag = Dag(nodes=nodes, edges=tuple(
            (u, v) for u in nodes for v in adj[u]
        ))
        for u in nodes:
            for v in nodes:
                got = list(hom_set(dag, u, v))
                want = all_paths(adj, u, v)
                if got != want or len(got) != path_count(adj, u, v):
                    failures.append(f"hom {case}: {u}->{v}")
        dags += 1

    # (b) pushforward against preimage summation: every deterministic map
    # between domains of size 1..6.
    pushes = 0
    for n_src in range(1, 7):
        src_dom = tuple(str(i) for i in range(n_src))
        weights = [rng.uniform(0.1, 1.0) for _ in range(n_src)]
        total = sum(weights)
        dist = Distribution(
            scope=("S",),
            domains=(src_dom,),
            probs={(x,): w / total for x, w in zip(src_dom, weights)},
        )
        src = build_model("src", [("S", src_dom, (), lambda p, u: u)],
                          {"S": tuple((x, 1 / n_src) for x in src_dom)})
        for n_tgt in range(1, 7):
            tgt_dom = tuple(str(i) for i in range(n_tgt))
            tgt = build_model("tgt", [("S'", tgt_dom, (), lambda p, u: u)],
                              {"S'": tuple((x, 1 / n_tgt) for x in tgt_dom)})
            for images in itertools.product(tgt_dom, repeat=n_src):
                a = Abstraction(
                    name="p", source_ref="src", target_ref="tgt",
                    direction=Direction.MICRO_TO_MACRO,
                    structure=StructuralMap(rows={"S": {"S'": 1.0}}),
                    outcome_maps=[OutcomeMap(
                        target="S'", sources=("S",),
                        rows={(x,): {(y,): 1.0}
                              for x, y in zip(src_dom, images)},
                    )],
                )
                got = pushforward(a, dist, src, tgt)
                want = pushforward_by_preimage(
                    dist.probs,
                    {(x,): (y,) for x, y in zip(src_dom, images)},
                )
                if not _close(got.probs, want):
                    failures.append(f"push {n_src}->{n_tgt} {images}")
                pushes += 1

    # (c) joint distribution against kernel composition on independent-noise
    # binary models.
    joints = 0
    for case in range(50):
        n = rng.randint(1, 4)
        names = [f"V{i}" for i in range(n)]
        parents = {
            v: tuple(p for p in names[:i] if rng.random() < 0.5)
            for i, v in enumerate(names)
        }
        dists = {}
        for v in names:
            w = rng.uniform(0.1, 0.9)
            dists[v] = (("0", w), ("1", 1.0 - w))

        def mech_for(v, salt=rng.randint(0, 10**9)):
            def mech(pvals, u):
                return str(zlib.crc32(repr((salt, v, pvals, u)).encode()) % 2)
            return mech

        spec = [(v, BIN, parents[v], mech_for(v)) for v in names]
        m = build_model("k", spec, dists)
        plain = plain_scm(m)
        got = joint_distribution(m)
        via_kernels = plain_joint_via_kernels(plain)
        brute = plain_joint(plain)
        if not _close(got.probs, via_kernels) or not _close(got.probs, brute):
            failures.append(f"joint {case}")
        joints += 1

    # Every function between domains of sizes 1..6 is checked exhaustively.
    expected_pushes = sum(m ** n for n in range(1, 7) for m in range(1, 7))
    ok = (dags >= 200 and pushes == expected_pushes and joints >= 50
          and failures == [])
    acceptance(5, "oracle equivalence", ok)
    assert dags >= 200 and joints >= 50
    assert pushes == expected_pushes
    assert failures == []


# ---------------------------------------------------------------------------
# Criterion 6: intervention contract
# ---------------------------------------------------------------------------

def test_criterion_6_intervention_contract(acceptance):
    acceptance(6, "intervention contract", False)
    rng = random.Random(606)
    failures: list[str] = []
    for case in range(100):
        m = random_model(rng)
        k = rng.randint(1, len(m.variable_names))
        chosen = rng.sample(m.variable_names, k)
        do = {v: rng.choice(m.domain_of(v)) for v in chosen}
        done = intervene(m, do)
        dag = underlying_graph(done)
        joint = joint_distribution(done)
        for v, val in do.items():
            if any(w == v for _, w in dag.edges):
                failures.append(f"{case}: {v} keeps incoming edges")
            point = marginal(joint, [v])
            if abs(point.prob((val,)) - 1.0) > TOL:
                failures.append(f"{case}: {v} not a point mass")
        if intervene(done, do) != done:
            failures.append(f"{case}: not idempotent")
    ok = failures == []
    acceptance(6, "intervention contract", ok)
    assert failures == []


# ---------------------------------------------------------------------------
# Criterion 7: round-trip stability and table mutation test
# ---------------------------------------------------------------------------

def test_criterion_7_round_trip_and_mutation(acceptance, tmp_path, capsys):
    acceptance(7, "round-trip and mutation test", False)
    failures: list[str] = []

    # Byte-stable parse/emit on every committed fixture.
    fixture_count = 0
    for sub in ("models", "figures", "witnesses/structural",
                "witnesses/distributional"):
        folder = DATA / sub
        for entry in sorted(folder.iterdir(), key=lambda e: e.name):
            if not entry.name.endswith((".scm", ".abs")):
                continue
            raw = entry.read_text()
            if emit_document(parse_document(raw)) != raw:
                failures.append(f"round-trip: {sub}/{entry.name}")
            fixture_count += 1
    if fixture_count != 43:
        failures.append(f"expected 43 fixtures, found {fixture_count}")

    # The tables command accepts a correct build...
    if main(["tables"]) != 0:
        failures.append("tables exit code on correct build")

    # ...and rejects every possible single-cell perturbation of the truth.
    flip = {"Y": "N", "N": "Y", "-": "Y"}
    for which in ("structural", "distributional"):
        table = taxonomy.shipped_table(which)
        for row in table.rows:
            for col in table.cols:
                cells = dict(table.cells)
                cells[(row, col)] = taxonomy.Admissibility.from_letter(
                    flip[cells[(row, col)].value]
                )
                mutated = taxonomy.PropertyMatrix(
                    title=table.title, rows=table.rows,
                    cols=table.cols, cells=cells,
                )
                truth = tmp_path / "truth.tbl"
                truth.write_text(mutated.to_tbl())
                code = main(["tables", "--which", which, "--truth", str(truth)])
                if code == 0:
                    failures.append(f"mutation not caught: {which} "
                                    f"({row}, {col})")
    capsys.readouterr()  # drop the bulk table output

    ok = failures == []
    acceptance(7, "round-trip and mutation test", ok)
    assert failures == []
