"""The three workloads, as passes of checked jobs.

A pass is one list of jobs.  Its inputs are generated as absaudit text into a
work directory before any job of the pass runs, together with the answer
each job must give (from `oracle.py`).  `build_pass(workload, rng, work,
small)` returns the jobs in the order the pass runs them.

Every pass of a synthetic workload runs a fixed set of n spanning each
family's range: every n, except for the chain identity and chain coarsening
maps, whose n in [8, 40] runs in steps of two up to 24 and of four above
(both commands on both maps at every n would take several times longer).
The seed does not draw n: the job costs grow like n^4.5, so a drawn mix made
the pass cost and p90 depend on the draw.  The seed picks the random DAGs, noise weights, marginal subsets,
interventions and the job order.  `small=True` runs every family at the
lowest n of its range, for the self-check and the warm-up.
"""

from __future__ import annotations

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import absaudit.cli
import absaudit.scm
import absaudit.textfmt

import gen
import oracle


@dataclass
class Job:
    id: str
    family: str
    n: int
    call: Callable[[], object]  # the timed part
    check: Callable[[object], "str | None"]  # None when the output is right
    known_defect: bool = False


def cli_call(argv: list[str]) -> Callable[[], tuple]:
    """absaudit's CLI in-process: (exit code, stdout, stderr)."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = absaudit.cli.main(argv)
            except SystemExit as stop:
                code = stop.code
        return code, out.getvalue(), err.getvalue()
    return call


def expect(check_out: Callable[[str], "str | None"], code: int = 0) -> Callable:
    def check(result):
        got, out, err = result
        if got != code:
            return f"exit {got} (want {code}): {(err or out).strip()[:200]}"
        return check_out(out)
    return check


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# structural: free category, functor audit, type detection
# ---------------------------------------------------------------------------

CHAIN_COMBOS = (("chain-identity", "audit"), ("chain-identity", "classify"),
                ("chain-coarsening", "audit"), ("chain-coarsening", "classify"))


def _map_jobs(work, tag, family, n, src, tgt, node_of, commands, label) -> list[Job]:
    """Jobs on a deterministic map with a full edge map; `tag` names the input."""
    src_paths = gen.paths(len(src["vars"]), _edges(src))
    text = gen.document(gen.model_text(src), gen.model_text(tgt),
                        gen.abs_text("a", src, tgt, node_of, src_paths))
    path = _write(work, f"{tag}.abs", text)
    jobs = []
    if "audit" in commands:
        functor = oracle.functor_verdicts(
            src_paths, gen.paths(len(tgt["vars"]), _edges(tgt)),
            lambda p: gen.path_image(node_of, p))
        want = oracle.profile("a", node_of, len(tgt["vars"]), functor, [])
        jobs.append(Job(f"{tag}:audit", family, n,
                        cli_call(["--format", "json", "audit", path]),
                        expect(lambda out, w=want: oracle.check_json(out, w))))
    if "classify" in commands:
        want = {"structural": [label], "distributional": []}
        jobs.append(Job(f"{tag}:classify", family, n,
                        cli_call(["--format", "json", "classify", path]),
                        expect(lambda out, w=want: oracle.check_json(out, w))))
    return jobs


def _edges(m: dict) -> list[tuple[int, int]]:
    index = {v: i for i, v in enumerate(m["vars"])}
    return [(index[p], index[v]) for v in m["vars"] for p in m["parents"][v]]


def _random_dags(rng, n: int, draws: int = 15, keep=(2, 7, 12)) -> list:
    """Three seeded random DAGs (edge probability 0.4) at fixed quantiles of
    the path count among `draws` draws.

    The audit's cost grows with the square of the path count, which varies
    tenfold between draws; keeping the draws at fixed quantiles makes the
    family's cost follow the distribution rather than the luck of a seed.
    """
    drawn = [gen.random_edges(rng, n, 0.4) for _ in range(draws)]
    drawn.sort(key=lambda edges: len(gen.paths(n, edges)))
    return [drawn[i] for i in keep]


def structural_pass(rng, work: Path, small: bool) -> list[Job]:
    jobs: list[Job] = []
    chain_ns = [8] if small else [*range(8, 25, 2), *range(28, 41, 4)]
    for n, (family, command) in itertools.product(chain_ns, CHAIN_COMBOS):
        src = gen.unary_model("src", "X", n, gen.chain_edges(n))
        if family == "chain-identity":
            tgt = gen.unary_model("tgt", "Y", n, gen.chain_edges(n))
            node_of, label = list(range(n)), "identity"
        else:
            m = len(gen.pair_blocks(n))
            tgt = gen.unary_model("tgt", "Y", m, gen.chain_edges(m))
            node_of, label = [i // 2 for i in range(n)], "node-coarsening"
        jobs += _map_jobs(work, f"{family}:n={n}", family, n, src, tgt, node_of,
                          (command,), label)

    for n in ([6] if small else range(6, 13)):
        for copy, edges in enumerate(_random_dags(rng, n)):
            src = gen.unary_model("src", "X", n, edges)
            tgt = gen.unary_model("tgt", "Y", n, edges)
            jobs += _map_jobs(work, f"random-dag-identity:n={n}:{copy}", "random-dag-identity",
                              n, src, tgt, list(range(n)), ("audit", "classify"), "identity")
    for n in ([5] if small else range(5, 10)):
        edges = gen.complete_edges(n)
        src = gen.unary_model("src", "X", n, edges)
        tgt = gen.unary_model("tgt", "Y", n, edges)
        jobs += _map_jobs(work, f"complete-dag-identity:n={n}", "complete-dag-identity", n,
                          src, tgt, list(range(n)), ("audit", "classify"), "identity")

    for n in ([12] if small else range(12, 17)):
        edges = gen.complete_edges(n)
        m = gen.unary_model("m", "X", n, edges)
        path = _write(work, f"complete-hom-{n}.scm", gen.document(gen.model_text(m)))
        for s, t in ((0, n - 1), (1, 0)):
            jobs.append(Job(
                f"complete-hom:n={n}:X{s}->X{t}", "complete-hom", n,
                cli_call(["graph", path, "--hom", f"X{s}", f"X{t}"]),
                expect(lambda out, s=s, t=t, e=edges, v=m["vars"]:
                       oracle.check_hom_listing(out, v, e, s, t))))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# distribution: joint, marginal, intervention, pushforward, text round trip
# ---------------------------------------------------------------------------

DIST_FAMILIES = (
    # name, n range, noise, outcome layer
    ("dense-chain", 8, 13, "uniform", "pairs"),
    ("dense-dag", 8, 13, "uniform", "pairs"),
    ("sparse-chain", 14, 20, "sparse", "pairs"),
    ("dense-global", 6, 9, "uniform", "global"),
)


def _dist_jobs(rng, work, family, n, noise, layer) -> list[Job]:
    edges = gen.random_edges(rng, n, 0.4) if family == "dense-dag" else gen.chain_edges(n)
    dist = gen.uniform_dist(n) if noise == "uniform" else gen.sparse_dist(rng, n)
    src = gen.parity_model("src", "X", n, edges, dist)
    if layer == "pairs":
        blocks = gen.pair_blocks(n)
        tgt = gen.constant_binary_model("tgt", "Y", len(blocks))
        node_of = [k for k, block in enumerate(blocks) for _ in block]
        outcome_text = gen.parity_outcome_blocks(src, tgt)
        layers = []
        for y, block in zip(tgt["vars"], blocks):
            keys = list(itertools.product("01", repeat=len(block)))
            layers.append((y, {k: (str(sum(map(int, k)) % 2),) for k in keys},
                           keys, [("0",), ("1",)]))
    else:
        blocks = [[i] for i in range(n)]
        tgt = gen.constant_binary_model("tgt", "Y", n)
        node_of = list(range(n))
        outcome_text = gen.global_identity_block(src, tgt)
        keys = list(itertools.product("01", repeat=n))
        layers = [("*", {k: k for k in keys}, keys, keys)]
    text = gen.document(gen.model_text(src), gen.model_text(tgt),
                        gen.abs_text("a", src, tgt, node_of, None, outcome_text))
    path = _write(work, f"{family}-{n}.abs", text)
    scope = src["vars"]
    joint = oracle.simulate(src)
    keep = sorted(rng.sample(scope, rng.randint(1, n - 1)), key=scope.index)
    var = rng.choice(scope)
    value = rng.choice("01")
    if noise == "uniform":
        # Parity coarsening (or the identity) of a uniform joint is uniform.
        pushed = oracle.uniform([tgt["domain"][y] for y in tgt["vars"]])
    else:
        pushed = {}
        for k, p in joint.items():
            y = tuple(str(sum(int(k[i]) for i in b) % 2) for b in blocks)
            pushed[y] = pushed.get(y, 0.0) + p
    profile = oracle.profile("a", node_of, len(tgt["vars"]), oracle.NO_FUNCTOR, layers)
    tag = f"{family}:n={n}"

    def job(cmd, call, check):
        return Job(f"{tag}:{cmd}", family, n, call, check)

    jobs = [
        job("validate", cli_call(["validate", path]), expect(lambda out: oracle.check_equal(
            out, oracle.validate_text([src, tgt], [{"name": "a"}])))),
        job("dist", cli_call(["--format", "json", "dist", path, "--model", "src"]),
            expect(lambda out: oracle.check_dist_json(out, scope, joint))),
        job("dist-marginal", cli_call(["dist", path, "--model", "src",
                                       "--marginal", ",".join(keep)]),
            expect(lambda out: oracle.check_dist_text(
                out, keep, [src["domain"][v] for v in keep],
                oracle.marginalize(joint, scope, keep)))),
        job("dist-do", cli_call(["--format", "json", "dist", path, "--model", "src",
                                 "--do", f"{var}={value}"]),
            expect(lambda out: oracle.check_dist_json(
                out, scope, oracle.simulate(src, {var: value})))),
        job("push", cli_call(["--format", "json", "push", path]),
            expect(lambda out: oracle.check_dist_json(out, tgt["vars"], pushed))),
        job("audit", cli_call(["--format", "json", "audit", path]),
            expect(lambda out: oracle.check_json(out, profile))),
        job("round-trip", lambda: _round_trip(text), _same_emit),
    ]
    if noise == "uniform":
        jobs.append(job("kernels", lambda: _kernels(text),
                        lambda got: _check_kernels(got, src)))
    return jobs


def _round_trip(text: str) -> tuple[str, str]:
    first = absaudit.textfmt.emit_document(absaudit.textfmt.parse_document(text))
    second = absaudit.textfmt.emit_document(absaudit.textfmt.parse_document(first))
    return first, second


def _same_emit(result) -> "str | None":
    first, second = result
    return None if first == second else oracle.check_equal(second, first)


def _kernels(text: str) -> list:
    model = absaudit.textfmt.parse_document(text).models["src"]
    return [absaudit.scm.mechanism_kernel(model, v) for v in model.variable_names]


def _check_kernels(kernels, src) -> "str | None":
    """Uniform independent noise makes every row of every kernel (1/2, 1/2)."""
    for k, v in zip(kernels, src["vars"]):
        if list(k.row_scope) != src["parents"][v]:
            return f"kernel of {v} reads {k.row_scope}"
        rows = {key: dict(row) for key, row in k.rows.items()}
        want = set(itertools.product("01", repeat=len(src["parents"][v])))
        if set(rows) != want or any(
                abs(rows[key][x] - 0.5) > oracle.TOL for key in want for x in "01"):
            return f"kernel of {v} is not (1/2, 1/2) on every row"
    return None


def distribution_pass(rng, work: Path, small: bool) -> list[Job]:
    jobs: list[Job] = []
    for family, lo, hi, noise, layer in DIST_FAMILIES:
        for n in ([lo] if small else range(lo, hi + 1)):
            jobs += _dist_jobs(rng, work, family, n, noise, layer)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# corpus: the shipped data through every command that applies
# ---------------------------------------------------------------------------

# The identity witness with one explicit zero-weight entry in a node row.
# The map's support is unchanged, so every answer is the identity witness's.
# absaudit reads the zero entry as a second image: `validate` reports
# edge-map-stochastic, `audit` calls the map non-deterministic and `classify`
# answers causal-splitting.  These three jobs fail until that is fixed.
DEFECT_ROW = ("    A : X 1.0\n", "    A : X 1.0 Y 0.0\n")


def corpus_pass(rng, work: Path, data: Path) -> list[Job]:
    jobs: list[Job] = []
    files = sorted(data.glob("models/*.scm")) + sorted(data.glob("figures/*.abs")) \
        + sorted(data.glob("witnesses/*/*.abs"))
    for path in files:
        jobs += _file_jobs(path, path.relative_to(data).as_posix(), path.read_text("utf-8"))

    witness = (data / "witnesses/structural/identity.abs").read_text("utf-8")
    if DEFECT_ROW[0] not in witness:
        raise SystemExit("the identity witness no longer has the row the defect input edits")
    text = witness.replace(*DEFECT_ROW)
    path = _write(work, "identity-zero-weight.abs", text)
    models, (a,) = oracle.read_blocks(text)
    n = sum(len(m["vars"]) for m in models)
    defect = [
        ("validate", cli_call(["validate", path]),
         expect(lambda out: oracle.check_equal(out, oracle.validate_text(models, [a])))),
        ("audit", cli_call(["--format", "json", "audit", path]),
         expect(lambda out: oracle.check_verdicts(out, a["name"], oracle.IDENTITY_VERDICTS))),
        ("classify", cli_call(["--format", "json", "classify", path]),
         expect(lambda out: oracle.check_json(out, {"structural": ["identity"],
                                                    "distributional": []}))),
    ]
    jobs += [Job(f"corpus-defect:identity-zero-weight:{cmd}", "corpus-defect", n,
                 call, check, known_defect=True) for cmd, call, check in defect]

    jobs.append(Job("corpus-tables:text", "corpus-tables", 0, cli_call(["tables"]),
                    expect(_check_tables_text)))
    jobs.append(Job("corpus-tables:json", "corpus-tables", 0,
                    cli_call(["--format", "json", "tables"]), expect(_check_tables_json)))
    rng.shuffle(jobs)
    return jobs


def _check_tables_text(out: str) -> "str | None":
    for size in (110, 36):
        if f"matches ground truth ({size}/{size} cells)" not in out:
            return f"no full match line for the {size}-cell table"
    return None


def _check_tables_json(out: str) -> "str | None":
    payload = json.loads(out)
    for name, size in (("structural", 110), ("distributional", 36)):
        table = payload[name]
        if not table["matches_ground_truth"] or len(table["cells"]) != size:
            return f"{name} table: {table['differences'][:3]}"
    return None


def _file_jobs(path: Path, rel: str, text: str) -> list[Job]:
    models, abstractions = oracle.read_blocks(text)
    by_name = {m["name"]: m for m in models}
    kind = {"models": "model", "figures": "figure", "witnesses": "witness"}[rel.split("/")[0]]
    family = f"corpus-{kind}"
    n = sum(len(m["vars"]) for m in models)
    p = str(path)
    jobs: list[tuple[str, Callable, Callable]] = [
        ("validate", cli_call(["validate", p]), expect(lambda out: oracle.check_equal(
            out, oracle.validate_text(models, abstractions)))),
    ]
    for m in models:
        pick = ["--model", m["name"]]
        jobs += [
            (f"graph:{m['name']}", cli_call(["graph", p] + pick),
             expect(lambda out, m=m: oracle.check_equal(out, oracle.graph_text(m)))),
            (f"graph-dot:{m['name']}", cli_call(["graph", p, "--dot"] + pick),
             expect(lambda out, m=m: oracle.check_equal(out, oracle.model_dot(m)))),
            (f"dist:{m['name']}", cli_call(["--format", "json", "dist", p] + pick),
             expect(lambda out, m=m: oracle.check_dist_json(out, m["vars"], oracle.simulate(m)))),
        ]
    for a in abstractions:
        src, tgt = by_name[a["source"]], by_name[a["target"]]
        stem = path.stem
        if kind == "figure":
            audit_check = lambda out, a=a, s=stem: oracle.check_verdicts(
                out, a["name"], oracle.FIGURE_VERDICTS[s])
        else:
            audit_check = lambda out, a=a: oracle.check_profile_laws(out, a["name"])
        jobs += [
            ("graph-dot-abs", cli_call(["graph", p, "--dot", "--abs", a["name"]]),
             expect(lambda out, a=a, s=src, t=tgt: oracle.check_equal(
                 out, oracle.abstraction_dot(a, s, t)))),
            ("audit", cli_call(["--format", "json", "audit", p]), expect(audit_check)),
            ("classify", cli_call(["--format", "json", "classify", p]),
             expect(lambda out, k=rel.split("/")[1] if kind == "witness" else None, s=stem:
                    _check_labels(out, k, s))),
        ]
        if a["outcomes"]:
            pushed, lost = oracle.push(oracle.simulate(src), src, tgt, a)
            if lost > oracle.TOL:
                check = expect(lambda out: None if out == "" else f"printed {out[:80]!r}",
                               code=1)
            else:
                check = expect(lambda out, t=tgt, w=pushed: oracle.check_dist_json(
                    out, t["vars"], w))
            jobs.append(("push", cli_call(["--format", "json", "push", p]), check))
    return [Job(f"{family}:{rel}:{cmd}", family, n, call, check) for cmd, call, check in jobs]


STRUCTURAL_TYPES = {"identity", "node-permutation", "node-coarsening", "edge-coarsening",
                    "node-embedding", "edge-embedding", "node-dropping", "edge-dropping",
                    "causal-reversal", "causal-splitting", "abstraction-reversal"}
DISTRIBUTIONAL_TYPES = {"identity-or-permutation", "coarsening", "embedding",
                        "outcome-dropping", "outcome-splitting", "abstraction-reversal"}


def _check_labels(out: str, layer: "str | None", stem: str) -> "str | None":
    """A witness names its own type; every label must be a known type."""
    labels = json.loads(out)
    if set(labels) != {"structural", "distributional"}:
        return f"layers {sorted(labels)}"
    if not set(labels["structural"]) <= STRUCTURAL_TYPES or \
            not set(labels["distributional"]) <= DISTRIBUTIONAL_TYPES:
        return f"unknown label in {labels}"
    if layer is not None and stem not in labels[layer]:
        return f"{layer} labels {labels[layer]} miss {stem}"
    return None


def build_pass(workload: str, rng, work: Path, data: Path, small: bool) -> list[Job]:
    if workload == "structural":
        return structural_pass(rng, work, small)
    if workload == "distribution":
        return distribution_pass(rng, work, small)
    return corpus_pass(rng, work, data)
