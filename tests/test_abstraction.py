"""Abstraction layers: validation, preimages, pushforward."""

from __future__ import annotations

import importlib.resources
import itertools
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import absaudit.abstraction as abstraction_module
import absaudit.scm as scm_module
from absaudit.abstraction import (
    GLOBAL,
    Abstraction,
    Direction,
    OutcomeMap,
    StructuralMap,
    preimage,
    pushforward,
    validate_abstraction,
)
from absaudit.errors import (
    ENUM_CAP_ENV,
    CapacityError,
    ModelError,
    RenormalizationRequiredError,
)
from absaudit.audit import audit_abstraction
from absaudit.scm import Exogenous, Scm, Variable, joint_distribution
from absaudit.textfmt import parse_document

from helpers import BIN, U2, M, abstraction, chain, det_outcomes, model, random_model
from oracles import block, plain_pushforward, pushforward_cells

TOL = 1e-9


@pytest.fixture
def micro():
    return chain("micro", ["S", "T", "C"])


@pytest.fixture
def macro():
    return chain("macro", ["S'", "C'"])


def collapse(micro, macro, outcomes=()):
    """S,T -> S', C -> C' with optional outcome layer."""
    return abstraction(
        "a", micro, macro, {"S": "S'", "T": "S'", "C": "C'"}, outcomes=list(outcomes)
    )


def proj_outcomes():
    return [
        det_outcomes(
            "S'",
            ("S", "T"),
            {
                ("0", "0"): ("0",),
                ("0", "1"): ("0",),
                ("1", "0"): ("1",),
                ("1", "1"): ("1",),
            },
        ),
        det_outcomes("C'", ("C",), {("0",): ("0",), ("1",): ("1",)}),
    ]


def codes(report):
    return {issue.code for issue in report.issues}


# ---------------------------------------------------------------------------
# Preimages
# ---------------------------------------------------------------------------

def test_preimage_canonical_order(micro, macro):
    a = collapse(micro, macro)
    assert preimage(a, micro, "S'") == ("S", "T")
    assert preimage(a, micro, "C'") == ("C",)
    assert preimage(a, micro, "unhit") == ()


def test_preimage_requires_determinism(micro, macro):
    a = abstraction("a", micro, macro, {"S": {"S'": 0.5, "C'": 0.5}})
    with pytest.raises(ModelError, match="deterministic"):
        preimage(a, micro, "S'")


@st.composite
def _sparse_rows(draw, keys: list, values: list) -> dict:
    """Rows for some of `keys`: explicit zero entries under up to three
    supported ones, so a row may be all-zero or hold one to three."""
    rows = {}
    for key in draw(st.lists(st.sampled_from(keys), unique=True)):
        zeros = draw(st.lists(st.sampled_from(values), unique=True, max_size=2))
        held = draw(st.lists(st.sampled_from(values), unique=True, max_size=3))
        rows[key] = {**{v: 0.0 for v in zeros},
                     **{v: draw(st.sampled_from([0.25, 0.5, 1.0])) for v in held}}
    return rows


def _plain_images(rows: dict) -> dict | None:
    """Each mapped row's one entry above TOL; None when a row has more."""
    images = {}
    for key, row in rows.items():
        held = [v for v, w in row.items() if w > TOL]
        if len(held) > 1:
            return None
        if held:
            images[key] = held[0]
    return images


SOURCE_NODES, TARGET_NODES = ["A", "B", "C", "D"], ["X", "Y", "Z"]
OUTCOME_KEYS = list(itertools.product("01", repeat=2))


@settings(max_examples=200, deadline=None)
@given(node_rows=_sparse_rows(SOURCE_NODES, TARGET_NODES),
       outcome_rows=_sparse_rows(OUTCOME_KEYS, [("0",), ("1",), ("2",)]))
def test_images_and_preimage_read_each_row_once(node_rows, outcome_rows):
    """`images` is the plain reading of the supports of a node map and of an
    outcome map, and `preimage` on a deterministic node map is the plain
    definition: the source nodes whose one supported entry is the target."""
    sm = StructuralMap(rows=node_rows)
    om = OutcomeMap(target="X", sources=("A", "B"), rows=outcome_rows)
    assert sm.images() == _plain_images(node_rows)
    assert om.images() == _plain_images(outcome_rows)
    src, tgt = chain("src", SOURCE_NODES), chain("tgt", TARGET_NODES)
    a = abstraction("a", src, tgt, node_rows)
    for x in TARGET_NODES:
        if sm.images() is None:
            with pytest.raises(ModelError, match="deterministic"):
                preimage(a, src, x)
        else:
            assert preimage(a, src, x) == tuple(
                u for u in SOURCE_NODES
                if [y for y, w in node_rows.get(u, {}).items() if w > TOL] == [x]
            )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_clean(micro, macro):
    assert validate_abstraction(collapse(micro, macro, proj_outcomes()), micro, macro).ok


def test_validate_node_rows(micro, macro):
    a = abstraction("a", micro, macro, {"Q": "S'"})
    assert "map-unknown-source" in codes(validate_abstraction(a, micro, macro))
    a = abstraction("a", micro, macro, {"S": "Q"})
    assert "map-unknown-target" in codes(validate_abstraction(a, micro, macro))
    a = abstraction("a", micro, macro, {"S": {"S'": 1.5, "C'": -0.5}})
    assert "map-negative" in codes(validate_abstraction(a, micro, macro))
    a = abstraction("a", micro, macro, {"S": {"S'": 0.5}})
    assert "map-row-total" in codes(validate_abstraction(a, micro, macro))


def test_validate_pairing(micro, macro):
    a = abstraction("a", micro, macro, {"S": "S'"}, pairs={"Q": "S'"})
    assert "pair-unknown" in codes(validate_abstraction(a, micro, macro))


def test_validate_edge_map(micro, macro):
    a = abstraction(
        "a", micro, macro,
        {"S": {"S'": 0.5, "C'": 0.5}},
        edges={M("S"): M("S'")},
    )
    assert "edge-map-stochastic" in codes(validate_abstraction(a, micro, macro))
    a = abstraction(
        "a", micro, macro, {"S": "S'"}, edges={M("S", "C"): M("S'", "C'")}
    )
    assert "edge-map-source" in codes(validate_abstraction(a, micro, macro))
    a = abstraction(
        "a", micro, macro, {"S": "S'"}, edges={M("S", "T"): M("C'", "S'")}
    )
    assert "edge-map-target" in codes(validate_abstraction(a, micro, macro))
    # The model's graph remembers confirmed paths only: a bad entry is
    # checked, and reported, again.
    assert "edge-map-target" in codes(validate_abstraction(a, micro, macro))


def test_validate_edge_map_words_each_bad_path(micro, macro):
    """A bad key or image is named by its nodes joined with '^'; a one-node
    path by its lone node, not as the `Q^Q` it is written as."""
    a = abstraction("a", micro, macro, {"S": "S'"},
                    edges={M("S", "C"): M("C'", "S'"), M("Q"): M("Q")})
    issues = validate_abstraction(a, micro, macro).issues
    assert [(i.code, i.message) for i in issues if i.code.startswith("edge-map")] == [
        ("edge-map-source", "S^C is not a morphism of the source graph"),
        ("edge-map-target", "C'^S' is not a morphism of the target graph"),
        ("edge-map-source", "Q is not a morphism of the source graph"),
        ("edge-map-target", "Q is not a morphism of the target graph"),
    ]


def test_validate_broken_functor_is_not_a_validation_error(micro, macro):
    # Wrong endpoints, but both sides are real paths: validation passes,
    # the audit reports non-functoriality.
    a = abstraction(
        "a", micro, macro, {"S": "S'", "C": "C'"},
        edges={M("S", "T", "C"): M("S'")},
    )
    assert validate_abstraction(a, micro, macro).ok


def test_validate_outcome_blocks(micro, macro):
    a = collapse(micro, macro, proj_outcomes() + [proj_outcomes()[1]])
    assert "outcome-duplicate" in codes(validate_abstraction(a, micro, macro))

    bad = collapse(
        micro, macro,
        [det_outcomes("S'", ("S",), {("0",): ("0",), ("1",): ("1",)})],
    )
    assert "outcome-block" in codes(validate_abstraction(bad, micro, macro))

    bad = collapse(micro, macro, [det_outcomes("Q", ("S",), {("0",): ("0",)})])
    assert "outcome-unknown-target" in codes(validate_abstraction(bad, micro, macro))

    stoch = abstraction(
        "a", micro, macro, {"S": {"S'": 0.5, "C'": 0.5}},
        outcomes=[det_outcomes("S'", ("S",), {("0",): ("0",)})],
    )
    assert "outcome-stochastic-nodes" in codes(validate_abstraction(stoch, micro, macro))


def test_validate_outcome_rows(micro, macro):
    om = proj_outcomes()[1]
    om.rows[("7",)] = {("0",): 1.0}
    a = collapse(micro, macro, [proj_outcomes()[0], om])
    assert "outcome-key" in codes(validate_abstraction(a, micro, macro))

    om = proj_outcomes()[1]
    om.rows[("0",)] = {("9",): 1.0}
    a = collapse(micro, macro, [proj_outcomes()[0], om])
    assert "outcome-range" in codes(validate_abstraction(a, micro, macro))

    om = proj_outcomes()[1]
    om.rows[("0",)] = {("0",): -1.0, ("1",): 2.0}
    a = collapse(micro, macro, [proj_outcomes()[0], om])
    assert "outcome-negative" in codes(validate_abstraction(a, micro, macro))

    om = proj_outcomes()[1]
    om.rows[("0",)] = {("0",): 0.4}
    a = collapse(micro, macro, [proj_outcomes()[0], om])
    assert "outcome-row-total" in codes(validate_abstraction(a, micro, macro))


def test_validate_non_finite_rows(micro, macro):
    nan = float("nan")
    a = abstraction("a", micro, macro, {"S": {"S'": nan}, "T": {"S'": 1.0}, "C": {"C'": 1.0}})
    assert codes(validate_abstraction(a, micro, macro)) == {"map-row-total"}
    a = abstraction("a", micro, macro, {"S": {"S'": float("inf"), "C'": -float("inf")}})
    assert "map-row-total" in codes(validate_abstraction(a, micro, macro))

    om = proj_outcomes()[1]
    om.rows[("0",)] = {("0",): nan}
    a = collapse(micro, macro, [proj_outcomes()[0], om])
    assert codes(validate_abstraction(a, micro, macro)) == {"outcome-row-total"}


def test_validate_all_zero_row_is_partial_not_invalid(micro, macro):
    om = proj_outcomes()[1]
    om.rows[("0",)] = {("0",): 0.0}
    a = collapse(micro, macro, [proj_outcomes()[0], om])
    assert validate_abstraction(a, micro, macro).ok


def test_validate_global_outcome_map(micro, macro):
    gom = OutcomeMap(
        target=GLOBAL, sources=("S", "T"), rows={}, onto=("S'", "C'")
    )
    a = abstraction("a", micro, macro, {"S": "S'"}, outcomes=[gom])
    assert "outcome-global-scope" in codes(validate_abstraction(a, micro, macro))

    gom = OutcomeMap(
        target=GLOBAL, sources=("S", "T", "C"), rows={}, onto=("S'",)
    )
    a = abstraction("a", micro, macro, {"S": "S'"}, outcomes=[gom])
    assert "outcome-global-onto" in codes(validate_abstraction(a, micro, macro))

    gom = OutcomeMap(
        target=GLOBAL, sources=("S", "T", "C"), rows={}, onto=("S'", "C'")
    )
    mixed = collapse(micro, macro, [gom, proj_outcomes()[1]])
    assert "outcome-mixed" in codes(validate_abstraction(mixed, micro, macro))


def test_validate_global_map_reading_an_unknown_variable():
    """A global outcome map that reads a variable the source lacks is an
    `outcome-global-scope` issue, and its rows are not checked against the
    source's domains; the models are still read."""
    path = importlib.resources.files("absaudit") / "data" / "witnesses" / "distributional"
    text = (path / "abstraction-reversal.abs").read_text(encoding="utf-8")
    doc = parse_document(text.replace("outcomes * from S' onto S", "outcomes * from Zed onto S"))
    a = doc.abstractions["witness_abstraction_reversal"]
    assert codes(validate_abstraction(a, *doc.resolve(a))) == {"outcome-global-scope"}


# ---------------------------------------------------------------------------
# Pushforward
# ---------------------------------------------------------------------------

def test_pushforward_projection(micro, macro):
    a = collapse(micro, macro, proj_outcomes())
    pushed = pushforward(a, joint_distribution(micro), micro, macro)
    assert pushed.scope == ("S'", "C'")
    for outcome in itertools.product(*pushed.domains):
        assert abs(pushed.prob(outcome) - 0.25) <= TOL


def test_pushforward_requires_outcome_layer(micro, macro):
    a = collapse(micro, macro)
    with pytest.raises(ModelError, match="no distributional layer"):
        pushforward(a, joint_distribution(micro), micro, macro)


def test_pushforward_refuses_a_global_map_onto_another_order():
    """A global map that writes every target variable, but not in the
    target's declaration order, is refused by `validate` and by the library
    pushforward, which would otherwise put each value under another
    variable's name."""
    doc = parse_document("""absaudit-format 1
scm src {
  var A : 0 1
  var B : 0
  exo U_A : 0 1 for A
  exo U_B : 0 for B
  dist U_A U_B {
    0 0 : 0.1
    1 0 : 0.9
  }
  mech A {
    0 : 0
    1 : 1
  }
  mech B {
    0 : 0
  }
}
scm tgt {
  var X : 0 1
  var Y : a b c
  exo U_X : 0 for X
  exo U_Y : 0 for Y
  dist U_X U_Y {
    0 0 : 1.0
  }
  mech X {
    0 : 0
  }
  mech Y {
    0 : a
  }
}
abs swap {
  source src
  target tgt
  direction micro-to-macro
  nodes {
    A : X 1.0
    B : Y 1.0
  }
  outcomes * from A B onto Y X {
    0 0 : a 0 1.0
    1 0 : b 1 1.0
  }
}
""")
    a = doc.abstractions["swap"]
    src, tgt = doc.resolve(a)
    words = "the global outcome map must write every target variable in declaration order"
    assert ("outcome-global-onto", words) in {
        (i.code, i.message) for i in validate_abstraction(a, src, tgt).issues}
    with pytest.raises(ModelError) as refused:
        pushforward(a, joint_distribution(src), src, tgt)
    assert str(refused.value) == words


def test_pushforward_refuses_a_value_outside_the_target_domain(micro, macro):
    """An unvalidated map whose supported row hits a value that is not a
    target outcome (a per-variable value that is not a 1-tuple of the
    variable's domain, a global value of the wrong length) is refused before
    the walk, in the words of `validate`'s `outcome-range` issue; a bad
    value of weight zero is never read."""
    layers = []
    for bad in (("0", "1"), "0", ("2",), ()):
        maps = proj_outcomes()
        maps[1].rows[("1",)] = {("0",): 0.0, bad: 1.0}
        layers.append((maps, ("1",)))
    rows = {key: {(key[0], key[2]): 1.0} for key in block(micro, ("S", "T", "C"))}
    rows[("1", "0", "1")] = {("1",): 1.0}
    whole = OutcomeMap(GLOBAL, ("S", "T", "C"), rows, onto=("S'", "C'"))
    layers.append(([whole], ("1", "0", "1")))
    for maps, key in layers:
        a = collapse(micro, macro, maps)
        words = {i.message for i in validate_abstraction(a, micro, macro).issues
                 if i.code == "outcome-range"}
        with pytest.raises(ModelError) as refused:
            pushforward(a, joint_distribution(micro), micro, macro, renormalize=True)
        assert words == {str(refused.value)}
        assert str(refused.value).startswith(f"outcome row {key!r} for ")
    maps = proj_outcomes()
    maps[1].rows[("1",)] = {("1",): 1.0, ("0", "1"): 0.0}
    pushed = pushforward(collapse(micro, macro, maps), joint_distribution(micro), micro, macro)
    assert abs(pushed.prob(("1", "1")) - 0.25) <= TOL


def test_pushforward_scope_mismatch(micro, macro):
    a = collapse(micro, macro, proj_outcomes())
    with pytest.raises(ModelError, match="scope"):
        pushforward(a, joint_distribution(macro), micro, macro)


def test_pushforward_needs_every_target_variable(micro, macro):
    a = collapse(micro, macro, [proj_outcomes()[0]])
    with pytest.raises(ModelError, match="no outcome map for target variable C'"):
        pushforward(a, joint_distribution(micro), micro, macro)


def test_pushforward_names_an_unknown_source_variable(micro, macro):
    """An unvalidated outcome map that reads a variable the source lacks,
    global or per variable, is refused by name."""
    gom = OutcomeMap(target=GLOBAL, sources=("S", "Zed", "C"), rows={}, onto=("S'", "C'"))
    per = det_outcomes("S'", ("S", "Zed"), {("0", "0"): ("0",)})
    for outcomes, name in (([gom], r"\*"), ([per, proj_outcomes()[1]], "S'")):
        a = collapse(micro, macro, outcomes)
        with pytest.raises(ModelError, match=f"outcome map for {name} reads unknown variable 'Zed'"):
            pushforward(a, joint_distribution(micro), micro, macro)


def test_pushforward_onto_a_model_without_variables(micro):
    """A target without variables reads no map (here the unvalidated map
    has one for an unknown variable), so the walk passes no map: each
    outcome stays one row under the empty key, and all the mass lands on
    the empty outcome."""
    empty = Scm("empty", [], [], {}, {(): 1.0})
    a = abstraction("a", micro, empty, {}, outcomes=[proj_outcomes()[0]])
    pushed = pushforward(a, joint_distribution(micro), micro, empty)
    assert (pushed.scope, list(pushed.probs.items())) == ((), [((), 1.0)])


def test_pushforward_partial_raises_then_renormalizes(micro, macro):
    maps = proj_outcomes()
    del maps[1].rows[("1",)]  # lose the C=1 half of the mass
    a = collapse(micro, macro, maps)
    dist = joint_distribution(micro)
    with pytest.raises(RenormalizationRequiredError, match="renormalization required"):
        pushforward(a, dist, micro, macro)
    pushed = pushforward(a, dist, micro, macro, renormalize=True)
    assert abs(pushed.total - 1.0) <= TOL
    assert abs(pushed.prob(("0", "0")) - 0.5) <= TOL


def test_pushforward_no_mass_left(micro, macro):
    maps = proj_outcomes()
    maps[1].rows.clear()
    a = collapse(micro, macro, maps)
    with pytest.raises(ModelError, match="no mass"):
        pushforward(a, joint_distribution(micro), micro, macro, renormalize=True)


def test_pushforward_stochastic_rows_split_mass(micro, macro):
    maps = [
        OutcomeMap(
            target="S'",
            sources=("S", "T"),
            rows={
                key: {("0",): 0.5, ("1",): 0.5}
                for key in block(micro, ("S", "T"))
            },
        ),
        det_outcomes("C'", ("C",), {("0",): ("0",), ("1",): ("1",)}),
    ]
    a = collapse(micro, macro, maps)
    pushed = pushforward(a, joint_distribution(micro), micro, macro)
    for outcome in itertools.product(*pushed.domains):
        assert abs(pushed.prob(outcome) - 0.25) <= TOL


def test_pushforward_global_map(micro, macro):
    rows = {}
    for s, t, c in block(micro, ("S", "T", "C")):
        rows[(s, t, c)] = {(s, c): 1.0}
    gom = OutcomeMap(
        target=GLOBAL, sources=("S", "T", "C"), rows=rows, onto=("S'", "C'")
    )
    a = collapse(micro, macro, [gom])
    pushed = pushforward(a, joint_distribution(micro), micro, macro)
    for outcome in itertools.product(*pushed.domains):
        assert abs(pushed.prob(outcome) - 0.25) <= TOL


# ---------------------------------------------------------------------------
# Pushforward against the plain oracle
# ---------------------------------------------------------------------------

LAYERS = ("deterministic", "stochastic", "partial", "global", "cells", "spread", "empty")


def _random_target(rng, name, prefix, kind):
    """A model of one to three parentless variables of two or three values;
    for "spread", three variables of three values, and for "empty", none."""
    sizes = {"spread": (3, 3, 3), "empty": ()}.get(kind)
    if sizes is None:
        sizes = [rng.randint(2, 3) for _ in range(rng.randint(1, 3))]
    spec = []
    for j, size in enumerate(sizes):
        domain = tuple(str(x) for x in range(size))
        spec.append((f"{prefix}{j}", domain, (), lambda pa, u, d=domain: d[0]))
    return model(name, spec, {v: U2 for v, _, _, _ in spec})


def _random_row(rng, values, kind):
    """One entry of weight one, or weights summing to one over a few values
    with an explicit zero beside them; for "partial", sometimes all zero.
    For "cells", 0, 1 or 3 supported entries (as many as there are values)
    with integer weights, and sometimes an integer zero beside them."""
    if kind == "cells":
        picked = rng.sample(values, min(rng.choice((0, 1, 3)), len(values)))
        row = {v: rng.randint(1, 3) for v in picked}
        spare = [v for v in values if v not in row]
        if spare and rng.random() < 0.5:
            row[rng.choice(spare)] = 0
        return row
    if kind == "partial" and rng.random() < 0.1:
        return {rng.choice(values): 0.0}
    if kind == "deterministic" or rng.random() < 0.3:
        return {rng.choice(values): 1.0}
    picked = rng.sample(values, rng.randint(1, len(values)))
    weights = [rng.randint(1, 5) for _ in picked]
    row = {v: w / sum(weights) for v, w in zip(picked, weights)}
    spare = [v for v in values if v not in row]
    if spare and rng.random() < 0.5:
        row[rng.choice(spare)] = 0.0
    return row


def _random_layer(rng, source, target, kind):
    """Outcome maps from `source` onto `target`.  Each target variable reads
    a random block of source variables (some are read by none); "global" is
    one map between every variable of both.  "partial" and "cells" omit
    some rows.  "spread" gives the middle of three maps rows of 0, 1 or 3
    cells, between maps of one cell per row, so the walk repeats its columns
    mid-way.  "empty" has one map, for a variable the target lacks."""
    if kind == "global":
        values = list(block(target, target.variable_names))
        rows = {key: _random_row(rng, values, "partial")
                for key in block(source, source.variable_names)
                if rng.random() < 0.9}
        return [OutcomeMap(GLOBAL, source.variable_names, rows, onto=target.variable_names)]
    if kind == "empty":
        return [OutcomeMap(target="Y0", sources=(), rows={(): {("0",): 1.0}})]
    owner = {v: rng.randrange(len(target.variables) + 1) for v in source.variable_names}
    maps = []
    for j, y in enumerate(target.variable_names):
        sources = tuple(v for v in source.variable_names if owner[v] == j)
        values = [(x,) for x in target.domain_of(y)]
        row_kind = {"spread": "cells" if j == 1 else "deterministic"}.get(kind, kind)
        rows = {key: _random_row(rng, values, row_kind)
                for key in block(source, sources)
                if row_kind not in ("partial", "cells") or rng.random() < 0.9}
        maps.append(OutcomeMap(target=y, sources=sources, rows=rows))
    return maps


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30), kind=st.sampled_from(LAYERS),
       walk=st.sampled_from((1, 3, abstraction_module._WALK)))
def test_pushforward_matches_plain_oracle(seed, kind, walk):
    """The oracle's floats in the oracle's order, exactly, also for rows of
    0, 1 or 3 cells with integer weights, and when the walk takes the
    outcomes a few at a time (`walk` cells at once); a partial layer raises
    without `renormalize` and is rescaled with it.  The cells walked are
    counted first: a cap of one cell fewer than the oracle lists raises.  A
    target without variables reads no map: every outcome's mass lands on ()."""
    rng = random.Random(seed)
    source = random_model(rng)
    target = _random_target(rng, "tgt", "Y", kind)
    a = abstraction("a", source, target, {}, outcomes=_random_layer(rng, source, target, kind))
    dist = joint_distribution(source)
    dist.probs.setdefault(tuple(rng.choice(v.domain) for v in source.variables), 0.0)
    index = {v: i for i, v in enumerate(source.variable_names)}
    maps = [([index[s] for s in om.sources], om.rows) for om in a.outcome_maps
            if om.is_global or om.target in target.variable_names]
    want = plain_pushforward(dist.probs, maps)
    cells = pushforward_cells(dist.probs, maps)
    words = f"^pushforward through 'a' walks {cells} outcome cells, exceeding .* of {cells - 1}$"
    if cells > 1:  # the override must be positive
        with mock.patch.dict(os.environ, {ENUM_CAP_ENV: str(cells - 1)}):
            with pytest.raises(CapacityError, match=words):
                pushforward(a, dist, source, target, renormalize=True)
    total = sum(want.values())
    with mock.patch.dict(os.environ, {ENUM_CAP_ENV: str(max(cells, 1))}), \
            mock.patch.object(abstraction_module, "_WALK", walk):
        if abs(total - dist.total) <= TOL:
            got = pushforward(a, dist, source, target)
            assert list(got.probs.items()) == list(want.items())
        else:
            with pytest.raises(RenormalizationRequiredError):
                pushforward(a, dist, source, target)
            if total <= TOL:
                with pytest.raises(ModelError, match="no mass left"):
                    pushforward(a, dist, source, target, renormalize=True)
                return
            want = {k: p / total for k, p in want.items()}
        got = pushforward(a, dist, source, target, renormalize=True)
    assert list(got.probs.items()) == list(want.items())


def test_pushforward_walks_a_bounded_number_of_cells_at_once():
    """Four maps that split every row across two values walk 16 cells per
    outcome of a 16-outcome joint.  Held to 40 cells at once, the walk takes
    two outcomes at a time, and gives the floats, in their order, of one
    walk over every outcome, which are the oracle's."""
    micro, macro = chain("micro", list("ABCD")), chain("macro", ["A'", "B'", "C'", "D'"])
    split = {("0",): {("0",): 0.3, ("1",): 0.7}, ("1",): {("0",): 0.1, ("1",): 0.9}}
    maps = [OutcomeMap(f"{v}'", (v,), split) for v in "ABCD"]
    a = abstraction("a", micro, macro, {v: f"{v}'" for v in "ABCD"}, outcomes=maps)
    dist = joint_distribution(micro)
    whole = pushforward(a, dist, micro, macro)
    assert list(whole.probs.items()) == list(plain_pushforward(
        dist.probs, [([i], om.rows) for i, om in enumerate(maps)]).items())
    walk, walked = abstraction_module._walk, []

    def counted(mass, pending):
        columns = walk(mass, pending)
        walked.append(len(columns[0]))
        return columns

    with mock.patch.object(abstraction_module, "_WALK", 40), \
            mock.patch.object(abstraction_module, "_walk", counted):
        parts = pushforward(a, dist, micro, macro)
    assert walked == [32] * 8
    assert list(parts.probs.items()) == list(whole.probs.items())


# ---------------------------------------------------------------------------
# Work on a wide model: each row and each name read a bounded number of times
# ---------------------------------------------------------------------------

def _wide(name: str, prefix: str, n: int) -> Scm:
    """`n` independent binary variables, each its noise, one noise row."""
    variables = [Variable(f"{prefix}{i}", BIN, (), f"U{prefix}{i}") for i in range(n)]
    return Scm(name, variables, [Exogenous(v.exogenous, BIN, v.name) for v in variables],
               {v.name: {("0",): "0", ("1",): "1"} for v in variables}, {("0",) * n: 1.0})


def test_wide_identity_work_is_linear(monkeypatch):
    """On a 2000-wide identity with identity edges and one outcome map per
    variable, validation, the audit and the pushforward read O(n) supports
    and build one name index per model."""
    n = 2000
    lo, hi = _wide("lo", "X", n), _wide("hi", "Y", n)
    a = Abstraction("id", "lo", "hi", Direction.MICRO_TO_MACRO, StructuralMap(
        rows={f"X{i}": {f"Y{i}": 1.0} for i in range(n)},
        edge_map={(f"X{i}",): (f"Y{i}",) for i in range(n)},
    ), [OutcomeMap(f"Y{i}", (f"X{i}",), {("0",): {("0",): 1.0}, ("1",): {("1",): 1.0}})
        for i in range(n)])

    def counted(calls: list, read):
        def call(*args):
            calls.append(args[0])
            return read(*args)
        return call

    supports, builds = [], []  # each row read, each name index built
    monkeypatch.setattr(abstraction_module, "support",
                        counted(supports, abstraction_module.support))
    monkeypatch.setattr(scm_module, "_Index", counted(builds, scm_module._Index))
    assert validate_abstraction(a, lo, hi).ok
    profile = audit_abstraction(a, lo, hi)
    assert profile.node.bijective and profile.functor.functorial
    pushed = pushforward(a, joint_distribution(lo), lo, hi)
    assert pushed.probs == {("0",) * n: 1.0}
    assert len(supports) <= 10 * n  # 7n: n node rows read thrice, 2n outcome rows twice
    assert len(builds) == 2  # one per model
