"""Model validation, interventions, joint distributions, kernels."""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.resources
import io
import itertools
import json
import random
import time
from collections.abc import Mapping
from operator import getitem

import pytest
from hypothesis import example, given, settings, strategies as st

from absaudit import scm as scm_module
from absaudit.cli import _print_dist
from absaudit.errors import AbsauditError, CapacityError, KernelUndefinedError, ModelError
from absaudit.freecat import hom_set
from absaudit.scm import (
    Exogenous,
    Scm,
    Variable,
    intervene,
    joint_distribution,
    marginal,
    mechanism_kernel,
    out_of_range,
    row_major,
    rows_of,
    topological_order,
    underlying_graph,
    validate_scm,
)
from absaudit.textfmt import Document, emit_document, emit_scm, parse_document

from helpers import BIN, U2, chain, model, plain_scm, random_model, xor
from oracles import (dense_rows, per_term_kernel, per_term_test, plain_joint, plain_kernel,
                     ranked_by_index)

TOL = 1e-9
DATA = importlib.resources.files("absaudit") / "data"


@pytest.fixture
def chain3():
    return chain("chain3", ["S", "T", "C"])


def codes(report):
    return {issue.code for issue in report.issues}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def test_validate_clean_model(chain3):
    assert validate_scm(chain3).ok


def test_validate_duplicate_variable():
    m = chain("m", ["A", "B"])
    m.variables = m.variables + m.variables[:1]
    assert "dup-variable" in codes(validate_scm(m))


def test_validate_name_overlap():
    m = chain("m", ["A", "B"])
    m.variables = (m.variables[0], Variable("U_A", BIN, ("A",), "U_B"))
    m.mechanisms["U_A"] = m.mechanisms.pop("B")
    m.exogenous = (m.exogenous[0], Exogenous("U_B", BIN, "U_A"))
    r = validate_scm(m)
    assert "name-overlap" in codes(r)


def test_validate_empty_and_duplicate_domain():
    m = chain("m", ["A"])
    m.variables = (Variable("A", (), (), "U_A"),)
    assert "empty-domain" in codes(validate_scm(m))
    m.variables = (Variable("A", ("0", "0"), (), "U_A"),)
    assert "dup-outcome" in codes(validate_scm(m))


def test_validate_empty_and_duplicate_exogenous_domain():
    m = chain("m", ["A"])
    for domain, issue in (((), ("empty-domain", "exogenous U_A has an empty domain")),
                          (("0", "0"), ("dup-outcome", "exogenous U_A repeats a domain value"))):
        m.exogenous = (Exogenous("U_A", domain, "A"),)
        assert issue in [(i.code, i.message) for i in validate_scm(m).issues]


def test_validate_unknown_and_self_parent():
    m = chain("m", ["A", "B"])
    m.variables = (m.variables[0], Variable("B", BIN, ("Z",), "U_B"))
    assert "unknown-parent" in codes(validate_scm(m))
    m.variables = (m.variables[0], Variable("B", BIN, ("B",), "U_B"))
    r = validate_scm(m)
    assert "self-parent" in codes(r) and "cyclic" in codes(r)


def test_validate_exogenous_attachment():
    m = chain("m", ["A"])
    m.exogenous = (Exogenous("U_A", BIN, "nope"),)
    r = validate_scm(m)
    assert "unknown-variable" in codes(r)
    assert "exogenous-attachment" in codes(r)


def test_validate_cycle():
    m = chain("m", ["A", "B"])
    m.variables = (Variable("A", BIN, ("B",), "U_A"), m.variables[1])
    m.mechanisms["A"] = {(a, u): u for a in BIN for u in BIN}
    assert "cyclic" in codes(validate_scm(m))


@settings(max_examples=300, deadline=None)
@given(parents=st.lists(st.tuples(st.sampled_from("ABCD"), st.lists(st.sampled_from("ABCDZ"),
                                                                    max_size=3)),
                        min_size=1, max_size=5))
@example(parents=[("A", []), ("A", ["A"])])
@example(parents=[("B", ["A"]), ("A", [])])
def test_the_cyclic_fault_follows_the_topological_order(parents):
    """The name index's faults hold `cyclic` exactly when the graph's
    topological order fails, whatever the declaration order, repeated names
    and unknown parents, which decide whether its declaration-order test
    passes; it comes last, as in `validate`."""
    m = chain("m", ["A"])
    m.variables = tuple(Variable(name, BIN, tuple(ps), "U_A") for name, ps in parents)
    try:
        underlying_graph(m).topological_order
        want = []
    except ModelError:
        want = [("cyclic", "the parent relation has a cycle")]
    faults = [(i.code, i.message) for i in m._index.faults]
    assert [f for f in faults if f[0] == "cyclic"] == want == faults[len(faults) - len(want):]


# `validate`'s codes that read the mechanisms or the noise table: every other
# code is a graph fault of the name index.
TABLE_CODES = {"missing-mechanism", "mechanism-gap", "mechanism-range", "mechanism-extra",
               "dist-key", "dist-negative", "dist-total"}


def _swap(items: tuple, old, new) -> tuple:
    return tuple(new if item is old else item for item in items)


# kind -> the fields that give a model one graph fault at its variable v and
# exo term u; the code before the colon is among the issues it causes.
GRAPH_FAULTS = {
    "dup-variable": lambda m, v, u: {"variables": m.variables + (v,)},
    "dup-exogenous": lambda m, v, u: {"exogenous": m.exogenous + (u,)},
    "name-overlap": lambda m, v, u: {
        "exogenous": _swap(m.exogenous, u, dataclasses.replace(u, name=v.name))},
    "empty-domain:variable": lambda m, v, u: {
        "variables": _swap(m.variables, v, dataclasses.replace(v, domain=()))},
    "empty-domain:exogenous": lambda m, v, u: {
        "exogenous": _swap(m.exogenous, u, dataclasses.replace(u, domain=()))},
    "dup-outcome:variable": lambda m, v, u: {
        "variables": _swap(m.variables, v, dataclasses.replace(v, domain=v.domain + v.domain[:1]))},
    "dup-outcome:exogenous": lambda m, v, u: {
        "exogenous": _swap(m.exogenous, u, dataclasses.replace(u, domain=u.domain[:1] + u.domain))},
    "unknown-parent": lambda m, v, u: {
        "variables": _swap(m.variables, v, dataclasses.replace(v, parents=v.parents + ("Z",)))},
    "self-parent": lambda m, v, u: {
        "variables": _swap(m.variables, v, dataclasses.replace(v, parents=(v.name, *v.parents)))},
    "unknown-exogenous": lambda m, v, u: {
        "variables": _swap(m.variables, v, dataclasses.replace(v, exogenous="U_Q"))},
    "unknown-variable": lambda m, v, u: {
        "exogenous": _swap(m.exogenous, u, dataclasses.replace(u, endogenous="Q"))},
    "exogenous-attachment": lambda m, v, u: {
        "exogenous": m.exogenous + (Exogenous("U_Q", BIN, v.name),)},
    "cyclic": lambda m, v, u: {"variables": tuple(
        dataclasses.replace(w, parents=w.parents + (m.variables[-1].name,)) if w is v
        else dataclasses.replace(w, parents=w.parents + (v.name,)) if w is m.variables[-1]
        else w for w in m.variables)},
}


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(GRAPH_FAULTS)),
       k=st.integers(0, 7))
def test_every_reader_refuses_the_first_graph_fault(seed, kind, k):
    """A random small model with one graph fault: `validate`'s issues before
    its first mechanism or noise table issue are the name index's faults,
    and the joint, every kernel, `intervene` and the emitter raise a
    ModelError in the words of the first."""
    m = random_model(random.Random(seed))
    v, u = m.variables[k % len(m.variables)], m.exogenous[k % len(m.exogenous)]
    m = dataclasses.replace(m, **GRAPH_FAULTS[kind](m, v, u))
    faults = list(m._index.faults)
    assert kind.split(":")[0] in {f.code for f in faults}
    issues = validate_scm(m).issues
    assert list(itertools.takewhile(lambda i: i.code not in TABLE_CODES, issues)) == faults
    readers = [joint_distribution, lambda m: intervene(m, {}),
               lambda m: emit_document(Document({m.name: m}))]
    readers += [lambda m, name=name: mechanism_kernel(m, name) for name in m.variable_names]
    for read in readers:
        with pytest.raises(ModelError) as info:
            read(m)
        assert str(info.value) == faults[0].message


def test_validate_mechanism_totality():
    m = chain("m", ["A", "B"])
    del m.mechanisms["B"][("0", "0")]
    assert "mechanism-gap" in codes(validate_scm(m))
    m = chain("m", ["A", "B"])
    m.mechanisms["B"][("2", "0")] = "0"
    assert "mechanism-extra" in codes(validate_scm(m))
    m = chain("m", ["A", "B"])
    m.mechanisms["B"][("0", "0")] = "5"
    assert "mechanism-range" in codes(validate_scm(m))
    m = chain("m", ["A"])
    del m.mechanisms["A"]
    assert "missing-mechanism" in codes(validate_scm(m))


def test_validate_exogenous_table():
    m = chain("m", ["A"])
    m.exo_table = {("0",): 0.5, ("1",): 0.4}
    assert "dist-total" in codes(validate_scm(m))
    m.exo_table = {("0",): 1.5, ("1",): -0.5}
    assert "dist-negative" in codes(validate_scm(m))
    m.exo_table = {("7",): 1.0}
    assert "dist-key" in codes(validate_scm(m))


@pytest.mark.parametrize("weights", [(float("nan"), 0.5), (float("inf"), -float("inf"))])
def test_validate_non_finite_exogenous_table(weights):
    m = chain("m", ["A"])
    m.exo_table = dict(zip([("0",), ("1",)], weights))
    assert "dist-total" in codes(validate_scm(m))


def test_validate_noise_key_issues_in_order():
    # A short key, a long key, an out-of-domain value and a negative entry,
    # each reported in table order, then the total.
    m = chain("m", ["A", "B"])
    m.exo_table = {
        ("0", "0"): 0.5,
        ("0",): 0.25,
        ("1", "1", "0"): 0.25,
        ("1", "7"): 0.5,
        ("1", "0"): -0.25,
        ("7", "7"): -0.5,
    }
    assert [(i.code, i.message) for i in validate_scm(m).issues] == [
        ("dist-key", "exogenous table key ('0',) is out of range"),
        ("dist-key", "exogenous table key ('1', '1', '0') is out of range"),
        ("dist-key", "exogenous table key ('1', '7') is out of range"),
        ("dist-negative", "negative probability -0.25 at ('1', '0')"),
        ("dist-key", "exogenous table key ('7', '7') is out of range"),
        ("dist-negative", "negative probability -0.5 at ('7', '7')"),
        ("dist-total", "exogenous table sums to 0.75, not 1"),
    ]


def test_validate_tolerates_tiny_rounding():
    m = chain("m", ["A"])
    m.exo_table = {("0",): 0.5 + 1e-12, ("1",): 0.5 - 1e-12}
    assert validate_scm(m).ok


# ---------------------------------------------------------------------------
# Graph and order
# ---------------------------------------------------------------------------

def test_topological_order_chain(chain3):
    assert topological_order(chain3) == ("S", "T", "C")


def test_topological_order_reversed_declaration():
    m = model(
        "m",
        [("A", BIN, ("B",), xor), ("B", BIN, (), xor)],
        {"A": U2, "B": U2},
    )
    assert topological_order(m) == ("B", "A")


def test_underlying_graph(chain3):
    dag = underlying_graph(chain3)
    assert dag.nodes == ("S", "T", "C")
    assert dag.edges == (("S", "T"), ("T", "C"))
    assert ("S", "T") in dag.edge_set and ("T", "S") not in dag.edge_set
    assert dag.successors("S") == ("T",)
    assert [u for u, v in dag.edges if v == "C"] == ["T"]


# ---------------------------------------------------------------------------
# Interventions
# ---------------------------------------------------------------------------

def test_intervene_point_mass_and_surgery(chain3):
    done = intervene(chain3, {"T": "1"})
    assert done.variable("T").parents == ()
    assert underlying_graph(done).edges == (("T", "C"),)
    dist = marginal(joint_distribution(done), ["T"])
    assert abs(dist.prob(("1",)) - 1.0) <= TOL


def test_intervene_downstream_changes_upstream_untouched(chain3):
    done = intervene(chain3, {"T": "0"})
    s = marginal(joint_distribution(done), ["S"])
    assert abs(s.prob(("0",)) - 0.5) <= TOL


def test_intervene_idempotent(chain3):
    once = intervene(chain3, {"T": "1"})
    twice = intervene(once, {"T": "1"})
    assert once == twice


def test_intervene_empty_is_identity(chain3):
    assert intervene(chain3, {}) == chain3


def test_intervene_rejects_unknowns(chain3):
    with pytest.raises(ModelError):
        intervene(chain3, {"Q": "1"})
    with pytest.raises(ModelError):
        intervene(chain3, {"T": "7"})


# ---------------------------------------------------------------------------
# Joint distribution
# ---------------------------------------------------------------------------

def test_joint_chain_is_uniform(chain3):
    dist = joint_distribution(chain3)
    assert dist.scope == ("S", "T", "C")
    for outcome in itertools.product(*dist.domains):
        assert abs(dist.prob(outcome) - 0.125) <= TOL
    assert abs(dist.total - 1.0) <= TOL


def test_joint_with_correlated_noise():
    # B = A xor U_B and the noise terms always agree, so B = U_A xor U_B = 0
    # with probability one while A stays uniform.
    m = chain("m", ["A", "B"])
    m.exo_table = {("0", "0"): 0.5, ("1", "1"): 0.5}
    dist = joint_distribution(m)
    assert abs(dist.prob(("0", "0")) - 0.5) <= TOL
    assert abs(dist.prob(("1", "0")) - 0.5) <= TOL
    assert dist.prob(("0", "1")) == 0.0
    assert dist.prob(("1", "1")) == 0.0


def test_joint_matches_plain_oracle():
    rng = random.Random(7)
    for _ in range(25):
        m = chain("m", ["A", "B", "C"])
        # random independent noise
        weights = [[rng.randint(1, 5) for _ in range(2)] for _ in range(3)]
        table = {}
        for i, u in enumerate(("0", "1")):
            for j, v in enumerate(("0", "1")):
                for k, w in enumerate(("0", "1")):
                    p = (
                        weights[0][i] / sum(weights[0])
                        * weights[1][j] / sum(weights[1])
                        * weights[2][k] / sum(weights[2])
                    )
                    table[(u, v, w)] = p
        m.exo_table = table
        plain = {
            "variables": ["A", "B", "C"],
            "domains": {n: list(BIN) for n in "ABC"},
            "parents": {"A": [], "B": ["A"], "C": ["B"]},
            "exo_of": {n: f"U_{n}" for n in "ABC"},
            "exo_domains": {f"U_{n}": list(BIN) for n in "ABC"},
            "exo_dist": table,
            "exo_order": ["U_A", "U_B", "U_C"],
            "mech": {
                n: {
                    (pa, u): m.mechanisms[n][(*pa, u)]
                    for pa in ([()] if n == "A" else [(a,) for a in BIN])
                    for u in BIN
                }
                for n in "ABC"
            },
        }
        want = plain_joint(plain)
        got = joint_distribution(m)
        for key, p in want.items():
            assert abs(got.prob(key) - p) <= TOL


def test_marginal_keeps_scope_order(chain3):
    dist = joint_distribution(chain3)
    got = marginal(dist, ["C", "S"])
    assert got.scope == ("S", "C")
    assert abs(got.prob(("0", "0")) - 0.25) <= TOL


def test_marginal_unknown_variable(chain3):
    with pytest.raises(ModelError):
        marginal(joint_distribution(chain3), ["Q"])


def test_capacity_cap(chain3, monkeypatch):
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "7")
    with pytest.raises(CapacityError):
        joint_distribution(chain3)
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "8")
    assert joint_distribution(chain3).total == pytest.approx(1.0)


class _Unread:
    """Mechanisms that fail the test when anything reads them."""

    def __getattr__(self, name):
        raise AssertionError(f"a mechanism was read ({name})")

    def __getitem__(self, key):
        raise AssertionError(f"a mechanism was read ({key!r})")


def test_capacity_is_checked_before_any_mechanism_is_read(monkeypatch):
    m = chain("m", ["A"])
    m.mechanisms = _Unread()
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "1")
    with pytest.raises(CapacityError, match="2 supported assignments"):
        joint_distribution(m)


def test_joint_of_a_model_without_variables():
    m = Scm("m", [], [], {}, {(): 1.0})
    assert validate_scm(m).ok
    assert list(joint_distribution(m).probs.items()) == [((), 1.0)]


def test_joint_of_an_all_zero_noise_table_is_empty(chain3):
    chain3.exo_table = dict.fromkeys(chain3.exo_table, 0.0)
    assert joint_distribution(chain3).probs == {}


@pytest.mark.parametrize("raw, words", [
    ("abc", "must be an integer, got 'abc'"),
    ("0", "must be positive, got 0"),
    ("-3", "must be positive, got -3"),
])
def test_a_cap_that_is_not_a_positive_integer_is_refused(chain3, monkeypatch, raw, words):
    """Every enumeration reads the cap through one check, even when its count
    is far under any cap."""
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", raw)
    dag = underlying_graph(chain3)
    for call in (lambda: joint_distribution(chain3), lambda: hom_set(dag, "S", "C")):
        with pytest.raises(AbsauditError) as exc:
            call()
        assert type(exc.value) is AbsauditError
        assert str(exc.value) == f"ABSAUDIT_ENUM_CAP {words}"


def test_capacity_env_override(chain3, monkeypatch):
    monkeypatch.setenv("ABSAUDIT_ENUM_CAP", "4")
    with pytest.raises(CapacityError):
        joint_distribution(chain3)


# ---------------------------------------------------------------------------
# Mechanism kernels
# ---------------------------------------------------------------------------

def test_kernel_values(chain3):
    k = mechanism_kernel(chain3, "T")
    assert k.row_scope == ("S",)
    assert k.rows[("0",)] == {"0": 0.5, "1": 0.5}
    k = mechanism_kernel(chain3, "S")
    assert k.rows[()] == {"0": 0.5, "1": 0.5}


def test_kernel_biased_noise():
    m = model(
        "m",
        [("A", BIN, (), xor), ("B", BIN, ("A",), xor)],
        {"A": U2, "B": (("0", 0.75), ("1", 0.25))},
    )
    k = mechanism_kernel(m, "B")
    assert k.rows[("0",)] == {"0": 0.75, "1": 0.25}
    assert k.rows[("1",)] == {"0": 0.25, "1": 0.75}


def test_kernel_undefined_under_dependence():
    m = chain("m", ["A", "B"])
    m.exo_table = {("0", "0"): 0.5, ("1", "1"): 0.5}
    with pytest.raises(KernelUndefinedError, match="exogenous dependence"):
        mechanism_kernel(m, "B")


@pytest.mark.parametrize("table", [
    {("0", "0"): 0.25 + 1e-6, ("0", "1"): 0.25 - 1e-6, ("1", "0"): 0.25 - 1e-6,
     ("1", "1"): 0.25 + 1e-6},
    {("0", "0"): 0.4, ("0", "1"): 0.1, ("1", "0"): 0.1, ("1", "1"): 0.4},
    {("0", "1"): 0.5, ("1", "0"): 0.5},
])
def test_kernel_undefined_wherever_the_dependence_shows(table):
    """Dependent noise has no kernel for either term: a small or a large
    departure from the product of the marginals, or only the anti-diagonal."""
    m = chain("m", ["A", "B"])
    m.exo_table = table
    for v in ("A", "B"):
        with pytest.raises(KernelUndefinedError, match="exogenous dependence"):
            mechanism_kernel(m, v)


def test_kernel_checks_pairs_missing_from_the_table():
    """A valid table on which only the pass over missing pairs finds the
    dependence: each 5-valued term puts mass s on its last value, and the
    product's mass s * s at the pair (4, 4) is spread evenly over the other
    24 pairs.  Every weight is positive, the total is 1, and every stored
    pair factors within TOL, but the missing pair's product exceeds TOL."""
    s = 5.6e-5
    u5 = tuple(zip("01234", [(1 - s) / 4] * 4 + [s]))
    m = model("m", [("A", BIN, (), xor), ("B", BIN, ("A",), xor)], {"A": u5, "B": u5})
    missing = m.exo_table.pop(("4", "4"))
    for key in m.exo_table:
        m.exo_table[key] += missing / 24
    assert validate_scm(m).ok
    table = m.exo_table
    own = {x: sum(p for k, p in table.items() if k[0] == x) for x in "01234"}
    rest = {y: sum(p for k, p in table.items() if k[1] == y) for y in "01234"}
    assert all(abs(p - own[x] * rest[y]) <= TOL for (x, y), p in table.items())
    assert own["4"] * rest["4"] > TOL
    for v in ("A", "B"):
        with pytest.raises(KernelUndefinedError, match="exogenous dependence"):
            mechanism_kernel(m, v)
    # the table is not dense, so the test of the whole table leaves it to
    # the per-term test, whose oracle agrees
    assert scm_module._product_marginals(m.ranked_noise()[2], [u.domain for u in m.exogenous]) is None
    for v in ("A", "B"):
        with pytest.raises(ValueError):
            per_term_kernel(plain_scm(m), v)


def test_kernel_refuses_a_negative_weight_in_validates_words():
    """A noise table with a negative weight has no kernel for any variable,
    even when its total is 1: each raises a plain ModelError with the words
    of `validate`'s first `dist-negative` issue, the first such entry in
    table order.  A key out of range is refused before, and a total other
    than 1 after."""
    m = chain("m", ["A", "B"])
    m.exo_table = {("0", "0"): 0.75, ("0", "1"): -0.25, ("1", "0"): 0.75, ("1", "1"): -0.25}
    issues = validate_scm(m).issues
    assert [i.code for i in issues] == ["dist-negative", "dist-negative"]
    assert issues[0].message == "negative probability -0.25 at ('0', '1')"
    for table, words in (
        (m.exo_table, issues[0].message),
        ({**m.exo_table, ("0", "1"): -0.5}, "negative probability -0.5 at ('0', '1')"),
        ({("1", "1"): -0.25, **m.exo_table}, "negative probability -0.25 at ('1', '1')"),
        ({**m.exo_table, ("2", "0"): -1.0}, "exogenous table key ('2', '0') is out of range"),
    ):
        m.exo_table = table
        for v in ("A", "B"):
            with pytest.raises(ModelError) as refused:
                mechanism_kernel(m, v)
            assert type(refused.value) is ModelError and str(refused.value) == words


def test_joint_refuses_a_negative_weight_before_any_mechanism():
    """The joint refuses a noise table with a negative weight, even one whose
    total is 1, in the words of `validate`'s first `dist-negative` issue,
    before it reads a mechanism; a key out of range is refused before.  An
    unnormalised table with no negative weight is summed as given."""
    m = chain("m", ["A", "B"])
    table = {("0", "0"): 0.75, ("0", "1"): -0.25, ("1", "0"): 0.75, ("1", "1"): -0.25}
    for table, words in (
        (table, "negative probability -0.25 at ('0', '1')"),
        ({("1", "1"): -0.25, **table}, "negative probability -0.25 at ('1', '1')"),
        ({**table, ("2", "0"): -1.0}, "exogenous table key ('2', '0') is out of range"),
    ):
        m.exo_table, m.mechanisms = table, {}
        with pytest.raises(ModelError) as refused:
            joint_distribution(m)
        assert type(refused.value) is ModelError and str(refused.value) == words
    m = chain("m", ["A", "B"])
    m.exo_table = {("0", "0"): 1.75, ("0", "1"): 0.25}
    assert joint_distribution(m).total == 2.0


def test_kernel_refuses_a_total_other_than_1_in_validates_words(chain3):
    """A noise table that does not sum to 1 has no kernel for any variable:
    each raises a plain ModelError with `validate`'s `dist-total` words, not
    the KernelUndefinedError of the factorisation check it would fail."""
    chain3.exo_table[("0", "0", "0")] += 0.5
    [words] = [i.message for i in validate_scm(chain3).issues if i.code == "dist-total"]
    assert words == "exogenous table sums to 1.5, not 1"
    for v in chain3.variable_names:
        with pytest.raises(ModelError) as refused:
            mechanism_kernel(chain3, v)
        assert type(refused.value) is ModelError and str(refused.value) == words


def test_kernel_composition_reproduces_joint(chain3):
    # Chain law: P(s,t,c) = P(s) K_T(t|s) K_C(c|t).
    ks = mechanism_kernel(chain3, "S")
    kt = mechanism_kernel(chain3, "T")
    kc = mechanism_kernel(chain3, "C")
    dist = joint_distribution(chain3)
    for s in BIN:
        for t in BIN:
            for c in BIN:
                want = ks.rows[()][s] * kt.rows[(s,)][t] * kc.rows[(t,)][c]
                assert abs(dist.prob((s, t, c)) - want) <= TOL


# ---------------------------------------------------------------------------
# A mechanism gap in an unvalidated model
# ---------------------------------------------------------------------------

@pytest.fixture
def gap_model():
    """chain3_micro without the row `0 0` of T's mechanism, and the words
    `validate_scm` reports that gap with."""
    text = (DATA / "models" / "chain3_micro.scm").read_text()
    m = parse_document(text).models["chain3_micro"]
    del m.mechanisms["T"][("0", "0")]
    (gap,) = [i.message for i in validate_scm(m).issues if i.code == "mechanism-gap"]
    assert gap == "mechanism for T misses input ('0', '0')"
    return m, gap


def test_joint_reports_a_mechanism_gap(gap_model):
    m, gap = gap_model
    with pytest.raises(ModelError) as info:
        joint_distribution(m)
    assert str(info.value) == gap


def test_a_repeated_noise_value_is_refused_before_a_kernel_or_emit():
    """A noise term whose domain repeats a value, `exo U : 0 0 1 for A`: the
    kernel and the emitter raise `validate`'s first issue, `dup-outcome`,
    rather than count that value's weight twice (a row summing to 1.5) or
    write its mechanism rows twice (text that does not parse)."""
    m = Scm("m", [Variable("A", BIN, (), "U")], [Exogenous("U", ("0", "0", "1"), "A")],
            {"A": {("0",): "0", ("1",): "1"}}, {("0",): 0.5, ("1",): 0.5})
    first = validate_scm(m).issues[0]
    assert (first.code, first.message) == ("dup-outcome", "exogenous U repeats a domain value")
    for call in (lambda: mechanism_kernel(m, "A"), lambda: emit_document(Document({"m": m}))):
        with pytest.raises(ModelError) as info:
            call()
        assert str(info.value) == "exogenous U repeats a domain value"


def test_kernel_reports_a_mechanism_gap(gap_model):
    m, gap = gap_model
    assert mechanism_kernel(m, "S").rows[()] == {"0": 0.5, "1": 0.5}
    with pytest.raises(ModelError) as info:
        mechanism_kernel(m, "T")
    assert str(info.value) == gap


def test_emit_reports_a_mechanism_gap(gap_model):
    m, gap = gap_model
    with pytest.raises(ModelError) as info:
        emit_scm(m)
    assert str(info.value) == gap


def test_the_joint_refuses_a_cycle_in_validate_s_words():
    """The identity witness's source with `parents B` added to A: the
    topological order, and through it the joint, raise the words of
    `validate`'s `cyclic` issue."""
    text = (DATA / "witnesses" / "structural" / "identity.abs").read_text()
    m = parse_document(text.replace("var A : 0 1\n", "var A : 0 1 parents B\n", 1)).models["w2_micro"]
    (cyclic,) = [i.message for i in validate_scm(m).issues if i.code == "cyclic"]
    assert cyclic == "the parent relation has a cycle"
    for call in (topological_order, joint_distribution):
        with pytest.raises(ModelError) as info:
            call(m)
        assert str(info.value) == cyclic


@pytest.mark.parametrize("strays", [[("9", "0")], [("9", "0"), ("10", "1")]])
def test_a_kernel_refuses_a_stray_mechanism_input(strays):
    """chain3_micro with stray rows in T's mechanism, such as `9 0 : 0`:
    T's kernel and the emitter raise the words of `validate`'s first
    `mechanism-extra` issue, and the kernels of S and C are the file's."""
    m = parse_document((DATA / "models" / "chain3_micro.scm").read_text()).models["chain3_micro"]
    kernels = {v: mechanism_kernel(m, v) for v in ("S", "C")}
    m.mechanisms["T"].update(dict.fromkeys(strays, "0"))
    first = next(i.message for i in validate_scm(m).issues if i.code == "mechanism-extra")
    assert first == f"mechanism for T has stray input {min(strays, key=repr)}"
    for call in (lambda: mechanism_kernel(m, "T"), lambda: emit_scm(m)):
        with pytest.raises(ModelError) as info:
            call()
        assert str(info.value) == first
    assert {v: mechanism_kernel(m, v) for v in ("S", "C")} == kernels


def _exo_q(m):
    """T's exogenous term renamed to the undeclared U_Q."""
    m.variables = (m.variables[0], Variable("T", ("0", "1"), ("S",), "U_Q"), m.variables[2])


def _t_maps_to_7(m):
    m.mechanisms["T"][("0", "0")] = "7"


def _no_mech_s(m):
    del m.mechanisms["S"]


def _c_reads_z(m):
    """C's parent T renamed to the undeclared Z."""
    m.variables = m.variables[:2] + (Variable("C", ("0", "1"), ("Z",), "U_C"),)


def _c_maps_to_7(m):
    """C, which no variable reads, maps outside its domain."""
    m.mechanisms["C"][("0", "0")] = "7"


@pytest.mark.parametrize(
    "edit, call, code, message",
    [
        (_exo_q, joint_distribution, "unknown-exogenous", "T references unknown exogenous U_Q"),
        (_t_maps_to_7, joint_distribution, "mechanism-range",
         "mechanism for T maps ('0', '0') outside the domain: '7'"),
        (_t_maps_to_7, lambda m: mechanism_kernel(m, "T"), "mechanism-range",
         "mechanism for T maps ('0', '0') outside the domain: '7'"),
        (_no_mech_s, lambda m: intervene(m, {"C": "0"}), "missing-mechanism",
         "no mechanism for S"),
        (_c_reads_z, joint_distribution, "unknown-parent", "C lists unknown parent Z"),
        (_c_maps_to_7, joint_distribution, "mechanism-range",
         "mechanism for C maps ('0', '0') outside the domain: '7'"),
    ],
    ids=["joint-unknown-exo", "joint-blames-the-parent", "kernel-range", "intervene-no-mechanism",
         "joint-unknown-parent", "joint-leaf-range"],
)
def test_unvalidated_model_errors_use_the_validation_words(edit, call, code, message):
    m = parse_document((DATA / "models" / "chain3_micro.scm").read_text()).models["chain3_micro"]
    edit(m)
    assert message in [i.message for i in validate_scm(m).issues if i.code == code]
    with pytest.raises(ModelError) as info:
        call(m)
    assert str(info.value) == message


def _wide_gap_model(k: int):
    """One binary variable Y with `k` binary parents and a mechanism of one
    row, all zeros: 2^(k+1) - 1 inputs are missing."""
    parents = [Variable(f"X{j}", ("0", "1"), (), f"U{j}") for j in range(k)]
    y = Variable("Y", ("0", "1"), tuple(p.name for p in parents), "U_Y")
    variables = parents + [y]
    return Scm(
        name="wide",
        variables=variables,
        exogenous=[Exogenous(v.exogenous, ("0", "1"), v.name) for v in variables],
        mechanisms={**{p.name: {("0",): "0", ("1",): "1"} for p in parents},
                    "Y": {("0",) * (k + 1): "0"}},
        exo_table={("0",) * (k + 1): 1.0},
    )


def _t_without(*keys):
    """chain3_micro without the given rows of T's mechanism."""
    def edit(m):
        for key in keys:
            del m.mechanisms["T"][key]
        return m
    return edit


@pytest.mark.parametrize(
    "model_of, messages",
    [
        (_t_without(("0", "1")), ["mechanism for T misses input ('0', '1')"]),
        (_t_without(("1", "1"), ("0", "1"), ("1", "0")),
         ["mechanism for T misses input ('0', '1') (and 2 more)"]),
        (lambda m: _wide_gap_model(24),
         [f"mechanism for Y misses input {('0',) * 24 + ('1',)} (and {2**25 - 2} more)"]),
    ],
    ids=["one-gap", "three-gaps-one-issue", "24-parents-one-issue"],
)
def test_gaps_are_counted_and_reported_once(model_of, messages):
    """One issue per mechanism: the first missing input in row-major order
    and how many more are missing."""
    m = model_of(parse_document((DATA / "models" / "chain3_micro.scm").read_text())
                 .models["chain3_micro"])
    start = time.perf_counter()
    issues = validate_scm(m).issues
    assert time.perf_counter() - start < 1.0  # counted, not listed: 2^25 inputs
    assert [i.code for i in issues] == ["mechanism-gap"]
    assert [i.message for i in issues] == messages


def test_intervene_on_an_unknown_exogenous_term():
    m = parse_document((DATA / "models" / "chain3_micro.scm").read_text()).models["chain3_micro"]
    _exo_q(m)
    with pytest.raises(ModelError) as info:
        intervene(m, {"T": "0"})
    assert str(info.value) == "T references unknown exogenous U_Q"


# ---------------------------------------------------------------------------
# The name index
# ---------------------------------------------------------------------------

def test_duplicate_exogenous_names_are_refused_by_every_reader():
    """Two exogenous terms named U on an unvalidated model: the joint, the
    kernel, `intervene` and the emitter refuse it with `validate`'s first
    issue, `dup-exogenous`, while every lookup reads the first declaration."""
    m = Scm("dup", [Variable("A", BIN, (), "U")],
            [Exogenous("U", BIN, "A"), Exogenous("U", BIN[::-1], "A")],
            {"A": {("0",): "0", ("1",): "1"}}, {("0", "1"): 1.0})
    first = validate_scm(m).issues[0]
    assert (first.code, first.message) == ("dup-exogenous", "duplicate exogenous variable names")
    assert m.exogenous_variable("U").domain == BIN
    for call in (joint_distribution, lambda m: mechanism_kernel(m, "A"),
                 lambda m: intervene(m, {}), emit_scm):
        with pytest.raises(ModelError) as info:
            call(m)
        assert str(info.value) == first.message


def test_the_name_index_never_goes_stale():
    """Lookups follow every assignment of `variables` or `exogenous`, also of
    a list, and `dataclasses.replace`; the tuples cannot change in place."""
    m = chain("m", ["A", "B"])
    assert m.variable("A").parents == () and m.variable_names == ("A", "B")
    m.variables = [Variable("A", BIN, ("B",), "U_A"), Variable("C", BIN, (), "U_B")]
    assert isinstance(m.variables, tuple)
    assert m.variable("A").parents == ("B",) and m.variable_names == ("A", "C")
    with pytest.raises(ModelError):
        m.variable("B")
    m.exogenous = [m.exogenous[1], Exogenous("U_A", ("x",), "A")]
    assert m.exogenous_variable("U_A").domain == ("x",)
    assert m.exogenous_variable("U_B").endogenous == "B"
    m.variables += (Variable("A", ("x",), (), "U_A"),)  # a second A: the first wins
    assert m.variable("A").parents == ("B",) and m.variable_names == ("A", "C", "A")
    renamed = dataclasses.replace(m, variables=(Variable("Z", BIN, (), "U_A"),))
    assert renamed.variable_names == ("Z",) and m.variable_names == ("A", "C", "A")
    assert renamed.exogenous_variable("U_A").domain == ("x",)
    with pytest.raises(TypeError):
        m.variables[0] = Variable("A", BIN, (), "U_A")
    with pytest.raises(TypeError):
        m.exogenous[0] = Exogenous("U_A", BIN, "A")


def test_a_model_keeps_one_dag_until_its_variables_are_set():
    """`underlying_graph` returns the model's one `Dag`, with the paths it
    has confirmed, until `variables` or `exogenous` is set; so does
    `dataclasses.replace`."""
    m = chain("m", ["A", "B", "C"])
    dag = underlying_graph(m)
    assert underlying_graph(m) is dag
    m.exogenous = list(m.exogenous)
    assert underlying_graph(m) is not dag and underlying_graph(m) == dag
    dag = underlying_graph(m)
    m.variables = m.variables[:2]
    assert underlying_graph(m) is not dag
    assert underlying_graph(m).edges == (("A", "B"),)
    assert underlying_graph(dataclasses.replace(m)) is not underlying_graph(m)


# ---------------------------------------------------------------------------
# The support walk against the dense product of the noise domains
# ---------------------------------------------------------------------------

NOISE_EDITS = ("zero", "drop", "reweight", "stray")


def _edit_noise(rng: random.Random, m, kind: str) -> None:
    table = m.exo_table
    domains = [u.domain for u in m.exogenous]
    if kind == "zero":  # an explicit zero, new or over an entry
        table[tuple(rng.choice(d) for d in domains)] = 0.0
    elif kind == "drop" and table:
        del table[rng.choice(list(table))]
    elif kind == "reweight" and table:
        table[rng.choice(list(table))] *= rng.uniform(0.5, 2.0)
    elif kind == "stray":  # out of range: an unknown value or one value too many
        key = [rng.choice(d) for d in domains]
        if rng.random() < 0.5:
            key[rng.randrange(len(key))] = "9"
        else:
            key.append("0")
        table[tuple(key)] = rng.random()


def _refused_strays(m) -> bool:
    """Whether `m`'s noise table holds a key outside the product of the
    exogenous domains; if so, the ranking, the joint, emit and every kernel
    refuse the first such key in table order, in `validate`'s words."""
    dense = set(itertools.product(*(u.domain for u in m.exogenous)))
    strays = [k for k in m.exo_table if k not in dense]
    if strays:
        words = f"exogenous table key {strays[0]!r} is out of range"
        for answer in (m.ranked_noise, lambda: joint_distribution(m), lambda: emit_scm(m),
                       *(lambda v=v: mechanism_kernel(m, v) for v in m.variable_names)):
            with pytest.raises(ModelError) as refused:
                answer()
            assert str(refused.value) == words
    return bool(strays)


def _kernels_match_the_oracle(m, plain) -> None:
    """Every kernel of `m` equals `plain_kernel`, in order, or is undefined
    where the oracle's is; on a noise table that does not sum to 1, every
    kernel is refused in `validate`'s `dist-total` words."""
    total = sum(m.exo_table.values())
    for v in m.variable_names:
        if not abs(total - 1.0) <= TOL:
            with pytest.raises(ModelError) as refused:
                mechanism_kernel(m, v)
            assert str(refused.value) == f"exogenous table sums to {total!r}, not 1"
            continue
        try:
            want = plain_kernel(plain, v)
        except ValueError:
            with pytest.raises(KernelUndefinedError):
                mechanism_kernel(m, v)
            continue
        got = mechanism_kernel(m, v).rows
        assert [(k, list(r.items())) for k, r in got.items()] == [
            (k, list(r.items())) for k, r in want.items()
        ]


def _printed(dist, as_json: bool) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _print_dist(dist, as_json)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**30),
    edits=st.lists(st.sampled_from(NOISE_EDITS), max_size=4),
)
def test_support_walk_matches_dense_product(seed, edits):
    """Joint, printed dist, emitted dist block and kernels are those of the
    dense walk, exactly and in the same order, whatever order the noise
    table is written in; with keys outside the domains, the joint, emit and
    every kernel refuse the first of them in `validate`'s words, and with a
    total other than 1 every kernel refuses the total."""
    rng = random.Random(seed)
    m = random_model(rng)
    for kind in edits:
        _edit_noise(rng, m, kind)
    entries = list(m.exo_table.items())
    rng.shuffle(entries)
    m.exo_table = dict(entries)
    if _refused_strays(m):
        return
    plain = plain_scm(m)

    dist = joint_distribution(m)
    joint = plain_joint(plain)
    assert list(dist.probs.items()) == list(joint.items())

    domains = [plain["domains"][v] for v in plain["variables"]]
    rows = [(" ".join(k), p) for k, p in dense_rows(joint, domains) if p != 0.0]
    text = [" ".join(dist.scope)] + [f"{k} : {p!r}" for k, p in rows]
    assert _printed(dist, False) == "\n".join(text) + "\n"
    payload = {"scope": list(dist.scope), "probs": dict(rows)}
    assert _printed(dist, True) == json.dumps(payload, sort_keys=True) + "\n"

    exo_domains = [plain["exo_domains"][u] for u in plain["exo_order"]]
    lines = emit_scm(m)
    start = lines.index(f"  dist {' '.join(m.exogenous_names)} {{")
    block = [f"    {' '.join(k)} : {float(p)!r}"
             for k, p in dense_rows(plain["exo_dist"], exo_domains)]
    assert lines[start + 1 : start + 2 + len(block)] == block + ["  }"]
    _kernels_match_the_oracle(m, plain)


def test_rows_of_zips_its_columns_also_when_there_is_none():
    """`rows_of` gives the rows that a counter-led zip cut off at the count
    gives, for lists and for iterators, with 0 to 3 columns of 0 to 3 rows."""
    for k, n in itertools.product(range(4), range(4)):
        columns = [[f"{j}.{i}" for i in range(n)] for j in range(k)]
        want = [row[1:] for row in zip(range(n), *columns)]
        assert list(rows_of(columns, n)) == want
        assert list(rows_of([iter(c) for c in columns], n)) == want


# ---------------------------------------------------------------------------
# The noise factors kept on the model
# ---------------------------------------------------------------------------

TABLE_EDITS = ("reweight", "delete", "insert", "move-to-end", "rekey", "permute-domain",
               "replace-table")


def _edit_kept_table(rng: random.Random, m, kind: str) -> None:
    """One change to `m`'s noise table or exogenous domains, in place."""
    table = m.exo_table
    domains = [u.domain for u in m.exogenous]
    if kind == "reweight" and table:
        table[rng.choice(list(table))] = rng.uniform(0.01, 0.5)
    elif kind == "delete" and table:
        del table[rng.choice(list(table))]
    elif kind in ("insert", "rekey"):  # rekey: the last weight, same object, under a new key
        missing = [k for k in itertools.product(*domains) if k not in table]
        key = rng.choice(missing) if missing else (*domains[0][:1], "9")  # else out of range
        table[key] = table.pop(list(table)[-1]) if kind == "rekey" else rng.uniform(0.01, 0.5)
    elif kind == "move-to-end" and table:
        key = rng.choice(list(table))
        table[key] = table.pop(key)
    elif kind == "permute-domain":
        i = rng.randrange(len(m.exogenous))
        u = m.exogenous[i]
        shuffled = Exogenous(u.name, tuple(rng.sample(u.domain, len(u.domain))), u.endogenous)
        m.exogenous = m.exogenous[:i] + (shuffled,) + m.exogenous[i + 1:]
    elif kind == "replace-table":
        keys = [k for k in itertools.product(*domains) if rng.random() < 0.7]
        m.exo_table = {k: rng.choice((0.1, 0.2, 0.3)) for k in keys}


def _answers_match_the_oracles(m) -> None:
    """The joint and every kernel of `m` equal the dense oracles, in order."""
    plain = plain_scm(m)
    assert list(joint_distribution(m).probs.items()) == list(plain_joint(plain).items())
    _kernels_match_the_oracle(m, plain)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30),
       drop=st.integers(min_value=0, max_value=3), kind=st.sampled_from(TABLE_EDITS))
def test_kept_factors_never_go_stale(seed, drop, kind):
    """After one change to the table or a domain, made in place, the same
    model object gives the joint and kernels of the changed model,
    including which kernels are undefined or refused for the total, or
    refuses a key the change put out of range; its noise factors are
    computed once per table state, and computing them changes neither
    equality nor repr.  The dropped entries' weight moves to the first
    entry, so the table before the change sums to 1."""
    rng = random.Random(seed)
    m = random_model(rng)
    first = next(iter(m.exo_table))
    for key in rng.sample(list(m.exo_table)[1:], min(drop, len(m.exo_table) - 1)):
        m.exo_table[first] += m.exo_table.pop(key)
    fresh = Scm(m.name, m.variables, m.exogenous, m.mechanisms, m.exo_table)
    shown = repr(m)
    _answers_match_the_oracles(m)
    assert m.noise_factors() is m.noise_factors()  # computed once, then kept
    assert m == fresh and repr(m) == shown

    _edit_kept_table(rng, m, kind)
    if not _refused_strays(m):
        _answers_match_the_oracles(m)
        if abs(sum(m.exo_table.values()) - 1.0) <= TOL:
            assert m.noise_factors() is m.noise_factors()
            copy = Scm(m.name, m.variables, m.exogenous, m.mechanisms, dict(m.exo_table))
            assert m.noise_factors() == copy.noise_factors()


# ---------------------------------------------------------------------------
# One independence test of the whole noise table
# ---------------------------------------------------------------------------

NOISE_KINDS = ("product", "moved", "edge", "total", "sparse", "coupled")


def _weights(rng: random.Random, size: int, tiny: float | None = None) -> list[float]:
    """`size` random weights summing to about 1; with `tiny`, one value
    takes all but `tiny` of the mass, spread over the others."""
    if tiny is not None and size > 1:
        w = [tiny / (size - 1)] * size
        w[rng.randrange(size)] = 1.0 - tiny
        return w
    w = [rng.randint(1, 8) for _ in range(size)]
    return [x / sum(w) for x in w]


def _noise_table(rng: random.Random, domains: list[tuple], kind: str) -> dict[tuple, float]:
    """A noise table over `domains` of one kind: the product of random
    marginals (`product`); such a product with entries moved by 0.1 to 3
    TOL, from one entry to another or from nowhere (`moved`); a product
    whose first term is near-deterministic, moved by 0.1 to 1 TOL at the
    first two values of two other terms in a pattern that keeps every
    marginal (`edge`: the first term's per-term deviation is up to d - 1
    times the move, d its domain size, so the whole-table test accepts the
    smaller moves and the per-term test refuses some of the larger); a
    product
    of near-deterministic marginals scaled to a total of 1 +- 0.9 TOL
    (`total`); a product with its zero entries, or some entries whose
    weight moves to the first, left out (`sparse`); or the product of a
    random joint of two terms and the marginals of the others (`coupled`)."""
    tiny = rng.choice({"total": (0.0, 1e-12, 1e-9, 1e-6), "sparse": (None, 0.0),
                       "edge": (1e-6,)}.get(kind, (None,)))
    marginals = [_weights(rng, len(d), tiny if j == 0 or kind != "edge" else None)
                 for j, d in enumerate(domains)]
    pair = sorted(rng.sample(range(len(domains)), 2)) if kind == "coupled" else []
    coupled = (dict(zip(itertools.product(domains[pair[0]], domains[pair[1]]),
                        _weights(rng, len(domains[pair[0]]) * len(domains[pair[1]]))))
               if pair else {})
    table = {}
    for key in itertools.product(*domains):
        p = coupled[key[pair[0]], key[pair[1]]] if pair else 1.0
        for j, (x, d) in enumerate(zip(key, domains)):
            if j not in pair:
                p *= marginals[j][d.index(x)]
        table[key] = p
    keys = list(table)
    if kind == "moved":
        for _ in range(rng.randint(1, 3)):
            step = rng.choice((-1, 1)) * rng.uniform(0.1, 3.0) * TOL
            table[rng.choice(keys)] += step
            if rng.random() < 0.5:
                table[rng.choice(keys)] -= step
    elif kind == "edge":
        step = rng.uniform(0.1, 1.0) * TOL
        j, k = rng.sample(range(1, len(domains)), 2)
        for key in keys:
            sign = [1, -1, 0][domains[j].index(key[j])] * [1, -1, 0][domains[k].index(key[k])]
            table[key] += sign * step
    elif kind == "total":
        scale = 1.0 + rng.choice((-0.9, 0.9)) * TOL
        table = {k: p * scale for k, p in table.items()}
    elif kind == "sparse":
        for key in keys[1:]:
            if table[key] == 0.0 or rng.random() < 0.2:
                table[keys[0]] += table.pop(key)
    return table


def _answer(call):
    """The rows of `call()` as ordered items, or the class and words of its
    refusal; a ValueError of an oracle counts as KernelUndefinedError."""
    try:
        rows = call()
    except (ModelError, ValueError) as refused:
        kind = KernelUndefinedError if isinstance(refused, (KernelUndefinedError, ValueError)) \
            else type(refused)
        return kind.__name__, None if kind is KernelUndefinedError else str(refused)
    return [(k, list(r.items())) for k, r in getattr(rows, "rows", rows).items()]


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30), kind=st.sampled_from(NOISE_KINDS))
def test_the_whole_table_test_gives_the_per_term_answers(seed, kind):
    """On product tables, products moved by 0.1 to 3 TOL or to the edge of
    the whole-table test, totals of 1 +- 0.9 TOL with near-deterministic
    terms, sparse tables and tables with two coupled terms, every kernel, KernelUndefinedError or ModelError
    is the one the per-term test gives (`oracles.per_term_kernel`, the
    test `mechanism_kernel` ran on each call before) and `plain_kernel`
    gives; and wherever the whole-table test accepts, the per-term
    deviation of every term is within TOL."""
    rng = random.Random(seed)
    m = random_model(rng)
    while len(m.exogenous) < {"coupled": 2, "edge": 3}.get(kind, 1):
        m = random_model(rng)
    domains = [u.domain for u in m.exogenous]
    m.exo_table = _noise_table(rng, domains, kind)
    plain = plain_scm(m)
    total = sum(m.exo_table.values())
    for v in m.variable_names:
        got = _answer(lambda: mechanism_kernel(m, v))
        if not abs(total - 1.0) <= TOL:
            assert got == ("ModelError", f"exogenous table sums to {total!r}, not 1")
            continue
        assert got == _answer(lambda: per_term_kernel(plain, v)) == _answer(
            lambda: plain_kernel(plain, v))
    if abs(total - 1.0) <= TOL:
        ranked = m.ranked_noise()
        if scm_module._product_marginals(ranked[2], domains) is not None:
            for i in range(len(domains)):
                assert per_term_test(m.exo_table, domains, i)[1] <= TOL


@pytest.mark.parametrize("coupled", [False, True])
def test_each_independence_test_runs_once_per_table_state(monkeypatch, coupled):
    """The kernels of every variable, asked twice, run the whole-table test
    once; on a product table no per-term test runs, and on a table whose
    first two terms are coupled each term's per-term test runs once.  A
    reweight in place runs them again, once."""
    m = chain("m", [f"X{i}" for i in range(6)])
    if coupled:
        for key in m.exo_table:
            m.exo_table[key] *= 1.5 if key[0] == key[1] else 0.5
    runs = []
    for name in ("_product_marginals", "_factor"):
        real = getattr(scm_module, name)
        monkeypatch.setattr(scm_module, name,
                            lambda *args, name=name, real=real: runs.append(name) or real(*args))
    for _ in range(2):
        answers = [_answer(lambda: mechanism_kernel(m, v)) for v in m.variable_names]
    want = ["_product_marginals"] + ["_factor"] * 6 * coupled
    assert runs == want
    assert [a == ("KernelUndefinedError", None) for a in answers] == [coupled] * 2 + [False] * 4
    key = next(iter(m.exo_table))
    m.exo_table[key] = m.exo_table[key] * 1.0 + 0.0  # an equal weight, a new object
    for v in m.variable_names:
        _answer(lambda: mechanism_kernel(m, v))
    assert runs == want * 2


class _Pairs(Mapping):
    """A mapping kept as a list of (key, value) pairs, so a key may be a list."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def __getitem__(self, key):
        for k, v in self.pairs:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


_LABELS = st.sampled_from(["0", "1", "2", 0, 1])
_STRAYS = st.sampled_from([("9", "0"), ("0", "0", "0", "0"), "01", 1, ["0", "1"]])
_DENSE, _SPARSE = [True] * 27, [i % 3 == 0 for i in range(27)]
_BIN3 = [("0", "1")] * 3
_MIXED = [("0", "1", "2"), ("0", "1")]


@settings(max_examples=300, deadline=None)
@given(domains=st.lists(st.lists(_LABELS, max_size=3).map(tuple), max_size=3),
       kept=st.lists(st.booleans(), min_size=27, max_size=27), run=st.integers(0, 27),
       seed=st.integers(0, 2**16), stray=st.none() | _STRAYS, at=st.sampled_from([0, 0.5, 1]))
@example(_BIN3, _DENSE, 27, 0, None, 0)  # dense, in order
@example(_BIN3, _DENSE, 4, 1, None, 0)  # an in-order prefix, then a shuffled tail
@example(_BIN3, _SPARSE, 27, 0, None, 0)  # sparse, in order
@example(_MIXED, _DENSE, 27, 0, ("9", "0"), 0)  # a stray key first,
@example(_MIXED, _DENSE, 27, 0, ("9", "0"), 0.5)  # in the middle,
@example(_MIXED, _DENSE, 27, 0, ("9", "0"), 1)  # and last
@example([("0", "1", "0"), ("1",)], _DENSE, 27, 0, None, 0)  # a repeated domain value
@example([("0", "1"), ()], _DENSE, 27, 0, None, 0)  # an empty domain
@example([(0, 1), ("0", 1)], _DENSE, 27, 0, None, 0)  # integer labels
@example(_MIXED, _DENSE, 27, 0, ["0", "1"], 0.5)  # keys that are no tuple: a list,
@example(_MIXED, _DENSE, 27, 0, "01", 0)  # a str
@example(_MIXED, _DENSE, 27, 0, 1, 1)  # and an int
def test_row_major_ranks_as_the_index_oracle(domains, kept, run, seed, stray, at):
    """`row_major` gives the columns of `ranked_by_index` on a table whose
    keys follow the product of the domains (all of them or some), the first
    `run` in order and the rest shuffled, with a stray key put first, in
    the middle or last; and `ranked_noise` gives them too, or refuses the
    first key out of range in table order, in `validate`'s words."""
    keys = list(dict.fromkeys(k for k, keep in zip(itertools.product(*domains), kept) if keep))
    tail = keys[run:]
    random.Random(seed).shuffle(tail)
    pairs = [(key, i) for i, key in enumerate(keys[:run] + tail)]
    if stray is not None:
        pairs.insert(round(at * len(pairs)), (stray, -1))
    table = _Pairs(pairs) if isinstance(stray, list) else dict(pairs)
    want = ranked_by_index(table, domains)
    assert row_major(table, domains) == want
    exogenous = tuple(Exogenous(f"U{j}", d, f"X{j}") for j, d in enumerate(domains))
    m = Scm("m", (), exogenous, {}, table)
    if len(want[0]) == len(table):
        assert m.ranked_noise() == want
    else:
        first = next(key for key in table if key not in want[1])
        with pytest.raises(ModelError) as refused:
            m.ranked_noise()
        assert str(refused.value) == f"exogenous table key {first!r} is out of range"


@pytest.mark.parametrize("tail", [0, 2, 5, 256])
def test_ranking_ranks_each_key_after_the_in_order_run_only(monkeypatch, tail):
    """The per-key rank, one domain lookup per noise term, runs on no key of
    a dense table that `emit` wrote, and on exactly the keys of its last
    `tail` rows when they are written in reverse order."""
    m = chain("m", [f"X{i}" for i in range(8)])
    lines = emit_document(Document({"m": m})).split("\n")
    end = lines.index(f"  dist {' '.join(m.exogenous_names)} {{") + 1 + len(m.exo_table)
    lines[end - tail:end] = lines[end - tail:end][::-1]
    parsed = parse_document("\n".join(lines)).models["m"]
    lookups = []
    monkeypatch.setattr(scm_module, "getitem",
                        lambda offsets, x: lookups.append(x) or getitem(offsets, x))
    ranked = parsed.ranked_noise()
    assert len(lookups) == 8 * tail
    monkeypatch.undo()
    assert ranked == ranked_by_index(parsed.exo_table, [u.domain for u in parsed.exogenous])


_KEYS = st.one_of(
    st.tuples(*[st.sampled_from(["0", "1", "2", 0])] * 2),
    st.lists(st.sampled_from(["0", "1"]), max_size=3).map(tuple),
    st.sampled_from(["01", 1, None, ("0", "1", "0")]),
)


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(_KEYS, unique=True, max_size=6),
       domains=st.lists(st.lists(st.sampled_from(["0", "1", 0]), max_size=3), max_size=3))
def test_out_of_range_is_the_range_rule_by_key(keys, domains):
    """The column test finds exactly the keys the per-key rule rejects, in order."""
    places = [set(d) for d in domains]
    assert out_of_range(keys, domains) == [
        k for k in keys
        if not (isinstance(k, tuple) and len(k) == len(places)
                and all(x in p for p, x in zip(places, k)))
    ]
