"""DOT rendering."""

from __future__ import annotations

from absaudit.dot import abstraction_dot, model_dot

from helpers import abstraction, chain


def test_model_dot():
    m = chain("tiny", ["S", "T"])
    text = model_dot(m)
    assert text.startswith('digraph "tiny" {\n')
    assert "  node [shape=circle];" in text
    assert '  "S";' in text and '  "T";' in text
    assert '  "S" -> "T";' in text
    assert text.endswith("}\n")


def test_model_dot_quotes_awkward_names():
    m = chain('we"ird', ["A"])
    text = model_dot(m)
    assert 'digraph "we\\"ird" {' in text


def test_abstraction_dot_clusters_and_arrows():
    micro = chain("micro", ["S", "T", "C"])
    macro = chain("macro", ["S'", "C'"])
    a = abstraction("a", micro, macro, {"S": "S'", "T": "S'", "C": "C'"})
    text = abstraction_dot(a, micro, macro)
    assert "subgraph cluster_src {" in text
    assert "subgraph cluster_tgt {" in text
    assert 'label="micro";' in text and 'label="macro";' in text
    # namespaced nodes keep the two graphs apart, labels stay bare
    assert '"src:S" [label="S"];' in text
    assert "\"tgt:S'\" [label=\"S'\"];" in text
    # causal edges stay inside their cluster
    assert '"src:S" -> "src:T";' in text
    assert "\"tgt:S'\" -> \"tgt:C'\";" in text
    # the node map crosses over as dotted arrows
    assert '"src:S" -> "tgt:S\'" [style=dotted, constraint=false];' in text
    assert '"src:T" -> "tgt:S\'" [style=dotted, constraint=false];' in text
    assert '"src:C" -> "tgt:C\'" [style=dotted, constraint=false];' in text


def test_abstraction_dot_weight_labels():
    micro = chain("m", ["S"])
    macro = chain("n", ["X"])
    a = abstraction("a", micro, macro, {"S": {"X": 0.25}})
    text = abstraction_dot(a, micro, macro)
    assert '[style=dotted, constraint=false, label="0.25"]' in text
    b = abstraction("b", micro, macro, {"S": {"X": 1.0}})
    assert '"src:S" -> "tgt:X" [style=dotted, constraint=false];' in (
        abstraction_dot(b, micro, macro)
    )


def test_abstraction_dot_reads_weights_within_the_row_tolerance():
    """A weight within `errors.TOL` of 1 is a weight of 1, as every other
    reader of a row takes it: its arrow carries no label."""
    micro = chain("m", ["S"])
    macro = chain("n", ["X"])
    a = abstraction("a", micro, macro, {"S": {"X": 0.9999999995}})
    assert '"src:S" -> "tgt:X" [style=dotted, constraint=false];' in (
        abstraction_dot(a, micro, macro)
    )
