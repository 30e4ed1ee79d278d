"""The package's public names: each exported once, and each defined; and
the library half of the fuzz, where a public function returns or raises an
`AbsauditError` on every mutant of a shipped file that parses."""

from __future__ import annotations

import contextlib
from pathlib import Path

from hypothesis import given, settings, strategies as st

import absaudit
from absaudit import (AbsauditError, audit_abstraction, detect_types, emit_document,
                      joint_distribution, mechanism_kernel, parse_document, preimage,
                      pushforward, topological_order, validate_abstraction, validate_scm)

from helpers import mutated_text
from test_collector import SHIPPED


def test_every_exported_name_resolves_once():
    assert len(set(absaudit.__all__)) == len(absaudit.__all__)
    for name in absaudit.__all__:
        assert hasattr(absaudit, name), name
        assert name in dir(absaudit), name


def _returns_or_refuses(call, *args, **kwargs):
    """`call(*args, **kwargs)`, or None where it raises an `AbsauditError`;
    any other exception escapes."""
    with contextlib.suppress(AbsauditError):
        return call(*args, **kwargs)


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_mutated_files_raise_nothing_but_absaudit_errors(data):
    """A shipped file mutated token by token as the CLI fuzz mutates it
    (`helpers.mutated_text`): where it parses, every model goes through
    validation, its joint, each variable's kernel, its noise factors, its
    order and the writer, and every abstraction through validation, the
    audits, the type detection, the renormalised pushforward of its
    source's joint and the preimage of each target node, whatever the
    mutant holds.  Each returns or raises an `AbsauditError`."""
    text = mutated_text(data, Path(data.draw(st.sampled_from(SHIPPED))).read_text(encoding="utf-8"))
    doc = _returns_or_refuses(parse_document, text)
    if doc is None:
        return
    for m in doc.models.values():
        _returns_or_refuses(validate_scm, m)
        _returns_or_refuses(joint_distribution, m)
        for v in m.variables:
            _returns_or_refuses(mechanism_kernel, m, v.name)
        _returns_or_refuses(m.noise_factors)
        _returns_or_refuses(topological_order, m)
    _returns_or_refuses(emit_document, doc)
    for a in doc.abstractions.values():
        if (pair := _returns_or_refuses(doc.resolve, a)) is None:
            continue
        src, tgt = pair
        for check in (validate_abstraction, audit_abstraction, detect_types):
            _returns_or_refuses(check, a, src, tgt)
        if (joint := _returns_or_refuses(joint_distribution, src)) is not None:
            _returns_or_refuses(pushforward, a, joint, src, tgt, renormalize=True)
        for node in tgt.variables:
            _returns_or_refuses(preimage, a, src, node.name)
