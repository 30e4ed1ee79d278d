"""The package's public names: each exported once, and each defined."""

from __future__ import annotations

import absaudit


def test_every_exported_name_resolves_once():
    assert len(set(absaudit.__all__)) == len(absaudit.__all__)
    for name in absaudit.__all__:
        assert hasattr(absaudit, name), name
        assert name in dir(absaudit), name
