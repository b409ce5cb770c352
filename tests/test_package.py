"""The package's public surface."""
from __future__ import annotations

import greenhrt


def test_all_is_unique_sorted_and_resolves():
    names = greenhrt.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    assert [name for name in names if not hasattr(greenhrt, name)] == []
