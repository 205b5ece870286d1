"""The package's public names."""

from collections import Counter

import hippp


def test_every_exported_name_resolves_once():
    assert [name for name, seen in Counter(hippp.__all__).items() if seen > 1] == []
    assert [name for name in hippp.__all__ if not hasattr(hippp, name)] == []
