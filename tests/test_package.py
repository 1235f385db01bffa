"""The package's public names."""

import c2n3


def test_every_exported_name_resolves():
    assert len(set(c2n3.__all__)) == len(c2n3.__all__)
    missing = [name for name in c2n3.__all__ if not hasattr(c2n3, name)]
    assert missing == []
