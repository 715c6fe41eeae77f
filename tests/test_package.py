"""The package's public names."""

import isofloer


def test_every_public_name_resolves():
    missing = [name for name in isofloer.__all__ if not hasattr(isofloer, name)]
    assert missing == []
