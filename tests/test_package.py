"""Tests of the package surface."""

import commsemi


def test_every_export_resolves():
    missing = [name for name in commsemi.__all__ if not hasattr(commsemi, name)]
    assert missing == []
    assert len(set(commsemi.__all__)) == len(commsemi.__all__)
