"""The package's export list."""

import nervetower


def test_every_exported_name_resolves():
    missing = [name for name in nervetower.__all__ if not hasattr(nervetower, name)]
    assert missing == []
    assert len(set(nervetower.__all__)) == len(nervetower.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from nervetower import *", namespace)
    assert set(nervetower.__all__) <= set(namespace)
