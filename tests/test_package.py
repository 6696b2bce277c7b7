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


def test_readers_only_the_tests_use_are_not_exported():
    """block_subcomplex, the Euler characteristic and the word sets of a
    level live in tests/support/complexes.py."""
    assert "block_subcomplex" not in nervetower.__all__
    assert not hasattr(nervetower.nerve, "block_subcomplex")
    for name in ("euler_characteristic", "simplex_word_sets"):
        assert not hasattr(nervetower.SimplicialComplex, name)
