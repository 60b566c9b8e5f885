"""The package's exported names stay in step with its code."""

import covertlink


def test_all_names_are_unique():
    assert len(covertlink.__all__) == len(set(covertlink.__all__))


def test_all_names_resolve_on_the_package():
    missing = [name for name in covertlink.__all__ if not hasattr(covertlink, name)]
    assert missing == []


def test_all_names_are_public():
    assert [name for name in covertlink.__all__ if name.startswith("_")] == []
