"""The package's public name list."""

import induced_trees


def test_public_names_are_sorted_unique_and_resolve():
    names = induced_trees.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(induced_trees, name), name
