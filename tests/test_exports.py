"""The package's public name list."""

import induced_trees
from induced_trees import admissible, finders, generators, graph, oracle, ramsey


def test_public_names_are_sorted_unique_and_resolve():
    names = induced_trees.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(induced_trees, name), name


def test_each_public_name_is_declared_once_by_the_module_that_defines_it():
    owner = {}
    for module in (admissible, finders, generators, graph, oracle, ramsey):
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
            assert owner.setdefault(name, module) is module, name
    assert induced_trees.__all__ == sorted(owner)
