"""The ``>>>`` examples in the package's docstrings, run as tests."""

import doctest
import importlib
import pkgutil

import pipedreams


def test_every_module_passes_its_examples():
    names = ["pipedreams"] + [
        f"pipedreams.{info.name}" for info in pkgutil.iter_modules(pipedreams.__path__)
    ]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name), verbose=False)
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0
