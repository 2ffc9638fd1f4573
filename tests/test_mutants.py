"""The mutant table of ``mutants.py`` still matches the code it mutates and
the tests it names, so a refactor has to keep it current. The mutants
themselves run only under ``python tests/mutants.py``."""

import ast
import functools
from pathlib import Path

import pytest
from mutants import MUTANTS, ROOT


@functools.cache
def defined_tests(path: Path) -> frozenset:
    """The ``function`` and ``Class::method`` names defined in ``path``, a
    class also holding the methods of its bases in the same file."""
    names, classes = set(), {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            classes[node.name] = node

    def methods(cls):
        own = {f.name for f in cls.body if isinstance(f, ast.FunctionDef)}
        bases = (classes[b.id] for b in cls.bases if isinstance(b, ast.Name) and b.id in classes)
        return own.union(*map(methods, bases))

    for name, cls in classes.items():
        names.update(f"{name}::{m}" for m in methods(cls))
    return frozenset(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_matches_the_code(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test_id in mutant.tests:
        file, _, name = test_id.partition("::")
        path = ROOT / file
        assert path.is_file(), test_id
        # A parametrized id names its function, then its parameters.
        assert name.split("[")[0] in defined_tests(path), test_id


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
