"""The package has no runtime dependencies beyond the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import efflam

SOURCES = sorted(Path(efflam.__file__).parent.glob("*.py"))


def _imported_modules(path):
    """Each absolute import of the file, as the top-level module it names."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_import_is_relative_or_from_the_standard_library():
    assert SOURCES
    outside = {
        (path.name, module)
        for path in SOURCES
        for module in _imported_modules(path)
        if module not in sys.stdlib_module_names
    }
    assert outside == set()
