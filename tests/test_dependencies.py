"""The package imports numpy and the standard library only.

scipy, networkx and others may be installed next to it; an import of one
would make it a dependency unnoticed.
"""

import ast
import sys
from pathlib import Path

import newsnet

PACKAGE = Path(newsnet.__file__).resolve().parent
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(path) -> list:
    """The modules a source file imports by absolute name (relative imports
    stay inside the package)."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_package_imports_only_numpy_and_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "ml" / "forest.py" in modules
    outside = [f"{path.relative_to(PACKAGE)}: {name}" for path in modules
               for name in absolute_imports(path) if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_an_import_outside_is_found(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("import os\nfrom . import util\nimport numpy.linalg\n"
                      "def f():\n    from scipy import sparse\n")
    assert [name for name in absolute_imports(source)
            if name.split(".")[0] not in ALLOWED] == ["scipy"]
