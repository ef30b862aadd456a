"""Every name a package module or script imports is used in that file. The
package's ``__init__.py`` imports names to export them, so it is left out."""

import ast
from pathlib import Path

import pytest

import deqscores

PACKAGE = Path(deqscores.__file__).resolve().parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import statement and never reads.
    ``import a.b`` binds ``a``; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_rule_finds_an_unused_name():
    source = "import os.path\nfrom a import b, c as d\nimport e\n\nos.sep, d, e.f\n"
    assert unused_imports(source) == ["b"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
