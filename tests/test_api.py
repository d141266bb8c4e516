import ast
from pathlib import Path

import omnisched


def test_every_export_imports_once():
    names = omnisched.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(omnisched, name)]
    assert missing == []


def test_oracles_import_nothing_from_omnisched():
    # the references must not share code with the implementation they check
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "omnisched"] == []
