"""The package's public names, and the imports of its modules and tools."""

import ast
from pathlib import Path

import lrsdp

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in lrsdp.__all__ if not hasattr(lrsdp, name)]
    assert missing == []
    assert len(set(lrsdp.__all__)) == len(lrsdp.__all__)


def _unused_imports(path):
    """Names that ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # __init__.py imports to re-export; every other module reads its imports
    paths = [p for p in sorted((ROOT / "src" / "lrsdp").glob("*.py"))
             if p.name != "__init__.py"]
    paths += sorted((ROOT / "tools").glob("*.py"))
    assert len(paths) > 2
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(p)
              for p in paths}
    assert {k: v for k, v in unused.items() if v} == {}
