"""numpy stays the package's only runtime dependency."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "evtrack"


def test_package_imports_only_the_standard_library_and_numpy():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ("numpy", "evtrack"):
                    foreign.append(f"{path.relative_to(PACKAGE)}:{node.lineno} imports {name}")
    assert not foreign, foreign
