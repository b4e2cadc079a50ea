"""The independent reference in ``oracle.py`` stays independent: raw numpy and the standard library only."""

import ast
import pathlib
import sys

ORACLE = pathlib.Path(__file__).with_name("oracle.py")


def imported_modules(tree):
    """The top-level name of every module an import in ``tree`` reads, at any depth; a relative import gives ".".

    ``__import__`` and ``importlib.import_module`` calls count as imports of the name "importlib".
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." if node.level else node.module.partition(".")[0]
        elif getattr(node, "id", None) == "__import__" or getattr(node, "attr", None) == "import_module":
            yield "importlib"


def test_oracle_imports_only_numpy_and_the_standard_library():
    # read, not imported, so that an import the oracle should not make is never run
    modules = set(imported_modules(ast.parse(ORACLE.read_text(), filename=str(ORACLE))))
    assert "numpy" in modules
    allowed = (set(sys.stdlib_module_names) - {"importlib"}) | {"numpy"}
    assert modules <= allowed, f"oracle.py imports {sorted(modules - allowed)}"


def test_import_scan_sees_every_form():
    source = ("import numpy.linalg as la\nfrom os import path\nfrom . import x\n"
              "def f():\n    import entb92.bell\n    return __import__('scipy')\n")
    assert list(imported_modules(ast.parse(source))) == ["numpy", "os", ".", "entb92", "importlib"]
