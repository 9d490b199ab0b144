"""The package's modules import each other at the top only, without cycles,
and only through public names.

An import inside a function hides a dependency from a reader of the module
head and from the cycle check below; a cycle makes what a module can see
depend on which module was imported first; a name starting with '_' is
private to its module, which may change it without looking for callers.
The checks read the sources with ast, so they see every import whether or
not it runs.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cerifrdf"
MODULES = {path.stem: ast.parse(path.read_text("utf-8"), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules *tree* imports, by stem; a name imported from
    the package itself counts as an import of __init__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("cerifrdf."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                path = (node.module or "").split(".")
            elif (node.module or "").split(".")[0] == "cerifrdf":
                path = node.module.split(".")[1:] or [""]
            else:
                continue
            if path[0]:
                out.add(path[0])
            else:
                out.update(alias.name if alias.name in MODULES else "__init__"
                           for alias in node.names)
    return out


def test_no_import_inside_a_function():
    found = [f"{name}.py:{inner.lineno} in {node.name}"
             for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_no_private_name_imported_from_another_module():
    found = [f"{name}.py:{node.lineno} imports {alias.name}"
             for name, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and package_imports(node)
             for alias in node.names
             if alias.name.startswith("_") and alias.name not in MODULES]
    assert found == []


def test_package_modules_import_no_cycle():
    graph = {name: package_imports(tree) & set(MODULES) for name, tree in MODULES.items()}
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            for imported in sorted(graph[name]):
                visit(imported, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])
    # the graph is read at all: the front end imports every layer
    assert {"exchange", "htmlbridge", "rdfxml", "store", "validation"} <= graph["cli"]
