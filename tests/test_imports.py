"""Every module-level import in the package and the tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "inducta").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads;
    names listed in ``__all__`` count as read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in bound if name not in used]


def test_checker_flags_only_unused_names():
    src = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from a.b import c, d as e\n"
        "import x.y\n"
        "__all__ = ['c']\n"
        "sys.exit(x.y)\n"
    )
    assert unused_imports(src) == ["os", "e"]


def test_no_unused_module_imports():
    assert FILES
    found = {
        str(path.relative_to(ROOT)): names
        for path in FILES
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def imported_modules(source: str) -> set[str]:
    """Top-level names of every module the source imports, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def test_import_finder_sees_nested_imports():
    src = "import os.path\ndef f():\n    from dataclasses import field\n    from . import x\n"
    assert imported_modules(src) == {"os", "dataclasses"}


def test_no_package_module_imports_dataclasses():
    """``dataclasses`` loads ``inspect``, ``ast``, ``dis`` and ``tokenize``,
    which every CLI command would pay for; records are plain slotted
    classes built on ``graphs.Record``."""
    found = [path.name for path in FILES if path.parent.name == "inducta"
             and "dataclasses" in imported_modules(path.read_text())]
    assert found == []


def private_imports(source: str) -> list[str]:
    """Underscore names the source imports from a module of the package,
    at any depth: a relative import, or an absolute one from ``inducta``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "inducta"
        ):
            out += [alias.name for alias in node.names if alias.name.startswith("_")]
    return out


def test_private_import_finder():
    src = ("from .a import b, _c\nfrom inducta.d import _e\nfrom os import _exit\n"
           "def f():\n    from . import _g\n")
    assert private_imports(src) == ["_c", "_e", "_g"]


def test_no_package_module_imports_a_private_name():
    """A name another module needs is part of its module's interface, so
    it carries no leading underscore."""
    found = {path.name: names for path in FILES if path.parent.name == "inducta"
             and (names := private_imports(path.read_text()))}
    assert found == {}


def package_imports(source: str) -> set[str]:
    """Modules of the package the source imports, at any depth: relative
    imports, and absolute ones from ``inducta``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "inducta":
                    continue
                module = module.partition(".")[2]
            out |= {module.partition(".")[0]} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("inducta.")}
    return out


def test_package_import_finder():
    src = ("from .a import b\nfrom . import c, d\nfrom inducta.e import f\nfrom inducta import g\n"
           "import inducta.h.i\nimport os\nfrom os import path\ndef f():\n    from .j.k import m\n")
    assert package_imports(src) == {"a", "c", "d", "e", "g", "h", "j"}


def test_only_these_modules_import_the_oracles():
    """The answer paths of ``decompose``, ``detect``, ``kintree`` and the
    rest run without the brute-force oracles; ``berge`` still solves some
    leaves with them, ``classify`` matches two fixed graphs with
    ``induced_embedding``, and ``cli`` and ``gap`` expose them."""
    found = {path.stem for path in FILES if path.parent.name == "inducta"
             and "oracle" in package_imports(path.read_text())}
    assert found == {"berge", "classify", "cli", "gap"}
