"""Every module of the package uses each name it imports.  The package's
__init__ is exempt: its imports are its public names.  And the package
imports a pinned set of standard-library modules: `import ncwitt` is in
the set-up time of every benchmark workload, so a new one must be a
deliberate edit of STDLIB_IMPORTS."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ncwitt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
STDLIB_IMPORTS = {
    "argparse", "dataclasses", "functools", "itertools", "json", "math", "os", "random", "re",
    "sys", "typing",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(module):
    assert unused_imports(module.read_text()) == []


def test_detects_an_unused_import():
    source = "from .cycquot import AbelPoly, abelianize\n\nabelianize(0)\n"
    assert unused_imports(source) == ["AbelPoly (line 1)"]


def top_level_imports(source: str) -> set[str]:
    """The first component of each absolute import, __future__ aside."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - {"__future__"}


BUDGET_CHECKS = {"check_budget", "check_letters", "check_bits"}


def budget_calls(source: str) -> set[str]:
    """The names in BUDGET_CHECKS that source calls, bare or as attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            found.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return found & BUDGET_CHECKS


def test_budget_checks_are_called_from_freealg_and_parser_only():
    # each budget decision is made in one module: a power's in freealg's
    # check_power, a parsed term's in the parser
    callers = {p.name for p in PACKAGE.glob("*.py") if budget_calls(p.read_text())}
    assert callers == {"freealg.py", "parser.py"}


def test_detects_a_budget_check_call():
    source = "from .freealg import check_bits\ncheck_bits(1, 'x')\nfreealg.check_letters(2, 1)\n"
    assert budget_calls(source) == {"check_bits", "check_letters"}


def test_package_imports_the_pinned_stdlib_modules():
    found = set().union(*(top_level_imports(p.read_text()) for p in PACKAGE.glob("*.py")))
    assert found == STDLIB_IMPORTS


def test_detects_a_new_top_level_import():
    source = (
        "from __future__ import annotations\nimport os.path\n"
        "from . import freealg\nfrom json import dumps\n"
    )
    assert top_level_imports(source) == {"os", "json"}
