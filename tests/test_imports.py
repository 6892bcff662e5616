"""Each module under src/overlaylab uses every name it imports.

There is no linter in the toolchain, so this reads each module's syntax tree:
a name bound by ``import`` or ``from ... import`` must also appear as a name
elsewhere in the module (annotations count).  ``__init__.py`` exists to
re-export names, so it is exempt; instead its ``__all__`` must list exactly
the names it imports, plus ``__version__``.  Every absolute import names a
standard-library module or numpy, the one runtime dependency.  Every exported
dataclass but the output records is a frozen value.
"""
import ast
import dataclasses
import sys
from pathlib import Path

import pytest

import overlaylab

SRC = Path(__file__).resolve().parents[1] / "src" / "overlaylab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Imported names the module never reads, as "name (line n)"."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_unused_imports():
    source = "import os\nimport a.b\nfrom c import d as e, f\nf(a.b)\n"
    assert unused_imports(source) == ["e (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    assert len(set(overlaylab.__all__)) == len(overlaylab.__all__)
    assert set(overlaylab.__all__) == set(imported) | {"__version__"}
    for name in overlaylab.__all__:
        assert hasattr(overlaylab, name), name


def foreign_imports(source: str) -> list[str]:
    """Absolute imports of modules outside the standard library and numpy."""
    allowed = sys.stdlib_module_names | {"numpy"}
    tree = ast.parse(source)
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return sorted({name for name in names if name.split(".")[0] not in allowed})


def test_the_check_finds_foreign_imports():
    source = "import scipy.optimize\nimport os, numpy as np\nfrom xml import etree\nfrom . import lp\n"
    assert foreign_imports(source) == ["scipy.optimize"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_runtime_dependency_is_numpy_only(path):
    assert foreign_imports(path.read_text()) == []


# Records a run or a check returns, which their caller may extend; every other
# exported dataclass is a value that is checked once and then frozen.
OUTPUT_RECORDS = {"LpSolution", "KktReport", "SimTrace", "ExperimentResult"}


def test_every_exported_dataclass_but_the_output_records_is_frozen():
    exported = {name: getattr(overlaylab, name) for name in overlaylab.__all__}
    values = {name for name, obj in exported.items() if dataclasses.is_dataclass(obj)} - OUTPUT_RECORDS
    assert OUTPUT_RECORDS <= set(exported)
    assert {"Plan", "TransportConfig", "PlannerConfig", "Event", "Scenario"} <= values
    assert [name for name in sorted(values) if not exported[name].__dataclass_params__.frozen] == []
