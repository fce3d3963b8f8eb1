"""The package's imports point one way only.

tensors -> channel/training -> estimators -> metrics -> simulate
-> cli: a module may import only modules listed before it, and ``metrics``
(the scoring leaf) only ``channel`` and ``tensors``.  Imports under
``if TYPE_CHECKING:`` are annotations, not dependencies, and are skipped.
The package's ``__init__`` re-exports from every module and is not ranked.
"""

import ast
from pathlib import Path

import pytest

import hdris

PACKAGE = Path(hdris.__file__).parent

LAYERS = (
    "tensors", "channel", "training",
    "estimators", "metrics", "simulate", "cli",
)
ALLOWED = {name: set(LAYERS[:rank]) for rank, name in enumerate(LAYERS)}
ALLOWED["metrics"] = {"channel", "tensors"}


def _intra_imports(source: str) -> set:
    """Package modules imported by ``source`` at run time."""
    tree = ast.parse(source)
    typing_only = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "hdris" and not module.startswith("hdris."):
                    continue
                module = module[len("hdris."):]     # "" for the package itself
            if module:
                found.add(module.split(".")[0])
            else:
                found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("hdris.")
            }
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_down(module):
    source = (PACKAGE / (module + ".py")).read_text(encoding="utf-8")
    assert _intra_imports(source) <= ALLOWED[module]


def test_import_scan_reads_every_form():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .channel import SystemDims\n"
        "from . import tensors\n"
        "from hdris.training import make_training\n"
        "import hdris.metrics\n"
        "import numpy as np\n"
        "def f():\n"
        "    from .simulate import run_nmse_sweep\n"
        "if TYPE_CHECKING:\n"
        "    from .estimators import EstimateSet\n"
    )
    assert _intra_imports(source) == {
        "channel", "tensors", "training", "metrics", "simulate",
    }
