"""Each leading-eigenvector kernel has one home in the package.

``np.linalg.eigh`` is reached only from ``tensors.eigh_top``, the tail
power of the certified squaring only from ``tensors.psd_top``,
``psd_top`` only from ``tensors.dominant_left_singular_vector``, and the
phase gauge ``_fix_phase`` only from ``tensors.hosvd_rank1``: a second
squaring loop, a direct ``eigh``, a Gram formed and squared elsewhere or
a gauge on a direction whose phase nothing reads fails here, so the
package keeps one certified kernel, one fallback, one home for the
smaller-Gram rule and one for the factor gauge.

``training._dft_rows`` is reached only from the design's two factor
properties, ``bs_pilots`` and ``ris_phases``, so a DFT factor is built
on first read by its design and nowhere else: an eager profile build in
``make_training`` or a second cache of the rows fails here.

``TrainingInfeasibleError`` is raised only in
``TrainingDesign.__post_init__`` and caught only in
``ExperimentConfig.__post_init__``: the training size rule is checked
where a design is made and nowhere else, and the config check turns it
into a config error.  A second copy of the rule, say a feasibility
function beside the design or a check in a sweep, fails here.

``gc.freeze`` is reached only from ``cli.main``.  The command line owns
its process, so it may put the import-time heap out of the collector's
reach; a library import or sweep runs in its caller's process and must
not freeze that heap.

The scan reads the source, by name, whatever module or alias the name
is reached through.
"""

import ast
from pathlib import Path

import pytest

import hdris

PACKAGE = Path(hdris.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))

# name -> the (module, function) places that may use it
HOMES = {
    "eigh": {("tensors", "eigh_top")},
    "_tail_power": {("tensors", "psd_top")},
    "psd_top": {("tensors", "dominant_left_singular_vector")},
    "_fix_phase": {("tensors", "hosvd_rank1")},
    "freeze": {("cli", "main")},
    "_dft_rows": {("training", "bs_pilots"), ("training", "ris_phases")},
    "TrainingInfeasibleError": {("training", "__post_init__"), ("simulate", "__post_init__")},
}


def _references(source: str, names) -> list:
    """(enclosing function, name) of every use of one of ``names`` in
    ``source``, as a bare name or an attribute; the function is dotted
    when nested, and None at module or class level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name if scope is None else scope + "." + child.name)
                continue
            if isinstance(child, ast.Name) and child.id in names:
                found.append((scope, child.id))
            elif isinstance(child, ast.Attribute) and child.attr in names:
                found.append((scope, child.attr))
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_eigen_kernels_stay_home(module):
    source = (PACKAGE / (module + ".py")).read_text(encoding="utf-8")
    for scope, name in _references(source, HOMES):
        assert (module, scope) in HOMES[name], "%s used in %s.%s" % (name, module, scope)


def test_eigen_kernels_are_used_at_home():
    source = (PACKAGE / "tensors.py").read_text(encoding="utf-8")
    assert set(_references(source, HOMES)) == {
        ("eigh_top", "eigh"),
        ("psd_top", "_tail_power"),
        ("dominant_left_singular_vector", "psd_top"),
        ("hosvd_rank1", "_fix_phase"),
    }
    source = (PACKAGE / "training.py").read_text(encoding="utf-8")
    assert _references(source, HOMES) == [
        ("__post_init__", "TrainingInfeasibleError"),
        ("bs_pilots", "_dft_rows"),
        ("ris_phases", "_dft_rows"),
    ]
    source = (PACKAGE / "simulate.py").read_text(encoding="utf-8")
    assert _references(source, HOMES) == [("__post_init__", "TrainingInfeasibleError")]


def test_reference_scan_reads_every_form():
    source = (
        "import numpy as np\n"
        "import numpy.linalg as la\n"
        "from numpy.linalg import eigh\n"
        "top = np.linalg.eigh\n"
        "def f(g):\n"
        "    return la.eigh(g)\n"
        "class K:\n"
        "    def g(self, a):\n"
        "        def inner():\n"
        "            return _tail_power(a, 2)\n"
        "        return eigh(a), (lambda b: tensors._tail_power(b, 3))\n"
    )
    assert _references(source, HOMES) == [
        (None, "eigh"), ("f", "eigh"), ("g.inner", "_tail_power"),
        ("g", "eigh"), ("g", "_tail_power"),
    ]
