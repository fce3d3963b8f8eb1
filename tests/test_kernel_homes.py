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

``tensors.kron`` is reached only from ``channel.array_responses``, the
reader beside the rank-one cascade's writer: the per-axis order of the
six vectors (each y axis slowest against its z axis) is read in one
place, so the writer and the rate scorer cannot drift apart.  A second
kron of a y/z pair, say in ``metrics``, fails here.

``tensors._GRAM_SLAB`` is the one slab budget of a trial's transients:
no other slab-size constant, by name or by value, is defined under
``src/``, and the slab loops of ``tensors.hosvd_rank1``,
``tensors.dominant_left_singular_vector`` and ``metrics.nmse`` read it
and nothing else does.

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
    "kron": {("channel", "array_responses")},
}


# the functions whose slab loops read the one slab budget
SLAB_USERS = {
    ("tensors", "hosvd_rank1"),
    ("tensors", "dominant_left_singular_vector"),
    ("metrics", "nmse"),
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
    source = (PACKAGE / "channel.py").read_text(encoding="utf-8")
    assert _references(source, HOMES) == [("array_responses", "kron")] * 3


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


def _module_constants(source: str) -> list:
    """Names bound by a module-level assignment in ``source``."""
    names = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def _int_values(source: str) -> list:
    """Every integer literal of ``source``, and the value of every binary
    operation on two literals (such as ``1 << 14``)."""
    values = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and all(
            isinstance(side, ast.Constant) for side in (node.left, node.right)
        ):
            values.append(eval(compile(ast.Expression(node), "<literal>", "eval")))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            values.append(node.value)
    return values


def test_one_slab_budget():
    from hdris.tensors import _GRAM_SLAB

    sources = {m: (PACKAGE / (m + ".py")).read_text(encoding="utf-8") for m in MODULES}
    assert [(m, name) for m in MODULES for name in _module_constants(sources[m])
            if "SLAB" in name.upper()] == [("tensors", "_GRAM_SLAB")]
    assert [m for m in MODULES for v in _int_values(sources[m]) if v == _GRAM_SLAB] == ["tensors"]
    users = {(m, scope) for m in MODULES
             for scope, _ in _references(sources[m], {"_GRAM_SLAB"}) if scope is not None}
    assert users == SLAB_USERS


def test_slab_scan_reads_every_form():
    source = (
        "_SLAB_A = 1 << 14\n"
        "slab_b: int = 16384\n"
        "def f(x):\n"
        "    width = 2 ** 14\n"
        "    return x[:_GRAM_SLAB], tensors._GRAM_SLAB\n"
    )
    assert _module_constants(source) == ["_SLAB_A", "slab_b"]
    assert [v for v in _int_values(source) if v == 1 << 14] == [1 << 14] * 3
    assert _references(source, {"_GRAM_SLAB"}) == [("f", "_GRAM_SLAB")] * 2
