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

``tensors.kron`` and, for stacks of vectors, ``tensors.khatri_rao`` are
reached only from ``channel.array_responses``, the reader beside the
rank-one cascade's writer: the per-axis order of the six vectors (each
y axis slowest against its z axis) is read in one place, so the writer
and the rate scorer cannot drift apart.  A second kron of a y/z pair,
say in ``metrics``, fails here.

``tensors._GRAM_SLAB`` is the one slab budget of a trial's transients:
no other slab-size constant, by name or by value, is defined under
``src/``, and the slab loops of ``tensors.hosvd_rank1``,
``tensors.dominant_left_singular_vector`` and ``metrics.nmse`` read it,
as does the one batch rule, ``simulate._batches`` (a batch's cascade
stack fits one slab), and nothing else does.  No module defines a
batch-size constant, and no config key, command-line flag or
environment variable names a batch: the batch size follows from the
dims alone.

A column-major ``reshape`` (``order="F"``) is made only in ``channel``,
by ``cascade_tensor`` and ``split_rows``, and in the generic
``tensors.unfold``, ``fold`` and ``vec``: the cascade's memory order is
read in one module, so the pilot model, ``krf`` and rate scoring split a
row into its (user, base-station) pair through ``channel.split_rows``.
A second split, say a ``reshape(n_ue, n_bs, order="F")`` in ``metrics``,
fails here; a column-major allocation such as ``np.empty(...,
order="F")`` is not a read and passes.

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
    "khatri_rao": {("channel", "array_responses")},
}


# module -> the functions that may reshape in column-major order
COLUMN_MAJOR_RESHAPES = {
    "channel": {"cascade_tensor", "split_rows"},
    "tensors": {"unfold", "fold", "vec"},
}


# the functions whose slab loops read the one slab budget, and the batch
# rule, its one reader outside the kernels
SLAB_USERS = {
    ("tensors", "hosvd_rank1"),
    ("tensors", "dominant_left_singular_vector"),
    ("metrics", "nmse"),
    ("simulate", "_batches"),
}


def _scoped_nodes(source: str):
    """(enclosing function, node) for every node of ``source`` other than
    a function definition, in source order; the function is dotted when
    nested, and None at module or class level."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name if scope is None else scope + "." + child.name)
                continue
            yield scope, child
            yield from visit(child, scope)

    return visit(ast.parse(source), None)


def _references(source: str, names) -> list:
    """(enclosing function, name) of every use of one of ``names`` in
    ``source``, as a bare name or an attribute."""
    found = []
    for scope, node in _scoped_nodes(source):
        if isinstance(node, ast.Name) and node.id in names:
            found.append((scope, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((scope, node.attr))
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
    assert _references(source, HOMES) == (
        [("array_responses", "kron")] * 3 + [("array_responses", "khatri_rao")] * 3
    )


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
            if "SLAB" in name.upper() or "BATCH" in name.upper()] == [("tensors", "_GRAM_SLAB")]
    assert [m for m in MODULES for v in _int_values(sources[m]) if v == _GRAM_SLAB] == ["tensors"]
    users = {(m, scope) for m in MODULES
             for scope, _ in _references(sources[m], {"_GRAM_SLAB"}) if scope is not None}
    assert users == SLAB_USERS


def test_batch_size_has_no_knob():
    # the batch size is _GRAM_SLAB // (n_ue*n_bs*n_ris), nothing else: no
    # config key, command-line flag or environment variable names a batch
    from hdris import simulate

    keys = {*simulate._SCALAR_KEYS, *simulate._ARRAY_KEYS, *simulate._ANGLE_KEYS,
            *simulate._DIM_KEYS}
    assert [k for k in keys if "batch" in k.lower()] == []
    texts = [(PACKAGE / (m + ".py")).read_text(encoding="utf-8") for m in MODULES]
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not node.value.startswith("--") or "batch" not in node.value.lower()
    environ = [scope for m, text in zip(MODULES, texts)
               for scope, _ in _references(text, {"environ", "getenv"})]
    assert environ == [None]           # hdris/__init__: the BLAS thread defaults


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


def _column_major_reshapes(source: str) -> list:
    """The enclosing function of every ``reshape`` call in ``source``
    that passes ``order="F"``, as a method or as a function."""
    found = []
    for scope, node in _scoped_nodes(source):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "reshape" and any(
            k.arg == "order" and isinstance(k.value, ast.Constant) and k.value.value == "F"
            for k in node.keywords
        ):
            found.append(scope)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_column_major_reshapes_stay_home(module):
    source = (PACKAGE / (module + ".py")).read_text(encoding="utf-8")
    homes = COLUMN_MAJOR_RESHAPES.get(module, set())
    assert [scope for scope in _column_major_reshapes(source) if scope not in homes] == []


def test_column_major_scan_reads_every_form():
    source = (
        "import numpy as np\n"
        "from numpy import reshape\n"
        "def f(a, d):\n"
        "    out = np.empty((4, 4), order='F')\n"
        "    b = a.reshape(d.n_ue, d.n_bs, order='F')\n"
        "    c = np.reshape(a, (2, 8), order=\"F\")\n"
        "    def inner():\n"
        "        return reshape(a, -1, order='F'), a.reshape(-1), a.reshape(2, 8, order='C')\n"
        "    return out, b, c\n"
        "flat = np.arange(4).reshape(2, 2, order='F')\n"
    )
    assert _column_major_reshapes(source) == ["f", "f", "f.inner", None]
