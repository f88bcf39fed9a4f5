"""The package's public names resolve, and the demos import only those."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import qharmonics

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: the modules whose ``__all__`` the package exports, beside its submodules
PUBLIC_MODULES = ("quaternion", "grids", "variation", "qft", "qlct", "smoothing", "fileio")
SUBMODULES = PUBLIC_MODULES + ("fixtures", "errors", "cli")

#: the package's names, pinned: a name joins or leaves ``qharmonics`` only on purpose
NAMES = [
    "AxisPair", "CANONICAL_AXES", "FreqWindow", "GridSpec", "JumpAverage", "LctKind",
    "LctParams", "Net", "QSignal2D", "QSpectrum2D", "QftKind", "Side", "VariationReport",
    "cli", "derivative_multiplier", "dirichlet_partial_inverse_freq",
    "dirichlet_partial_inverse_sinc", "errors", "eta_jump_average", "fileio", "fixtures",
    "ft2d", "ft_from_qft", "gauss_mean_inverse", "gauss_weierstrass_kernel", "grids",
    "hardy_bvf_check", "image_to_qsig", "jordan_split", "l1_norm", "lc_class_diagnostic",
    "lct_kernel", "linf_diff", "load_qsig", "load_qspectrum", "mixed_difference", "pure_unit",
    "qabs", "qconj", "qexp_pure", "qfrft", "qft", "qft_forward", "qft_from_ft", "qft_inverse",
    "qinv", "qlct", "qlct_forward", "qlct_inverse", "qmul", "qsig_to_image",
    "quasi_monotone_check", "quat", "quaternion", "sample", "save_qsig", "save_qspectrum",
    "sided_decompose_transform", "sinc_integral_bound_check", "smoothing", "variation",
    "vitali_variation",
]


def test_every_public_name_resolves():
    for name in qharmonics.__all__:
        assert getattr(qharmonics, name) is not None, name


def test_the_name_set_is_pinned():
    assert sorted(qharmonics.__all__) == NAMES


def test_the_transform_signatures_are_pinned():
    """An inverse reads the spectrum's own kind, and each transform takes
    ``overwrite`` by keyword only, so a call that passes a kind to an
    inverse fails at the call rather than binding the grid to ``overwrite``.
    ``qfrft`` is the angle rule plus the QLCT forward of a kind, whose phase
    flag it sets: it has no option of its own."""
    P = inspect.Parameter
    arg, key, none = P.POSITIONAL_OR_KEYWORD, P.KEYWORD_ONLY, P.empty
    inverse = [("spec", arg, none), ("out_grid", arg, none), ("overwrite", key, False)]
    want = {"qft_forward": [("sig", arg, none), ("kind", arg, qharmonics.QftKind()),
                            ("window", arg, None), ("overwrite", key, False)],
            "qlct_forward": [("sig", arg, none), ("kind", arg, none), ("window", arg, None),
                             ("overwrite", key, False)],
            "qft_inverse": inverse, "qlct_inverse": inverse,
            "qfrft": [("sig", arg, none), ("alpha", arg, none), ("beta", arg, none),
                      ("side", arg, none), ("window", arg, None),
                      ("axes", arg, qharmonics.CANONICAL_AXES), ("phase_corrected", arg, False)]}
    for name, params in want.items():
        got = inspect.signature(getattr(qharmonics, name)).parameters.values()
        assert [(p.name, p.kind, p.default) for p in got] == params, name


def test_each_name_is_a_submodule_or_in_exactly_one_modules_all():
    """A name resolves to its submodule, or to the object of the one public
    module whose ``__all__`` lists it; every such listing is exported."""
    modules = {name: importlib.import_module(f"qharmonics.{name}") for name in SUBMODULES}
    for name in SUBMODULES:
        assert getattr(qharmonics, name) is modules[name]
    owners = {}
    for name in PUBLIC_MODULES:
        for attr in modules[name].__all__:
            owners.setdefault(attr, []).append(name)
    assert {k: v for k, v in owners.items() if len(v) != 1} == {}
    assert sorted(owners) == sorted(set(NAMES) - set(SUBMODULES))
    for attr, (name,) in owners.items():
        assert getattr(qharmonics, attr) is getattr(modules[name], attr), attr


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from qharmonics import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert sorted(dir(qharmonics)) == NAMES
    for name in ("no_such_name", "_stages", "__wrapped__"):
        with pytest.raises(AttributeError):
            getattr(qharmonics, name)


def test_import_loads_no_numpy():
    """``import qharmonics`` loads no submodule, so a caller can set the BLAS
    thread variables before numpy loads."""
    src = os.path.dirname(os.path.dirname(qharmonics.__file__))
    code = ("import sys, qharmonics; "
            "print(sorted(m for m in sys.modules if m.startswith(('numpy', 'qharmonics'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "['qharmonics']"


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demos_import_only_public_names(path):
    """Parsed, not run: every name a demo imports from ``qharmonics`` is in
    ``__all__``."""
    imported = [alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "qharmonics"
                for alias in node.names]
    assert imported
    assert sorted(set(imported) - set(qharmonics.__all__)) == []
