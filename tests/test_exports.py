"""The package's public names resolve, and the demos import only those."""

import ast
import pathlib

import pytest

import qharmonics

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_public_name_resolves():
    for name in qharmonics.__all__:
        assert getattr(qharmonics, name) is not None, name


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demos_import_only_public_names(path):
    """Parsed, not run: every name a demo imports from ``qharmonics`` is in
    ``__all__``."""
    imported = [alias.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "qharmonics"
                for alias in node.names]
    assert imported
    assert sorted(set(imported) - set(qharmonics.__all__)) == []
