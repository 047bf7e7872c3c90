"""The package's public names."""

import importlib


def test_every_public_name_resolves():
    # a removal that leaves its name in __all__ fails here, not at a user's import
    tautres = importlib.import_module("tautres")
    missing = [name for name in tautres.__all__ if not hasattr(tautres, name)]
    assert not missing
    assert len(set(tautres.__all__)) == len(tautres.__all__)
