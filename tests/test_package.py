"""The package's public surface."""

import types

import lcdshare


def test_all_lists_exactly_the_public_names_of_the_package():
    """__all__ names every public non-module binding of the package,
    plus the errors module, once each and in sorted order."""
    bound = {
        name
        for name, value in vars(lcdshare).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert lcdshare.__all__ == sorted(set(lcdshare.__all__))
    assert set(lcdshare.__all__) == bound | {"errors"}
