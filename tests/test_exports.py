"""The package's public names: every one listed in ``__all__`` resolves."""

import ridgeshift


def test_every_exported_name_resolves():
    missing = [name for name in ridgeshift.__all__ if not hasattr(ridgeshift, name)]
    assert missing == []
    assert len(set(ridgeshift.__all__)) == len(ridgeshift.__all__)


def test_star_import():
    namespace = {}
    exec("from ridgeshift import *", namespace)
    assert set(ridgeshift.__all__) <= set(namespace)
