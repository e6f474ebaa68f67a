"""The package's public surface: every name listed in ``__all__`` resolves,
and no module reads the environment (every setting is an argument)."""

import re
from pathlib import Path

import ridgeshift


def test_every_exported_name_resolves():
    missing = [name for name in ridgeshift.__all__ if not hasattr(ridgeshift, name)]
    assert missing == []
    assert len(set(ridgeshift.__all__)) == len(ridgeshift.__all__)


def test_star_import():
    namespace = {}
    exec("from ridgeshift import *", namespace)
    assert set(ridgeshift.__all__) <= set(namespace)


def test_no_module_reads_the_environment():
    package = Path(ridgeshift.__file__).parent
    readers = [path.name for path in sorted(package.rglob("*.py"))
               if re.search(r"\b(environ|getenv)\b", path.read_text())]
    assert readers == []
