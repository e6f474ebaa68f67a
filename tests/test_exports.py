"""The package's public surface: every name listed in ``__all__`` resolves,
no module reads the environment (every setting is an argument), every
module uses what it imports, the package reads every functional the risk
kernel computes, only the model module names the test covariance forms, the
CLI imports only public names, and only the CLI opens files."""

import ast
import re
from pathlib import Path

import ridgeshift
from ridgeshift import model, risk


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


def test_every_module_uses_its_imports():
    package = Path(ridgeshift.__file__).parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_kernel_functional_is_read():
    # _blocks evaluates only the fields its caller names, so a field that
    # nothing reads is kernel code that nothing runs
    package = Path(ridgeshift.__file__).parent
    read = {node.attr for path in sorted(package.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert [name for name in risk._Blocks._fields if name != "mu" and name not in read] == []


def test_only_the_model_module_names_the_test_covariance_forms():
    # the form of S0 is decided in one module; the others read it through
    # the interface the forms share
    forms = {"_TestCovariance", "_Diagonal", "_ParityRankOne", "_Dense"}
    assert forms <= set(vars(model))
    package = Path(ridgeshift.__file__).parent
    naming = []
    for path in sorted(package.rglob("*.py")):
        if path.name != "model.py":
            for node in ast.walk(ast.parse(path.read_text())):
                # a Name, an Attribute, or an imported alias
                names = {getattr(node, key, None) for key in ("id", "attr", "name")}
                naming += [f"{path.name}:{node.lineno} {name}" for name in forms & names]
    assert naming == []


def test_the_cli_imports_only_public_names():
    # the CLI is a client of the public API; a private name imported into it
    # is a second home for a rule that belongs behind a public function
    tree = ast.parse((Path(ridgeshift.__file__).parent / "cli.py").read_text())
    private = [f"{node.lineno} {alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("ridgeshift"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_only_the_cli_opens_files():
    # the library returns its results; reading a config and writing tables
    # and dumps is the front end's job
    package = Path(ridgeshift.__file__).parent
    opening = [f"{path.name}:{node.lineno}" for path in sorted(package.rglob("*.py"))
               if path.name != "cli.py"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open"]
    assert opening == []
