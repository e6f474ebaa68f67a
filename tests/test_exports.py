"""The package's public surface: every name listed in ``__all__`` resolves,
no module reads the environment (every setting is an argument), every
module uses what it imports, the package reads every functional the risk
kernel computes, only the model module names the test covariance forms, the
CLI imports only public names, and only the CLI opens files. A layer loads
when one of its names is first read: the package's name table lists each
name once, under the module that defines it, and the module sets of fresh
interpreters pin what a bare import and the CLI commands load."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from importlib import import_module
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


def test_the_name_table_lists_each_name_once_under_its_defining_module():
    listed = [name for names in ridgeshift._PUBLIC.values() for name in names]
    assert len(listed) == len(set(listed))
    assert ridgeshift.__all__ == ["__version__", *listed]
    for layer, names in ridgeshift._PUBLIC.items():
        module = import_module(f"ridgeshift.{layer}")
        assert getattr(ridgeshift, layer) is module
        for name in names:
            assert name in vars(module), f"{layer}.{name}"
            obj = vars(module)[name]
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, f"{layer}.{name}"
            # read through the package, never cached in it
            assert getattr(ridgeshift, name) is obj and name not in vars(ridgeshift)
    assert not hasattr(ridgeshift, "no_such_name")


def _modules_loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    src = str(Path(ridgeshift.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_a_bare_import_loads_no_layer_and_not_numpy():
    loaded = _modules_loaded_by("import ridgeshift")
    assert [name for name in loaded if name.startswith("ridgeshift.")] == []
    assert "numpy" not in loaded


def _cli(tmp_path, *argv: str) -> str:
    config = tmp_path / "iso.json"
    config.write_text(json.dumps({"p": 8, "signal": {"kind": "isotropic", "alpha2": 1.0},
                                  "sigma2": 0.5}))
    args = [argv[0], "--config", str(config), "--out", str(tmp_path / "out.csv"), *argv[1:]]
    return f"from ridgeshift.cli import main\nassert main({args!r}) == 0"


def test_a_theory_command_loads_neither_the_monte_carlo_layer_nor_a_thread_pool(tmp_path):
    loaded = _modules_loaded_by(_cli(tmp_path, "fixpoint", "--phi", "2", "--lambda", "0.1"))
    assert "ridgeshift.fixed_point" in loaded
    assert "ridgeshift.simulate" not in loaded and "concurrent.futures" not in loaded


def test_a_serial_simulation_loads_no_thread_pool(tmp_path):
    loaded = _modules_loaded_by(
        _cli(tmp_path, "simulate", "--phi", "2", "--grid", "0.5:1:2", "--reps", "2"))
    assert "ridgeshift.simulate" in loaded and "concurrent.futures" not in loaded
