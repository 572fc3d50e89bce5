import argparse
import ast
import builtins
import importlib
import re
import sys
from pathlib import Path

import pytest

import pce
from pce import cli, errors

MODULES = ("data", "evaluation", "graph", "linalg", "model")
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
ERROR_CLASSES = {
    name: cls for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.PceError) and cls is not errors.PceError
}


def pyproject_value(key):
    """The raw right-hand side of ``key = ...`` in pyproject.toml's text
    (Python 3.10 has no tomllib), a bracketed list taken up to its ``]``."""
    found = re.search(rf"^{key} = (\[[^\]]*\]|.*)$", PYPROJECT, re.MULTILINE)
    assert found, f"pyproject.toml has no {key} line"
    return found.group(1)


def test_public_name_lists_resolve_and_agree():
    # a rename must update every list that names the old function
    exported = {"errors"}
    for name in MODULES:
        module = importlib.import_module(f"pce.{name}")
        missing = [public for public in module.__all__ if not hasattr(module, public)]
        assert not missing, f"pce.{name}.__all__ names missing {missing}"
        exported.update(module.__all__)
    assert [public for public in pce.__all__ if not hasattr(pce, public)] == []
    assert set(pce.__all__) <= exported


def svd_calls(node):
    """Calls in ``node`` to an SVD by any spelling: np.linalg.svd, linalg.svd, svd."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and ast.unparse(call.func).split(".")[-2:] in (["linalg", "svd"], ["svd"])
    ]


def test_one_svd_call_in_the_library():
    # every SVD in pce goes through skinny_svd, which holds the one LAPACK call
    calls, private = {}, []
    for path in sorted(Path(pce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls[path.stem] = len(svd_calls(tree))
        private += [
            path.stem for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and "_svd" in [a.name for a in node.names])
            or (isinstance(node, ast.Attribute) and node.attr == "_svd")
        ]
        if path.stem == "linalg":
            home = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "skinny_svd"
            )
            assert [ast.unparse(c.func) for c in svd_calls(home)] == ["np.linalg.svd"]
    assert {name: n for name, n in calls.items() if n} == {"linalg": 1}
    assert private == []
    assert not hasattr(importlib.import_module("pce.linalg"), "_svd")


def test_library_imports_numpy_and_the_standard_library_alone():
    # pce runs on numpy alone: scipy and every other package stay in the tests
    foreign = []
    for path in sorted(Path(pce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in {*sys.stdlib_module_names, "numpy", "pce"}
            ]
    assert foreign == []
    assert re.findall(r'"([^"]*)"', pyproject_value("dependencies")) == ["numpy>=1.24"]


def test_pyproject_version_is_the_package_version():
    assert pyproject_value("version") == f'"{pce.__version__}"'


def test_every_python_file_parses_at_the_3_10_floor():
    # requires-python is >=3.10; parsing with feature_version=(3, 10) catches
    # newer syntax, such as except*, on an interpreter that would accept it
    assert pyproject_value("requires-python") == '">=3.10"'
    paths = sorted(p for part in ("src", "tests", "demo", "perfbench")
                   for p in (ROOT / part).rglob("*.py"))
    assert len(paths) >= 29
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


README = (ROOT / "README.md").read_text(encoding="utf-8")


def resolve(dotted):
    """The object a dotted ``pce.`` name refers to, importing submodules on the way."""
    obj = importlib.import_module("pce")
    for part in dotted.split(".")[1:]:
        if not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def test_readme_names_resolve():
    # every pce.<name> and pce.<module>.<name> the README shows still exists,
    # and so does every bare `CamelCase` name: a builtin, an error class or a
    # name some pce.<module>.__all__ exports
    missing = []
    for dotted in sorted(set(re.findall(r"\bpce(?:\.[A-Za-z_]\w*)+", README))):
        try:
            resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert missing == []
    known = set(dir(builtins)) | set(vars(errors))
    for name in MODULES:
        known.update(importlib.import_module(f"pce.{name}").__all__)
    bare = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`", README))
    assert len(bare) >= 16
    assert sorted(bare - known) == []


def test_every_error_class_is_raised():
    # a class that no raise in the library names is dead weight in the API
    raised = set()
    for path in sorted(Path(pce.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).split(".")[-1])
    assert len(ERROR_CLASSES) >= 10
    assert sorted(set(ERROR_CLASSES) - raised) == []


@pytest.mark.parametrize("name", sorted(ERROR_CLASSES))
def test_every_error_class_has_its_exit_code(name, monkeypatch, capsys):
    # exit 1 is an input error, which in the library is ParseError alone;
    # every other PceError is a numerical or domain error, exit 2
    def fail(args):
        raise ERROR_CLASSES[name]("boom")

    monkeypatch.setattr(cli, "cmd_fit", fail)
    assert cli.main(["fit", "data.txt"]) == (1 if name == "ParseError" else 2)
    assert capsys.readouterr().err == "error: boom\n"


def test_readme_commands_are_subcommands():
    # every `pce <cmd>`, inline or at the start of a code line, is a subcommand
    parser = cli.build_parser()
    commands = next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    shown = set(re.findall(r"(?:^|`)pce ([a-z][\w-]*)", README, re.MULTILINE))
    assert shown, "README shows no pce command"
    assert sorted(shown - set(commands)) == []
