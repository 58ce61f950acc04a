"""Module layering, read from the source with `ast`.

Pixels and prompt rows are frozen data: they stay numpy arrays until a
parameter first touches them inside the model. So the model needs nothing
from the prompt module, and the modules that produce frozen data never name
the autograd `Tensor`. The bank and checkpoint formats read their bytes only
through the shared `_binfile.Reader`, so neither grows its own offset logic.
The reference forward imports only the config, so it can be an oracle for
the model. Whether a model, a dataset and a bank fit together is decided by
`trainer.check_agreement` alone, so the CLI raises no `ConsistencyError`
itself. scipy serves only the float64 erf, so no module imports it at
module level, and a float32 process never loads it. A module imports only
what it uses.
"""

import ast
from pathlib import Path

import pytest

import ivit

SRC = Path(ivit.__file__).resolve().parent


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def imports_module(tree: ast.Module, module: str) -> bool:
    """True if the file imports ``ivit.<module>`` in any spelling.

    Covers ``from .prompts import X``, ``from . import prompts``,
    ``from ivit.prompts import X`` and ``import ivit.prompts``.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[:2] == ["ivit", module] for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["ivit"]:
                    continue
                parts = parts[1:]
            if parts[:1] == [module] or (not parts and any(a.name == module for a in node.names)):
                return True
    return False


def names_tensor(tree: ast.Module) -> bool:
    """True if the file imports `Tensor` or reaches it as an attribute (``T.Tensor``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == "Tensor" for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Tensor":
            return True
    return False


def unpacks_bytes(tree: ast.Module) -> bool:
    """True if the file calls ``struct.unpack`` / ``unpack_from`` / ``iter_unpack`` or imports one."""
    names = {"unpack", "unpack_from", "iter_unpack"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "struct" and any(a.name in names for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr in names:
            on_struct = isinstance(node.value, ast.Name) and node.value.id == "struct"
            if on_struct or node.attr != "unpack":  # ``Reader.unpack`` is the shared reader's
                return True
    return False


def test_model_imports_nothing_from_prompts():
    assert not imports_module(parse("model"), "prompts")


@pytest.mark.parametrize("module", ["prompts", "selection", "dataset"])
def test_frozen_data_modules_do_not_import_tensor(module):
    assert not names_tensor(parse(module))


@pytest.mark.parametrize("module", ["checkpoint", "prompts"])
def test_file_formats_read_only_through_the_shared_reader(module):
    assert not unpacks_bytes(parse(module))


def raised_names(tree: ast.Module) -> list[str]:
    """The exception names the file raises itself: ``raise E(...)``, ``raise E`` or ``raise errors.E(...)``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", ""))
    return names


def test_cli_leaves_the_agreement_rule_to_the_library():
    assert "ConsistencyError" not in raised_names(parse("cli"))


def test_reference_imports_only_the_config():
    """The reference forward is an oracle for the model, so it shares none of its code."""
    tree = parse("reference")
    assert [m.stem for m in SRC.glob("*.py") if m.stem != "config" and imports_module(tree, m.stem)] == []


def test_gradcheck_imports_only_at_module_level():
    """An import inside a function would bind a new name in the middle of a traced run."""
    tree = parse("gradcheck")
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(n in tree.body for n in imports)
    assert imports_module(tree, "reference")


def module_level_imports(tree: ast.Module) -> list[ast.stmt]:
    """Every import outside a function body: at the top, or under a module-level ``if``, ``try`` or class."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("module", sorted(m.stem for m in SRC.glob("*.py")))
def test_scipy_is_imported_only_inside_functions(module):
    def names(node):
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        return [node.module or ""] if node.level == 0 else []

    top = [n for node in module_level_imports(parse(module)) for n in names(node)]
    assert not [n for n in top if n.split(".")[0] == "scipy"]


def imported_names(tree: ast.Module) -> list[str]:
    """The names the file's imports bind, ``from __future__`` aside: ``import a.b`` binds ``a``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


@pytest.mark.parametrize("module", sorted(m.stem for m in SRC.glob("*.py") if m.stem != "__init__"))
def test_every_imported_name_is_used(module):
    """``__init__`` is exempt: its imports are the package's exports."""
    tree = parse(module)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []
