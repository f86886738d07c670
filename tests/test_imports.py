"""Every name a module, script or test imports is used there or listed in its ``__all__``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wiretap"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.stem not in ("__init__", "__main__"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Imported names that are neither read nor listed in ``__all__``, in import order."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_unused_imports_finds_a_dropped_use():
    src = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .qcore import RANK_CUTOFF, TOL_EQ, ValidationError, support_eigh\n"
        "__all__ = ['ValidationError']\n"
        "def f(x: 'np.ndarray'):\n"
        "    return support_eigh(x), TOL_EQ\n"
    )
    assert unused_imports(src) == ["RANK_CUTOFF"]


ROOT = SRC.parent.parent
# Package modules by file name, scripts and tests by their path in the repository.
CHECKED = {m: SRC / m for m in MODULES} | {
    str(p.relative_to(ROOT)): p
    for p in sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
}


@pytest.mark.parametrize("module", CHECKED)
def test_no_unused_imports(module):
    assert unused_imports(CHECKED[module].read_text()) == []


# Public names that nothing in src/, scripts/ or perfbench/ reads, with their role.
UNREAD_PUBLIC_NAMES = {
    # Test references: the slow, direct paths the fast kernels are checked against.
    "grid_oracle": "test reference for optimize_unassisted and optimize_theorem1",
    "build_gamma": "test reference for the Bob and Eve side maps of _CqKernel",
    "marginal_constraint_residual": "test reference for _CqKernel.reference_terms",
    "holevo_information": "test reference for the batched Holevo terms of rates._holevo",
    "coherent_information": "test reference for the dense-coding objective",
    "fidelity": "test reference for uhlmann_fixup",
    "channel_action_matrix": "test reference for channel equality in action",
    # Documented entry points.
    "modulation_from_choi": "entry point: a signal state's modulation channel",
    "constant_channel": "entry point: a stock channel",
    "save_state": "entry point: the writer of resource-analyze's state files",
}


def read_names(source: str, strings: bool = False) -> set[str]:
    """Names read in ``source`` as a name or an attribute, outside the
    top-level definition of that same name; with ``strings``, also string
    constants (the benchmark tracer names the functions it wraps)."""
    read = set()

    def visit(node, owner):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name != owner:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        visit(top, owner)
    return read


def public_names(source: str) -> list[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_read_names_skips_a_name_read_only_in_its_own_definition():
    src = (
        "__all__ = ['f', 'g', 'C']\n"
        "def f(n):\n"
        "    return f(n - 1) if n else g()\n"
        "def g():\n"
        "    return 'C'\n"
        "class C:\n"
        "    def copy(self) -> 'C':\n"
        "        return C()\n"
    )
    assert set(public_names(src)) - read_names(src) == {"f", "C"}
    tracer = "SPANNED = [('pkg.mod', 'f', 'mod.f')]\n"
    assert "f" in read_names(tracer, strings=True) and "f" not in read_names(tracer)


def test_every_public_name_is_read_or_has_a_role():
    read = set()
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        read |= read_names(path.read_text())
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        read |= read_names(path.read_text(), strings=True)
    public = {name for module in MODULES for name in public_names((SRC / module).read_text())}
    assert sorted(public - read) == sorted(UNREAD_PUBLIC_NAMES)
