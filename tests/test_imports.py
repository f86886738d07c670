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
    "code_parameters": "entry point: one block length's code size; run_experiment shares one "
    "rate report across its block lengths",
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


# Fields of public dataclasses that nothing in src/, scripts/ or perfbench/
# reads as an attribute, with their role.
UNREAD_FIELDS = {
    "LeakageStats.average": "test reference for code-sim's leakage",
    "LeakageStats.per_message_max": "test reference for code-sim's leakage",
}


def dataclass_fields(source: str) -> list[str]:
    """``Class.field`` for every annotated field of the dataclasses in ``__all__``."""
    public = set(public_names(source))
    fields = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef) or node.name not in public:
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            fields += [
                f"{node.name}.{s.target.id}"
                for s in node.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            ]
    return fields


def attribute_reads(source: str) -> set[str]:
    """Attribute names read in ``source``; a constructor keyword is not a read."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_dataclass_fields_and_attribute_reads():
    src = (
        "from dataclasses import dataclass\n"
        "__all__ = ['P', 'Q']\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "class Q:\n"
        "    z: int\n"
        "@dataclass\n"
        "class R:\n"
        "    w: int\n"
        "p = P(x=1, y=2)\n"
        "p.y = p.x\n"
    )
    assert dataclass_fields(src) == ["P.x", "P.y"]
    assert attribute_reads(src) == {"x"}


def test_every_public_dataclass_field_is_read_or_has_a_role():
    read = set()
    for path in (
        sorted(SRC.glob("*.py"))
        + sorted((ROOT / "scripts").glob("*.py"))
        + sorted((ROOT / "perfbench").rglob("*.py"))
    ):
        read |= attribute_reads(path.read_text())
    fields = [f for module in MODULES for f in dataclass_fields((SRC / module).read_text())]
    unread = [f for f in fields if f.split(".")[1] not in read]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


# Defaulted parameters of public functions that no call in src/, scripts/ or
# perfbench/ passes, with their role.  Any other such parameter has one value
# in use and should be a constant.
UNPASSED_DEFAULTS = {
    "modulation_from_choi.ref_label": "entry point: a reference copy that is not the last factor",
    "coherent_information.bob": "test reference: Bob's factors of a state with more than two",
    "grid_oracle.spec": "test reference: the grid of the oracle the searches are checked against",
    "code_parameters.rate": "entry point: a code held above or below the functional",
}


def public_signatures(source: str) -> dict[str, tuple[list[str], list[str]]]:
    """For each top-level function in ``__all__``: its positional parameter
    names in order, and the names of its parameters that have a default."""
    public = set(public_names(source))
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            a = node.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults) :]
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            out[node.name] = (positional, defaulted)
    return out


def passed_parameters(source: str, signatures: dict) -> set[str]:
    """``function.parameter`` for every parameter of ``signatures`` that a
    call in ``source`` passes, by position or by keyword.  A call through an
    import alias (``main as cli_main``, also when the alias is kept as an
    attribute of that name) counts for the imported function, and a call
    with ``*args`` or ``**kwargs`` passes every parameter."""
    tree = ast.parse(source)
    alias = {
        a.asname: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.asname
    }
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        name = alias.get(name, name)
        if name not in signatures:
            continue
        positional, defaulted = signatures[name]
        unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        given = positional + defaulted if unpacked else positional[: len(node.args)]
        given += [kw.arg for kw in node.keywords if kw.arg]
        passed |= {f"{name}.{p}" for p in given}
    return passed


def test_passed_parameters_reads_positions_keywords_and_aliases():
    module = (
        "__all__ = ['f', 'g', 'h', 'main']\n"
        "def f(x, y=1, z=2): ...\n"
        "def g(x, *, k=0): ...\n"
        "def h(a=0, b=0): ...\n"
        "def main(argv=None): ...\n"
        "def _private(q=0): ...\n"
    )
    signatures = public_signatures(module)
    assert signatures["f"] == (["x", "y", "z"], ["y", "z"])
    assert signatures["g"] == (["x"], ["k"])
    assert "_private" not in signatures
    caller = (
        "from pkg import main as cli_main\n"
        "f(0, 5)\n"
        "obj.g(0)\n"
        "h(**opts)\n"
        "class Runner:\n"
        "    def run(self, argv):\n"
        "        return self.cli_main(argv)\n"
    )
    defaults = {f"{n}.{p}" for n, (_, ds) in signatures.items() for p in ds}
    passed = passed_parameters(caller, signatures)
    assert sorted(defaults - passed) == ["f.z", "g.k"]
    assert passed_parameters("f(0, z=3)\n", signatures) == {"f.x", "f.z"}


def test_every_defaulted_public_parameter_is_passed_or_has_a_role():
    signatures = {}
    for module in MODULES:
        signatures |= public_signatures((SRC / module).read_text())
    defaults = {f"{n}.{p}" for n, (_, ds) in signatures.items() for p in ds}
    passed = set()
    for path in (
        sorted(SRC.glob("*.py"))
        + sorted((ROOT / "scripts").glob("*.py"))
        + sorted((ROOT / "perfbench").rglob("*.py"))
    ):
        passed |= passed_parameters(path.read_text(), signatures)
    assert sorted(defaults - passed) == sorted(UNPASSED_DEFAULTS)
