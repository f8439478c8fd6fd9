"""Dead-code guard: every import of a pxlab module is used in it, every
private module-level name is read somewhere in the package, every public
module-level function and class is read there or exported from
``pxlab/__init__.py``, and no private name is imported from another
module.  A read is a name or attribute in a Load context; definitions,
assignments and imports do not count."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pxlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _reads(tree: ast.AST) -> set:
    """The names a tree reads, as bare names or as attributes."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def _imported(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _private_definitions(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = _tree(path)
    assert sorted(_imported(tree) - _reads(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read_in_the_package(path):
    package_reads = set().union(*(_reads(_tree(p)) for p in PACKAGE.glob("*.py")))
    assert sorted(_private_definitions(_tree(path)) - package_reads) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_name_is_imported_from_another_module(path):
    crossing = [a.name for node in ast.walk(_tree(path))
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for a in node.names if a.name.startswith("_")]
    assert crossing == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_function_and_class_is_read_or_exported(path):
    public = {node.name for node in _tree(path).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    package_reads = set().union(*(_reads(_tree(p)) for p in PACKAGE.glob("*.py")))
    exported = _imported(_tree(PACKAGE / "__init__.py"))
    assert sorted(public - package_reads - exported) == []


# NumPy routes these to BLAS, whose result bits depend on its build, kernel
# and thread count; the package reduces by ufuncs alone
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _called_names(func: ast.AST) -> set:
    """Every name along a called expression: ``np.linalg.norm`` gives np, linalg, norm."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(func)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_no_blas_call_in_the_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Call) and _called_names(node.func) & BLAS_CALLS:
                found.append((path.name, node.lineno, ast.unparse(node.func)))
    assert found == []
