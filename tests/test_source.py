"""Rules on the source of the ccplan package itself."""

import ast
from pathlib import Path

import ccplan


def test_no_assert_statements():
    # Invariants raise typed errors that map to CLI exit codes; an assert
    # would vanish under ``python -O``.
    package = Path(ccplan.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in ccplan: {found}"


def module_level_imports(tree):
    """Import statements that run when the module is imported: all but
    those inside function bodies."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            yield from module_level_imports(node)


def test_no_module_level_scipy_spatial_import():
    # Importing scipy.spatial costs more CPU than importing the rest of
    # ccplan, so only the functions that build hulls import it.
    package = Path(ccplan.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in module_level_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [f"{node.module}.{alias.name}"
                         for alias in node.names]
            if any(n == "scipy.spatial" or n.startswith("scipy.spatial.")
                   for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"module-level scipy.spatial imports: {found}"


def top_level_users(uses):
    """The package's top-level definitions, as module.name (a statement
    without a name as module.line), that hold a node for which ``uses``
    holds."""
    package = Path(ccplan.__file__).parent
    found = set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if any(uses(n) for n in ast.walk(node)):
                found.add(f"{path.stem}."
                          f"{getattr(node, 'name', node.lineno)}")
    return found


def test_gjk_only_in_whitened_searches():
    # Euclidean distances come from the exact batched kernel; GJK stays
    # only where whitening turns a sphere into an ellipsoid.
    found = top_level_users(
        lambda n: isinstance(n, ast.Name) and n.id == "_gjk")
    assert found == {"geometry.mahalanobis_contact",
                     "geometry.mahalanobis_contacts", "risk._rim_contact"}


def test_convex_hull_only_in_boundary():
    # Qhull runs in one place, so that the distance kernel, the Monte Carlo
    # hit test and plotting share one boundary complex.
    def uses(n):
        name = (n.id if isinstance(n, ast.Name)
                else n.attr if isinstance(n, ast.Attribute)
                else n.name if isinstance(n, ast.alias) else None)
        return name == "ConvexHull"
    assert top_level_users(uses) == {"geometry.Boundary"}


def test_boundary_built_only_for_cores_and_hit_hulls():
    # Boundary complexes are built for body cores, Monte Carlo difference
    # sets and plots; penetration comes from candidate axes, so the
    # distance kernel never hulls a difference set.
    found = top_level_users(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "Boundary")
    assert found == {"geometry.SweptHull", "validate._point_polytope_hits",
                     "plotting._hull_order"}
