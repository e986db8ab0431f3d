"""Rules on the source of the ccplan package itself."""

import ast
import importlib
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


def test_gjk_has_one_entry():
    # Every GJK search starts from its seed direction; the batched first
    # step's open lanes run the same cold search.
    package = Path(ccplan.__file__).parent
    tree = ast.parse((package / "geometry.py").read_text())
    gjk, = (node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "_gjk")
    params = [a.arg for a in gjk.args.args + gjk.args.kwonlyargs]
    assert "start" not in params


def test_point_jacobian_only_outside_the_package():
    # Risk gradients and constraint rows take their Jacobians from the
    # stacked ``point_jacobians``; ``point_jacobian`` stays as the layer
    # the benchmark traces and the tests' reference Jacobian.
    def calls(n):
        f = n.func if isinstance(n, ast.Call) else None
        return (getattr(f, "id", None) == "point_jacobian"
                or getattr(f, "attr", None) == "point_jacobian")
    found = top_level_users(calls)
    assert not found, f"point_jacobian called in ccplan: {found}"


def test_convex_hull_only_in_boundary():
    # Qhull runs in one place, for the boundary complexes of body cores
    # that no constructor lays out itself.
    def uses(n):
        name = (n.id if isinstance(n, ast.Name)
                else n.attr if isinstance(n, ast.Attribute)
                else n.name if isinstance(n, ast.alias) else None)
        return name == "ConvexHull"
    assert top_level_users(uses) == {"geometry.Boundary"}


def test_boundary_built_only_for_cores():
    # Boundary complexes are built for body cores only (a box with its own
    # complex). Penetration comes from candidate axes, the Monte Carlo hit
    # test places the link against the obstacle's core, and the plot's
    # outline is a monotone chain, so nothing hulls a difference set or a
    # projection, and ``validate`` needs neither the complex nor SciPy.
    found = top_level_users(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "Boundary")
    assert found == {"geometry.SweptHull", "geometry.box"}
    path = Path(ccplan.__file__).parent / "validate.py"
    imported = {alias.name if isinstance(node, ast.Import)
                else f"{node.module}.{alias.name}"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert not {n for n in imported
                if n.startswith("scipy") or n.endswith(".Boundary")}


def test_layer_trace_names_exist():
    # The benchmark's traced run wraps each (module, function) of
    # ``LAYER_FUNCTIONS``; a name missing from ccplan makes ``--trace 1``
    # fail with an AttributeError. The file is parsed, not imported.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    tree = ast.parse(path.read_text(), str(path))
    listed = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "LAYER_FUNCTIONS"
                      for t in node.targets)]
    assert len(listed) == 1 and listed[0]
    missing = [f"{module}.{name}" for module, name in listed[0]
               if not hasattr(importlib.import_module(f"ccplan.{module}"),
                              name)]
    assert not missing, f"layer functions missing from ccplan: {missing}"


def referenced_names(module):
    """Every name and attribute that the ccplan module ``module``
    references."""
    path = Path(ccplan.__file__).parent / f"{module}.py"
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_one_certification_tail():
    # A constraint pass and a cold certificate share the lane tail,
    # ``risk._lanes``: the planner certifies through ``certify_lanes``
    # only, forms no bodies itself, and no per-pair path takes first
    # searches from a caller.
    package = Path(ccplan.__file__).parent
    assert not referenced_names("planner") & {"certify_risk", "SweptHull"}
    callers = top_level_users(
        lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "_rim_contact")
    assert callers == {"risk._lanes"}
    tree = ast.parse((package / "risk.py").read_text())
    certify, = (node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "certify_risk")
    params = [a.arg for a in certify.args.args + certify.args.kwonlyargs]
    assert "first" not in params


def test_one_posed_body_form():
    # From kinematics to the certificate tail a posed robot is its
    # LinkGroups, and the eps_tol-shadow cull with its c = inf contract is
    # defined and read in ``risk`` alone: the planner runs no first search
    # and computes no shadow radius of its own.
    package = Path(ccplan.__file__).parent
    found = [f"{path.name}: {name}"
             for path in sorted(package.rglob("*.py"))
             for name in ("LaneBodies", "chain_shapes")
             if name in path.read_text()]
    assert not found, f"retired body forms in ccplan: {found}"
    assert not referenced_names("planner") & {"mahalanobis_contacts",
                                              "chi2_inv_cdf"}


def test_whitened_search_runs_on_floats():
    # The whitened GJK search keeps its supports, face step and witness
    # sums on 3-component float lists: a NumPy call or a matrix product
    # there costs more than the arithmetic it does on bodies of a few
    # vertices. Only the constructor (an SVD when the caller holds no
    # axes) and the return of ``_gjk`` form arrays.
    package = Path(ccplan.__file__).parent
    tree = ast.parse((package / "geometry.py").read_text())
    top = {node.name: node for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    scopes = {f"_PairSupport.{node.name}": node
              for node in top["_PairSupport"].body
              if isinstance(node, ast.FunctionDef)
              and node.name != "__init__"}
    for name in ("_combine", "_farthest", "_add", "_face_step"):
        scopes[name] = top[name]
    loop, = (node for node in top["_gjk"].body if isinstance(node, ast.For))
    scopes["_gjk loop"] = loop
    assert {"_PairSupport.__call__", "_PairSupport.core",
            "_PairSupport.ball"} <= set(scopes)

    def array_use(n):
        return ((isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                 and n.value.id in ("np", "numpy"))
                or (isinstance(n, (ast.BinOp, ast.AugAssign))
                    and isinstance(n.op, ast.MatMult)))
    found = [f"{name}:{n.lineno}" for name, node in scopes.items()
             for n in ast.walk(node) if array_use(n)]
    assert not found, f"NumPy in the float search: {found}"


def test_one_monte_carlo_hit_path():
    # Monte Carlo hits are tested per link group: ``mark_hits`` takes the
    # planes and witnesses of every pair from one kernel call and queues
    # what its culls leave for the kernel calls of ``_flush``. No method
    # tests a pair on its own.
    path = Path(ccplan.__file__).parent / "validate.py"
    tree = ast.parse(path.read_text())
    samples, = (node for node in tree.body
                if isinstance(node, ast.ClassDef)
                and node.name == "_ObstacleSamples")
    methods = {node.name: node for node in samples.body
               if isinstance(node, ast.FunctionDef)}
    assert set(methods) == {"__init__", "mark_hits", "_flush"}
    callers = {name for name, node in methods.items()
               for n in ast.walk(node)
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
               and n.func.id == "_closest_cores"}
    assert callers == {"mark_hits", "_flush"}
    users = top_level_users(
        lambda n: isinstance(n, ast.Name) and n.id == "_closest_cores")
    assert {u for u in users if u.startswith("validate.")} == {
        "validate._ObstacleSamples"}
