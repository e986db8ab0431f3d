"""Command-line front end: plan, certify, validate, and compare.

All commands read JSON scene/robot files, write their artifacts under
``--out-dir``, and are bit-reproducible for a fixed ``--seed``. Exit codes:
0 success, 2 input validation failure, 3 planner did not converge,
4 numerical failure.
"""

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

# One BLAS thread unless the caller sets its own: OpenBLAS's default split
# of the QP's small dense products across threads slows a solve down.
# NumPy reads these when it is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .geometry import GeometryError
from .planner import (
    CONVERGED,
    SCOConfig,
    TrajectoryProblem,
    solve,
)
from .risk import certify_risk, risk_gradient
from .sceneio import SceneFormatError, load_robot, load_scene
from .plotting import plan_svg
from .validate import ira_plan, monte_carlo_risk, risk_blind_plan

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4


def _joint_vector(text, dof, what):
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise SceneFormatError(f"{what}: expected comma-separated floats, "
                               f"got {text!r}")
    if len(values) != dof:
        raise SceneFormatError(
            f"{what}: got {len(values)} values for a {dof}-dof robot")
    return np.array(values)


def _load_problem(args):
    scene = load_scene(args.scene)
    robot = load_robot(args.robot)
    if robot.dim != scene.dimension:
        raise SceneFormatError(
            f"robot dimension {robot.dim} does not match scene dimension "
            f"{scene.dimension}")
    return scene, robot


def _publish(args, name, payload):
    """Write ``payload`` to ``--out-dir``/``name`` and print it; return the
    directory."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    (out / name).write_text(text + "\n")
    print(text)
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def _read_trajectory_csv(path, dof):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise SceneFormatError(f"trajectory file {path}: {exc}")
    if not rows or rows[0][:1] != ["t"]:
        raise SceneFormatError(f"trajectory file {path}: expected a header "
                               "row starting with 't'")
    if len(rows[0]) - 1 != dof:
        raise SceneFormatError(
            f"trajectory file {path}: {len(rows[0]) - 1} joint columns for "
            f"a {dof}-dof robot")
    try:
        return np.array([[float(x) for x in row[1:]] for row in rows[1:]])
    except ValueError as exc:
        raise SceneFormatError(f"trajectory file {path}: {exc}")


def _path_length(trajectory):
    return float(np.linalg.norm(np.diff(trajectory, axis=0), axis=1).sum())


def _certify_timesteps(robot, trajectory, obstacles, eps_tol):
    totals = []
    for theta in trajectory:
        totals.append(sum(
            certify_risk(robot, theta, ob, eps_tol=eps_tol).eps_prime
            for ob in obstacles))
    return totals


def cmd_plan(args):
    scene, robot = _load_problem(args)
    start = _joint_vector(args.start, robot.dof, "--start")
    goal = _joint_vector(args.goal, robot.dof, "--goal")
    problem = TrajectoryProblem(robot, scene.obstacles, args.timesteps,
                                start, goal, args.delta, args.margin)
    result = solve(problem, SCOConfig(eps_tol=args.eps_tol))
    summary = {
        "scene": scene.name,
        "status": result.status,
        "objective": result.objective,
        "pathLength": _path_length(result.trajectory),
        "totalCertifiedRisk": result.total_risk,
        "allocationTotal": float(result.allocation.sum()),
        "riskBudget": problem.risk_budget,
        "maxViolation": result.report.max_violation,
        "timesteps": problem.timesteps,
        "runtimeSeconds": result.runtime,
    }
    out = _publish(args, "plan.json", summary)
    _write_csv(out / "trajectory.csv",
               ["t"] + [f"q{i}" for i in range(robot.dof)],
               [[t] + [repr(float(v)) for v in row]
                for t, row in enumerate(result.trajectory)])
    _write_csv(out / "allocation.csv", ["t", "delta", "certifiedRisk"],
               [[t, repr(float(d)), repr(float(r))]
                for t, (d, r) in enumerate(zip(result.allocation,
                                               result.certified_risks))])
    (out / "plan.svg").write_text(
        plan_svg(robot, result.trajectory, scene.obstacles))
    return EXIT_OK if result.status == CONVERGED else EXIT_NOT_CONVERGED


def cmd_certify(args):
    scene, robot = _load_problem(args)
    theta = _joint_vector(args.theta, robot.dof, "--theta")
    entries = []
    total = 0.0
    for name, ob in zip(scene.obstacle_names, scene.obstacles):
        cert = certify_risk(robot, theta, ob, eps_tol=args.eps_tol)
        entry = {
            "obstacle": name,
            "eps1": cert.eps1,
            "eps2": cert.eps2,
            "epsPrime": cert.eps_prime,
            "saturated": cert.saturated,
        }
        if cert.contact_normal is not None:
            entry["contactNormal"] = list(cert.contact_normal)
        if not cert.saturated:
            entry["gradient"] = list(risk_gradient(cert, robot, theta, ob))
        entries.append(entry)
        total += cert.eps_prime
    report = {
        "scene": scene.name,
        "theta": list(theta),
        "epsTol": args.eps_tol,
        "obstacles": entries,
        "totalRisk": total,
    }
    _publish(args, "certify.json", report)
    return EXIT_OK


def cmd_validate(args):
    scene, robot = _load_problem(args)
    trajectory = _read_trajectory_csv(args.trajectory, robot.dof)
    if len(trajectory) == 0:
        raise SceneFormatError(
            f"trajectory file {args.trajectory}: no waypoints")
    rep = monte_carlo_risk(robot, trajectory, scene.obstacles, args.samples,
                           args.seed)
    certified = _certify_timesteps(robot, trajectory, scene.obstacles,
                                   args.eps_tol)
    report = {
        "scene": scene.name,
        "monteCarlo": rep.to_dict(),
        "certifiedRiskPerTimestep": certified,
        "totalCertifiedRisk": sum(certified),
        "estimateWithinCertified":
            rep.estimate <= sum(certified) + 3 * rep.standard_error,
    }
    _publish(args, "validate.json", report)
    return EXIT_OK


def cmd_compare(args):
    scene, robot = _load_problem(args)
    start = _joint_vector(args.start, robot.dof, "--start")
    goal = _joint_vector(args.goal, robot.dof, "--goal")
    problem = TrajectoryProblem(robot, scene.obstacles, args.timesteps,
                                start, goal, args.delta, args.margin)
    config = SCOConfig(eps_tol=args.eps_tol)
    runs = [
        ("risk-blind", lambda: risk_blind_plan(problem, config)),
        ("ira", lambda: ira_plan(problem, config,
                                 sample_count=args.ira_samples,
                                 seed=args.seed)),
        ("certified", lambda: solve(problem, config)),
    ]
    rows = []
    for name, run in runs:
        t0 = time.perf_counter()
        try:
            result = run()
            mc = monte_carlo_risk(robot, result.trajectory, scene.obstacles,
                                  args.samples, args.seed)
            rows.append({
                "algorithm": name,
                "status": result.status,
                "runtimeSeconds": time.perf_counter() - t0,
                "pathLength": _path_length(result.trajectory),
                "monteCarloRisk": mc.estimate,
                "monteCarloStandardError": mc.standard_error,
                "sampleCount": mc.sample_count,
                "seed": args.seed,
            })
        except (ValueError, GeometryError, np.linalg.LinAlgError) as exc:
            rows.append({"algorithm": name, "status": "error",
                         "error": str(exc), "seed": args.seed})
    report = {"scene": scene.name, "riskBudget": args.delta, "table": rows}
    out = _publish(args, "compare.json", report)
    header = ["algorithm", "status", "runtimeSeconds", "pathLength",
              "monteCarloRisk", "seed"]
    _write_csv(out / "compare.csv", header,
               [[row.get(k, "") for k in header] for row in rows])
    return EXIT_OK


def _add_common(parser):
    parser.add_argument("--scene", required=True, help="scene JSON file")
    parser.add_argument("--robot", required=True, help="robot JSON file")
    parser.add_argument("--out-dir", default=".", help="artifact directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--eps-tol", type=float, default=1e-6,
                        help="certification floor")


def _add_planning(parser):
    parser.add_argument("--start", required=True,
                        help="start joint state, comma-separated")
    parser.add_argument("--goal", required=True,
                        help="goal joint state, comma-separated")
    parser.add_argument("--timesteps", type=int, default=10)
    parser.add_argument("--delta", type=float, default=0.01,
                        help="trajectory risk budget")
    parser.add_argument("--margin", type=float, default=0.0,
                        help="nominal clearance margin in meters")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ccplan",
        description="Chance-constrained trajectory planning with certified "
                    "collision-risk bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a risk-bounded trajectory")
    _add_common(p)
    _add_planning(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("certify", help="certify risk at one configuration")
    _add_common(p)
    p.add_argument("--theta", required=True,
                   help="joint state, comma-separated")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("validate", help="Monte Carlo validation of a "
                                        "trajectory CSV")
    _add_common(p)
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="benchmark risk-blind, IRA, and the "
                                       "risk-allocating planner")
    _add_common(p)
    _add_planning(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--ira-samples", type=int, default=1_000,
                   help="per-round sample count for the IRA baseline")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so the numerical failures are
    # caught before invalid input.
    except (GeometryError, np.linalg.LinAlgError, FloatingPointError,
            ZeroDivisionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
