"""Regenerate the committed reference trajectories under reference/.

    python3 perfbench/make_reference.py

Each file holds the certified plan that ``planner.solve`` returns for a
planning problem of workloads.PROBLEMS. The benchmark validates these fixed
trajectories with Monte Carlo, so a planner change cannot shift the
validator's workload; regenerate them only on purpose.
"""

import json

import run


def main():
    import workloads
    from ccplan import planner
    for name, spec in workloads.PROBLEMS.items():
        res = planner.solve(workloads.load_problem(name))
        if res.status != planner.CONVERGED:
            raise SystemExit(f"{name}: solve returned {res.status}")
        doc = {
            "problem": spec,
            "status": res.status,
            "objective": res.objective,
            "total_certified_risk": res.total_risk,
            "trajectory": res.trajectory.tolist(),
            "allocation": res.allocation.tolist(),
        }
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: objective {res.objective!r}, certified risk "
              f"{res.total_risk!r} -> {path.name}")


if __name__ == "__main__":
    run.import_program()
    main()
