"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload it checks that the timed run emits every end-to-end
metric and the traced run every per-layer metric that BENCHMARK.json names,
with its unit, and that neither counts a failure. It then scales every cold
certificate far below its Monte Carlo estimate and checks that the benchmark
counts the corrupted outputs as failed operations, by the check that each
workload exists to exercise. Exits 1 on any problem.
"""

import dataclasses
import json
import sys

import run

SEED = 1
# The failure a corrupted certificate must cause, by workload: the Monte
# Carlo check of the reference trajectory, or on certify-random the seeded
# Monte Carlo check of random triples (failures read "<kind>: <problem>").
CORRUPTION_CAUGHT_BY = {"pickplace3d": "mc: Monte Carlo",
                        "certify-random": "cert: Monte Carlo"}


def shrunk(certify_risk, eps_tol=1e-6, scale=1e-3):
    """certify_risk whose bounds are scaled down, but not below eps_tol, so
    only the comparison with Monte Carlo can catch them."""
    def corrupted(*args, **kwargs):
        c = certify_risk(*args, **kwargs)
        return dataclasses.replace(
            c, eps1=max(eps_tol, scale * c.eps1),
            eps2=max(eps_tol, scale * c.eps2),
            eps_prime=max(eps_tol, scale * c.eps_prime))
    return corrupted


def main():
    run.import_program()
    import workloads
    from ccplan import risk
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.measure(name, SEED, 0, trace, workloads.TINY)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                wrong_units = [k for k in want
                               if k in got and got[k] != want[k]]
                problems.append(f"{name} {key}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{wrong_units}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} {key}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            print(f"{name} {key}: {len(got)} metrics, "
                  f"{result['attempted']} operations")

    # Enough samples and certificates that Monte Carlo sees the risk.
    size = dataclasses.replace(
        workloads.TINY, mc_samples=20_000,
        cert_chunks=dict.fromkeys(workloads.WORKLOADS, 75))
    original = risk.certify_risk
    risk.certify_risk = shrunk(original)
    try:
        for name in workloads.WORKLOADS:
            result, runs = run.measure(name, SEED, 0, False, size)
            prefix = CORRUPTION_CAUGHT_BY[name]
            caught = sum(f.startswith(prefix)
                         for r in runs for f in r.failures)
            print(f"{name} corrupted certificates: {result['failed']} of "
                  f"{result['attempted']} operations failed, {caught} by "
                  f"'{prefix}'")
            if caught == 0 or result["correct"]:
                problems.append(f"{name}: corrupted certificates were not "
                                f"counted as failed by '{prefix}'")
    finally:
        risk.certify_risk = original

    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
