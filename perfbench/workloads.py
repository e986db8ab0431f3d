"""Inputs, operations and output checks of the ccplan benchmark.

Every workload runs the same cycle of user operations, one caller at a
time (a closed loop: each operation starts when the previous one returns):

    solve, blind, certify, blind, ira_plan, blind, certify, solve, blind,
    certify, blind, monte_carlo_risk, blind, certify

where blind is risk_blind_plan and certify is a chunk of cold
certificates. A certificate is what ``ccplan certify`` computes: one
configuration certified against every obstacle of its scene (certify_risk,
then risk_gradient, per obstacle). The four chunks are spread over the
cycle so that certification samples the machine at the same times as the
plans do. Every operation and certificate is timed on a speed.Stopwatch,
at the machine's reference speed.

The workloads differ in their inputs:

* ``pickplace3d``: the 4-dof arm past a bin wall and a carton. Its certify
  chunk cold-certifies seeded jitters of the committed reference
  trajectory's waypoints against the scene.
* ``certify-random``: the certify chunk cold-certifies seeded random
  (robot, obstacle, configuration) triples. Its planning operations run the
  README quick start, corridor2d (point robot, two sphere pillars), so that
  every end-to-end metric exists here too; they are the control for
  kinematics, 3D-geometry and hull-kernel changes.

Monte Carlo always validates a committed reference trajectory (see
``reference/``), so planner changes cannot shift the validator's workload.
"""

import json
import math
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np

from ccplan import planner, risk, sceneio, validate
from speed import Stopwatch

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Planning problems, exactly as the README and the acceptance tests pose them.
PROBLEMS = {
    "corridor2d": dict(scene="corridor2d.json", robot="pointbot2d.json",
                       start=[-1.5, 0.0], goal=[1.5, 0.0], timesteps=10,
                       risk_budget=0.01, margin=0.02),
    "pickplace3d": dict(scene="pickplace3d.json", robot="arm4dof3d.json",
                        start=[-0.8, -0.5, -0.7, -0.3],
                        goal=[0.9, -0.4, -0.8, -0.2], timesteps=17,
                        risk_budget=0.10, margin=0.02),
}

# Which problem each workload plans and validates.
PLAN_PROBLEM = {"pickplace3d": "pickplace3d", "certify-random": "corridor2d"}
WORKLOADS = tuple(PLAN_PROBLEM)

# ira_plan draws its own samples; a fixed seed keeps its round count, and so
# plan_ira_s, independent of the workload seed (the CLI default is also 0).
IRA_SEED = 0
IRA_SAMPLES = 1_000       # samples per ira_plan round, its default
# Standard deviation of the seeded joint jitter applied to the configurations
# certified cold (reference waypoints on pickplace3d, the random family on
# certify-random): small, so every seed certifies the same mix of branches,
# yet no input repeats.
JITTER = 1e-3
# Seed of the certify-random family of triples (see RandomTriples).
FAMILY_SEED = 0
# On certify-random, one triple in this many is also checked against
# Monte Carlo (a seeded subset).
MC_CHECK_EVERY = 50
# A certificate's time is scaled by the CERT_WINDOW speed samples taken
# before its end and the CERT_WINDOW after, about 0.1 s of the chunk.
CERT_WINDOW = 2


@dataclass(frozen=True)
class Size:
    mc_samples: int          # monte_carlo_risk on the reference trajectory
    cert_chunks: dict        # certificates per certify chunk, by workload
    min_certs: int           # per run, so p99 keeps ten beyond it
    mc_check_samples: int    # per checked certify-random triple


FULL = Size(mc_samples=100_000,
            cert_chunks={"pickplace3d": 250, "certify-random": 125},
            min_certs=1_000, mc_check_samples=5_000)
TINY = Size(mc_samples=2_000, cert_chunks=dict.fromkeys(WORKLOADS, 10),
            min_certs=0, mc_check_samples=2_000)

# Planar 3-link capsule arm of the certify-random family.
ARM3_2D = {
    "formatVersion": 1, "name": "arm3link2d", "dimension": 2,
    "joints": [
        {"type": "revolute", "limits": [-3.1416, 3.1416]},
        {"type": "revolute", "offset": {"translation": [0.4, 0.0]},
         "limits": [-2.5, 2.5]},
        {"type": "revolute", "offset": {"translation": [0.4, 0.0]},
         "limits": [-2.5, 2.5]},
    ],
    "linkShapes": [[{"type": "capsule", "p0": [0.0, 0.0], "p1": [0.4, 0.0],
                     "radius": 0.03}]] * 3,
}


def _bundled(name):
    return json.loads((files("ccplan") / "scenes" / name).read_text())


def load_problem(name):
    """Parse a bundled planning problem through sceneio."""
    spec = PROBLEMS[name]
    scene = sceneio.parse_scene(_bundled(spec["scene"]))
    robot = sceneio.parse_robot(_bundled(spec["robot"]))
    return planner.TrajectoryProblem(
        robot, scene.obstacles, spec["timesteps"], np.array(spec["start"]),
        np.array(spec["goal"]), spec["risk_budget"], spec["margin"])


def load_reference(name):
    """Committed reference trajectory of a planning problem."""
    data = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    return np.array(data["trajectory"], dtype=float)


# ---------------------------------------------------------------------------
# Certification inputs
# ---------------------------------------------------------------------------

def waypoint_jitters(problem, reference, seed, chunk, n):
    """Seeded jitters of every waypoint of the reference, in whole passes
    over the waypoints until there are at least ``n``, so every chunk holds
    the same mix of waypoints.

    Entries are (robot, theta, obstacles, mc_seed); mc_seed is None because
    the planning workloads check soundness on the whole reference trajectory.
    """
    rng = np.random.default_rng([seed, chunk])
    out = []
    while len(out) < n:
        for theta in reference:
            th = theta + rng.normal(0.0, JITTER, size=theta.shape)
            out.append((problem.robot, th, problem.obstacles, None))
    return out


def _random_obstacle(rng, kind, centre, radius, direction, scale):
    """A sphere, box or random polytope with a random full covariance,
    centred ``radius`` from ``centre`` along the unit ``direction``."""
    dim = len(centre)
    c = centre + radius * direction
    entry = {}
    if kind == 0:
        entry["shape"] = {"type": "sphere",
                          "radius": float(rng.uniform(0.05, 0.25))}
        entry["pose"] = {"translation": c.tolist()}
    elif kind == 1:
        entry["shape"] = {"type": "box", "halfExtents":
                          rng.uniform(0.05, 0.25, size=dim).tolist()}
        entry["pose"] = {"translation": c.tolist()}
    else:
        n_vertices = 6 if dim == 2 else 8
        vertices = c + rng.normal(size=(n_vertices, dim)) * 0.15
        entry["shape"] = {"type": "convexHull", "vertices": vertices.tolist()}
    A = rng.normal(size=(dim, dim)) * scale
    entry["covariance"] = (A @ A.T + 0.003 * np.eye(dim)).tolist()
    return {"formatVersion": 1, "dimension": dim, "obstacles": [entry]}


HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _halton(index, dims):
    """Point ``index`` (from 1) of the Halton sequence in [0, 1)^dims."""
    out = np.empty(dims)
    for d, base in enumerate(HALTON_BASES[:dims]):
        f, r, i = 1.0, 0.0, index
        while i:
            f /= base
            r += f * (i % base)
            i //= base
        out[d] = r
    return out


def _unit_vector(u):
    """Area-preserving map from [0, 1)^(dim-1) to the unit circle/sphere."""
    phi = 2.0 * math.pi * u[0]
    if len(u) == 1:
        return np.array([math.cos(phi), math.sin(phi)])
    z = 2.0 * u[1] - 1.0
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return np.array([r * math.cos(phi), r * math.sin(phi), z])


class RandomTriples:
    """Seeded random (robot, obstacle, configuration) triples.

    Triple ``i`` uses robot ``i % 3``: a planar 3-link capsule arm, the
    bundled arm4dof3d or pointbot2d. Its obstacle is a sphere, box or random
    polytope with a random full covariance, centred in an annulus (radius
    0.3 to 1.3) around the base (the shoulder for arm4dof3d), so the triples
    span the saturated, risky and nearly-safe regimes. Each triple is parsed
    afresh through sceneio, so certificates share nothing.

    The family is drawn once, from FAMILY_SEED. The parameters that decide
    a certificate's branch (obstacle kind, annulus radius, covariance scale,
    direction, configuration) follow a Halton sequence per robot under a
    random shift, so any prefix of the stream covers the family evenly;
    shape details and the covariance come from a generator seeded by
    (FAMILY_SEED, i). The workload seed jitters each configuration by
    JITTER and picks the Monte Carlo subset, so every seed certifies the
    same mix of branches, yet no input repeats. The mix matters: 3% of the
    certificates take over 50 ms and 60% of certification time, and when
    the whole family was drawn from the workload seed, its share moved
    certify_per_s by 12% and certify_ms.p99 by 15% between seeds.

    Triple ``i`` depends only on (seed, i); its obstacle alone is its scene,
    so it is one certificate.
    """

    def __init__(self, seed):
        self.seed = seed
        self.robots = [ARM3_2D, _bundled("arm4dof3d.json"),
                       _bundled("pointbot2d.json")]
        rng = np.random.default_rng([FAMILY_SEED, len(self.robots)])
        self.shifts = [rng.random(2 + doc["dimension"] + len(doc["joints"]))
                       for doc in self.robots]
        self.count = 0

    def triple(self, i):
        k = i % len(self.robots)
        shift = self.shifts[k]
        u = (_halton(i // len(self.robots) + 1, len(shift)) + shift) % 1.0
        robot = sceneio.parse_robot(self.robots[k])
        dim = robot.dim
        centre = np.zeros(dim)
        if dim == 3:
            centre[2] = 0.3          # arm4dof3d shoulder height
        doc = _random_obstacle(np.random.default_rng([FAMILY_SEED, i]),
                               kind=int(3 * u[0]), centre=centre,
                               radius=0.3 + u[1], scale=0.05 + 0.2 * u[2],
                               direction=_unit_vector(u[3:2 + dim]))
        obstacle = sceneio.parse_scene(doc).obstacles[0]
        rng = np.random.default_rng([self.seed, i])
        joints = u[2 + dim:]
        theta = -0.7 + 1.4 * joints + rng.normal(0.0, JITTER, joints.shape)
        mc_seed = i if rng.random() < 1.0 / MC_CHECK_EVERY else None
        return robot, theta, [obstacle], mc_seed

    def chunk(self, n):
        first = self.count
        self.count += n
        return [self.triple(i) for i in range(first, self.count)]


# ---------------------------------------------------------------------------
# The workload: inputs, the operation cycle, and the checks
# ---------------------------------------------------------------------------

class Workload:
    """Inputs and per-operation measurements of one workload in one process.

    ``span`` is a context-manager factory taking an operation name; the
    traced run passes the tracer's, the timed runs a no-op.
    """

    def __init__(self, name, seed, size, sample_speed=True):
        self.name = name
        self.seed = seed
        self.size = size
        self.sample_speed = sample_speed
        self.config = planner.SCOConfig()
        self.problem = load_problem(PLAN_PROBLEM[name])
        self.reference = load_reference(PLAN_PROBLEM[name])
        self.triples = (RandomTriples(seed) if name == "certify-random"
                        else None)
        self.chunk_size = size.cert_chunks[name]
        self.chunks = 0
        self.pending = self._next_chunk()
        self.reference_bound = None
        self.first_solve = None
        # Seconds at the reference speed per successful operation, by kind.
        self.times = {k: [] for k in ("solve", "blind", "ira", "mc", "cert")}
        self.certs_attempted = 0
        self.kernel_s = []      # every reference kernel time of the run
        self.objective = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _next_chunk(self):
        k = self.chunks
        self.chunks += 1
        if self.triples is not None:
            return self.triples.chunk(self.chunk_size)
        return waypoint_jitters(self.problem, self.reference, self.seed, k,
                                self.chunk_size)

    def cycle(self):
        """One round of operations. risk_blind_plan is cheap, so it runs
        six times a round to give its median more samples."""
        cert, blind = self.certify_chunk, self.blind
        return [self.solve, blind, cert, blind, self.ira, blind, cert,
                self.solve, blind, cert, blind, self.monte_carlo, blind, cert]

    def needs_certs(self):
        return self.certs_attempted < self.size.min_certs

    def _record(self, kind, elapsed, problem):
        self.attempted += 1
        if problem is None:
            self.times[kind].append(elapsed)
        else:
            self.failed += 1
            self.failures.append(f"{kind}: {problem}")

    def _timed(self, kind, fn, check, span):
        """Run ``fn`` once, time it, and record the verdict of ``check``."""
        try:
            with Stopwatch(interrupt=self.sample_speed) as watch, \
                    span("op." + kind):
                t0 = watch.cpu()
                out = fn()
                elapsed = watch.cpu() - t0
            self.kernel_s += watch.kernel_s
            elapsed *= watch.scale()
            problem = check(out)
        except Exception as exc:  # an operation that raises counts as failed
            elapsed, problem = None, f"raised {type(exc).__name__}: {exc}"
        self._record(kind, elapsed, problem)

    # -- planning ----------------------------------------------------------

    def solve(self, span):
        self._timed("solve", lambda: planner.solve(self.problem, self.config),
                    self._check_solve, span)

    def _check_solve(self, res):
        if res.status != planner.CONVERGED:
            return f"status {res.status}"
        limit = self.problem.risk_budget + self.config.tolerance
        if res.total_risk > limit:
            return f"certified risk {res.total_risk!r} exceeds {limit!r}"
        if self.first_solve is None:
            self.first_solve = res
            self.objective = res.objective
            return None
        if not (np.array_equal(res.trajectory, self.first_solve.trajectory)
                and np.array_equal(res.allocation,
                                   self.first_solve.allocation)):
            return "trajectory differs from the first solve of this run"
        return None

    def blind(self, span):
        self._timed("blind",
                    lambda: validate.risk_blind_plan(self.problem,
                                                     self.config),
                    _check_converged, span)

    def ira(self, span):
        self._timed("ira",
                    lambda: validate.ira_plan(
                        self.problem, self.config,
                        sample_count=IRA_SAMPLES, seed=IRA_SEED),
                    _check_converged, span)

    # -- validation ----------------------------------------------------------

    def monte_carlo(self, span):
        self._timed("mc",
                    lambda: validate.monte_carlo_risk(
                        self.problem.robot, self.reference,
                        self.problem.obstacles, self.size.mc_samples,
                        self.seed),
                    self._check_monte_carlo, span)

    def _check_monte_carlo(self, rep):
        if self.reference_bound is None:
            # Cold certification of the reference, as `ccplan validate` does.
            self.reference_bound = sum(
                risk.certify_risk(self.problem.robot, theta, ob,
                                  eps_tol=self.config.eps_tol).eps_prime
                for theta in self.reference for ob in self.problem.obstacles)
        limit = self.reference_bound + 3.0 * rep.standard_error
        if rep.estimate > limit:
            return (f"Monte Carlo {rep.estimate!r} exceeds certified "
                    f"{self.reference_bound!r} + 3 SE")
        return None

    # -- cold certification ------------------------------------------------

    def certify_chunk(self, span):
        out = []
        ends = []      # speed samples taken by the end of each certificate
        with Stopwatch() as watch, span("op.certify"):
            for entry in self.pending:
                out.append(self._certify(watch, *entry[:3]))
                ends.append(len(watch.kernel_s))
                if self.sample_speed:
                    watch.tick()
        self.kernel_s += watch.kernel_s
        # The seeded Monte Carlo subset runs outside the certify span.
        for (robot, theta, obstacles, mc_seed), (elapsed, problem, certs), n \
                in zip(self.pending, out, ends):
            if problem is None and mc_seed is not None:
                problem = self._check_sampled(robot, theta, obstacles,
                                              mc_seed, certs)
            if elapsed is not None:
                elapsed *= watch.scale(n - CERT_WINDOW, n + CERT_WINDOW)
            self._record("cert", elapsed, problem)
        self.pending = self._next_chunk()

    def _certify(self, watch, robot, theta, obstacles):
        """Certify one configuration against its scene, as ``ccplan
        certify`` does, timed on ``watch``. Returns (CPU seconds, problem or
        None, certs)."""
        self.certs_attempted += 1
        eps_tol = self.config.eps_tol
        out = []
        try:
            t0 = watch.cpu()
            for ob in obstacles:
                cert = risk.certify_risk(robot, theta, ob, eps_tol=eps_tol)
                grad = (None if cert.saturated
                        else risk.risk_gradient(cert, robot, theta, ob))
                out.append((cert, grad))
            elapsed = watch.cpu() - t0
        except Exception as exc:  # an operation that raises counts as failed
            return None, f"raised {type(exc).__name__}: {exc}", None
        problems = (check_certificate(c, g, eps_tol) for c, g in out)
        return (elapsed, next((p for p in problems if p), None),
                [c for c, _ in out])

    def _check_sampled(self, robot, theta, obstacles, mc_seed, certs):
        try:
            rep = validate.monte_carlo_risk(robot, [theta], obstacles,
                                            self.size.mc_check_samples,
                                            mc_seed)
        except Exception as exc:  # a failing check fails the certificate
            return f"Monte Carlo check raised {type(exc).__name__}: {exc}"
        bound = sum(c.eps_prime for c in certs)
        if rep.estimate > bound + 3.0 * rep.standard_error:
            return (f"Monte Carlo {rep.estimate!r} exceeds eps' "
                    f"{bound!r} + 3 SE")
        return None


def _check_converged(res):
    return None if res.status == planner.CONVERGED else f"status {res.status}"


def check_certificate(cert, grad, eps_tol):
    """Problem with one certificate, or None when it is well formed."""
    if cert.eps2 > cert.eps1:
        return f"eps2 {cert.eps2!r} > eps1 {cert.eps1!r}"
    if not eps_tol <= cert.eps_prime <= 1.0:
        return f"eps' {cert.eps_prime!r} outside [{eps_tol}, 1]"
    if grad is not None and not np.all(np.isfinite(grad)):
        return "gradient is not finite"
    return None


def end_to_end(workload):
    """End-to-end metrics measured by the operations of one run. A metric
    whose operations all failed is left out; the run is then incorrect."""
    t = workload.times
    cert_ms = np.asarray(t["cert"]) * 1e3
    metrics = {"plan_objective": (workload.objective, "sumsq")}
    if t["solve"]:
        metrics["plan_s"] = (float(np.median(t["solve"])), "s")
    if t["blind"]:
        metrics["plan_blind_s"] = (float(np.median(t["blind"])), "s")
    if t["ira"]:
        metrics["plan_ira_s"] = (float(np.median(t["ira"])), "s")
    if t["mc"]:
        metrics["mc_samples_per_s"] = (
            workload.size.mc_samples / float(np.median(t["mc"])), "1/s")
    if t["cert"]:
        metrics["certify_per_s"] = (len(t["cert"]) / math.fsum(t["cert"]),
                                    "1/s")
        metrics["certify_ms.p50"] = (float(np.percentile(cert_ms, 50)), "ms")
        metrics["certify_ms.p99"] = (float(np.percentile(cert_ms, 99)), "ms")
    return {k: v for k, v in metrics.items() if v[0] is not None}
