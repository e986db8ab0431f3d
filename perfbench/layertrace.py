"""Outside-in layer trace of ccplan for the benchmark's traced run.

The tracer replaces each public layer function listed in ``LAYER_FUNCTIONS``
with a wrapper at every ccplan module that holds it: the defining module and
each module that imported it by name (``from .qp import solve_qp``). Import
sites are found by object identity, so a new import site of a listed
function is wrapped without a change here. Only public names are wrapped, so
renaming a private helper cannot break the trace.

A span (name, start, end, parent) is held in memory for every wrapped call
made inside a benchmark operation span (``op.*``) or the set-up span; spans
are written out by ``dump``. A span's self time is its duration minus the
durations of its child spans.
"""

import contextlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# (module, public function) pairs that bound the measured layers.
LAYER_FUNCTIONS = [
    ("sceneio", "parse_scene"),
    ("sceneio", "parse_robot"),
    ("kinematics", "forward_kinematics"),
    ("kinematics", "point_jacobian"),
    ("geometry", "distance"),
    ("geometry", "intersects"),
    ("geometry", "mahalanobis_contact"),
    ("risk", "certify_risk"),
    ("risk", "risk_gradient"),
    ("qp", "solve_qp"),
    ("planner", "solve"),
    ("planner", "evaluate_constraints"),
    ("planner", "convexify"),
    ("validate", "monte_carlo_risk"),
    ("validate", "ira_plan"),
]

# Certificate provenance, in the order certify_risk decides it.
BRANCHES = ("saturated", "floored", "floored2", "second_contact")


def branch(cert):
    """Which branch of certify_risk produced a certificate."""
    if cert.saturated:
        return "saturated"
    if cert.floored:
        return "floored"
    if cert.floored2:
        return "floored2"
    return "second_contact"


def _report_branches(report):
    return Counter(branch(c) for row in report.certificates for c in row)


def _mc_pair_tests(fn):
    """Base of ns_per_pair_test: samples x timesteps x link shapes x
    obstacles of one monte_carlo_risk call."""
    signature = inspect.signature(fn)

    def base(args, kwargs, report):
        a = signature.bind(*args, **kwargs).arguments
        shapes = sum(len(s) for s in a["robot"].link_shapes)
        steps = len(a["trajectory"])
        return report.sample_count * steps * shapes * len(a["obstacles"])
    return base


# Per-call facts read from a layer function's arguments or result.
def _facts(name, fn):
    if name == "qp.solve_qp":
        return lambda args, kwargs, sol: sol.iterations
    if name == "planner.solve":
        return lambda args, kwargs, res: len(res.iterations)
    if name == "planner.evaluate_constraints":
        return lambda args, kwargs, rep: _report_branches(rep)
    if name == "risk.certify_risk":
        return lambda args, kwargs, cert: branch(cert)
    if name == "validate.monte_carlo_risk":
        return _mc_pair_tests(fn)
    return None


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, fact]
        self._stack = []
        self._patched = []   # (module, attribute, original)

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Root span around one benchmark operation or the set-up."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        facts = _facts(name, fn)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if facts is not None:
                rec[4] = facts(args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every listed function at every ccplan module holding it.
        Returns the number of import sites wrapped."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ccplan" or n.startswith("ccplan.")]
        for home, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules["ccplan." + home], attr)
            wrapper = self._wrap(f"{home}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return len(self._patched)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[n, s, e, p] for n, s, e, p, _ in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end",
                                               "parent"], "spans": rows}))

    # -- derived metrics ----------------------------------------------------

    def metrics(self, trace_overhead_s):
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]

        def under(i, name):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        # Certificates: every one an evaluate_constraints report holds (far-
        # pair shortcuts included) plus every cold certify_risk call.
        branches = Counter()
        eval_pairs = 0
        nested_certify = 0
        cold_certify = 0
        half_probes = 0
        fact_sum = Counter()
        for i, (name, _, _, _, fact) in enumerate(spans):
            if name == "planner.evaluate_constraints" and fact is not None:
                branches.update(fact)
                eval_pairs += sum(fact.values())
            elif name == "risk.certify_risk":
                if under(i, "planner.evaluate_constraints"):
                    nested_certify += 1
                else:
                    cold_certify += 1
                    branches[fact] += 1
            elif name == "geometry.intersects" and under(i,
                                                         "risk.certify_risk"):
                half_probes += 1
            elif fact is not None:
                fact_sum[name] += fact
        pairs = eval_pairs + cold_certify
        full = branches["floored2"] + branches["second_contact"]
        mc_tests = fact_sum["validate.monte_carlo_risk"]

        out = {}
        for name in ("qp.solve_qp", "geometry.mahalanobis_contact",
                     "geometry.intersects", "geometry.distance",
                     "kinematics.forward_kinematics",
                     "kinematics.point_jacobian", "risk.certify_risk",
                     "risk.risk_gradient", "planner.evaluate_constraints",
                     "planner.convexify"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        out["qp.iterations"] = (fact_sum["qp.solve_qp"], "count")
        out["risk.half_probes_per_cert"] = (
            half_probes / max(calls["risk.certify_risk"], 1), "ratio")
        out["risk.full_search_ratio"] = (full / max(pairs, 1), "ratio")
        for b in BRANCHES:
            out[f"risk.branch.{b}"] = (branches[b], "count")
        out["risk.branch.far_pair"] = (eval_pairs - nested_certify, "count")
        out["planner.sco_iterations"] = (fact_sum["planner.solve"], "count")
        out["planner.solve.self_s"] = (self_s["planner.solve"], "s")
        out["validate.monte_carlo_risk.self_s"] = (
            self_s["validate.monte_carlo_risk"], "s")
        out["validate.ns_per_pair_test"] = (
            1e9 * self_s["validate.monte_carlo_risk"] / max(mc_tests, 1),
            "ns")
        out["validate.ira_plan.self_s"] = (self_s["validate.ira_plan"], "s")
        out["sceneio.parse.self_s"] = (
            self_s["sceneio.parse_scene"] + self_s["sceneio.parse_robot"],
            "s")
        out["unattributed_s"] = (
            sum(v for k, v in self_s.items() if k.startswith("op.")), "s")
        out["trace_overhead_s"] = (trace_overhead_s, "s")
        return out
