"""Standalone SVG overhead plots of planned trajectories.

2D scenes render directly; 3D scenes render an axis-aligned top-down
projection (the xy marginal, which is exact for both convex geometry
vertices and Gaussian uncertainty ellipses). Output is plain hand-assembled
SVG so plots need no plotting dependency to view.
"""

import math

import numpy as np

from .geometry import Boundary
from .kinematics import forward_kinematics, posed_link_shapes

PLOT_SIZE = 640          # pixel width and height of the square canvas
ELLIPSE_POINTS = 64      # polyline resolution for uncertainty ellipses
SIGMA_LEVELS = (1, 2, 3)

_STYLE = {
    "obstacle": 'fill="#b91c1c" fill-opacity="0.55" stroke="#7f1d1d"',
    "ellipse": 'fill="none" stroke="#b91c1c" stroke-opacity="{op}"',
    "path": 'fill="none" stroke="#1d4ed8" stroke-width="{w}"',
    "waypoint": 'fill="#1d4ed8"',
    "endpoint": 'fill="#15803d"',
}


def _xy(points):
    """Top-down projection: drop coordinates beyond the first two."""
    return np.atleast_2d(np.asarray(points, dtype=float))[:, :2]


def _hull_order(points):
    """Boundary vertices of the 2D point cloud in drawing order."""
    if len(points) <= 2:
        return points
    hull = Boundary(points).hull
    if hull is not None:
        return points[hull.vertices]
    # Degenerate (collinear) cloud: order along the spread direction.
    c = points.mean(axis=0)
    d = points - c
    u = d[np.argmax(np.linalg.norm(d, axis=1))]
    return points[np.argsort(d @ u)]


def _ellipse_boundary(center, sigma, k):
    """The k-sigma level set of the projected Gaussian, as a polyline."""
    L = np.linalg.cholesky(np.asarray(sigma, dtype=float)[:2, :2])
    ang = np.linspace(0.0, 2.0 * math.pi, ELLIPSE_POINTS, endpoint=False)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return center[:2] + k * ring @ L.T


class _Canvas:
    """Collects world-space primitives, then scales them into one viewBox."""

    def __init__(self):
        self.elements = []
        self.points = []

    def _track(self, pts):
        self.points.extend(np.atleast_2d(pts))

    def polygon(self, pts, style, stroke_width=0.0, closed=True):
        self._track(pts)
        self.elements.append(("poly", np.asarray(pts, float), style,
                              stroke_width, closed))

    def circle(self, center, radius, style):
        c = np.asarray(center, float)
        self._track(c + np.array([[radius, radius], [-radius, -radius]]))
        self.elements.append(("circle", c, radius, style))

    def dot(self, center, style):
        self._track(center)
        self.elements.append(("dot", np.asarray(center, float), style))

    def render(self):
        pts = np.atleast_2d(np.array(self.points))
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = float(max((hi - lo).max(), 1e-6))
        pad = 0.08 * span
        lo, hi, span = lo - pad, hi + pad, span + 2 * pad
        scale = PLOT_SIZE / span
        # Center the shorter axis inside the square canvas.
        offset = (PLOT_SIZE - (hi - lo) * scale) / 2.0

        def tx(p):
            # Flip y: world y up, SVG y down.
            x = offset[0] + (p[..., 0] - lo[0]) * scale
            y = PLOT_SIZE - offset[1] - (p[..., 1] - lo[1]) * scale
            return x, y

        dot_r = 0.006 * PLOT_SIZE
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{PLOT_SIZE}" '
            f'height="{PLOT_SIZE}" viewBox="0 0 {PLOT_SIZE} {PLOT_SIZE}">',
            f'<rect width="{PLOT_SIZE}" height="{PLOT_SIZE}" fill="#ffffff"/>'
        ]
        for el in self.elements:
            if el[0] == "poly":
                _, p, style, sw, closed = el
                x, y = tx(p)
                coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x, y))
                tag = "polygon" if closed else "polyline"
                extra = ""
                if sw > 0.0:
                    extra = (f' stroke-width="{sw * scale:.2f}"'
                             ' stroke-linejoin="round"')
                out.append(f'<{tag} points="{coords}" {style}{extra}/>')
            elif el[0] == "circle":
                _, c, r, style = el
                x, y = tx(c)
                out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" '
                           f'r="{max(r * scale, 1.0):.2f}" {style}/>')
            else:
                _, c, style = el
                x, y = tx(c)
                out.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" '
                           f'r="{dot_r:.2f}" {style}/>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


def _draw_body(canvas, body, style):
    r = body.radius
    V = _hull_order(_xy(body.vertices))
    if len(V) == 1:
        canvas.circle(V[0], max(r, 1e-3), style)
    else:
        canvas.polygon(V, style, stroke_width=max(2 * r, 1e-3))


def _link_trace(robot, trajectory):
    """Workspace trace of every collision-shape center along the path."""
    traces = None
    for theta in trajectory:
        poses = forward_kinematics(robot, theta)
        centers = [body.center()
                   for _, body in posed_link_shapes(robot, poses)]
        if traces is None:
            traces = [[] for _ in centers]
        for trace, c in zip(traces, centers):
            trace.append(c)
    return [np.array(t) for t in (traces or [])]


def plan_svg(robot, trajectory, obstacles):
    """Overhead SVG of a joint-space trajectory against uncertain obstacles.

    Draws nominal obstacle geometry, 1/2/3-sigma uncertainty ellipses
    around each obstacle's center, and the workspace trace of each robot
    collision shape with waypoint markers.
    """
    canvas = _Canvas()
    for ob in obstacles:
        center = ob.nominal.center()
        for k in reversed(SIGMA_LEVELS):
            style = _STYLE["ellipse"].format(op=0.9 - 0.25 * (k - 1))
            canvas.polygon(_ellipse_boundary(center, ob.covariance, k),
                           style)
        _draw_body(canvas, ob.nominal, _STYLE["obstacle"])
    for trace in _link_trace(robot, np.atleast_2d(trajectory)):
        pts = _xy(trace)
        canvas.polygon(pts, _STYLE["path"].format(w=2), closed=False)
        for p in pts[1:-1]:
            canvas.dot(p, _STYLE["waypoint"])
        canvas.dot(pts[0], _STYLE["endpoint"])
        canvas.dot(pts[-1], _STYLE["endpoint"])
    return canvas.render()
