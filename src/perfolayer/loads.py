"""Volume and surface load models with cell-quadrature averaging.

Loads are scalar functions of (t, x1, x2, y1, y2, y3, z) for the three volume
components and (x1, x2, y1, y2, y3) for the interior surface tractions.  They
come either from built-in presets or from expression strings, so that runs
are reproducible from the configuration alone.  An expression is read by
Python's own parser (``ast``) and then checked against a whitelist: decimal
numerals, ``pi``, the allowed variables, unary minus, binary ``+ - * / **``
and ``sin``, ``cos``, ``exp`` of one argument.  The checked tree is evaluated
by a small interpreter; config text is never compiled or executed.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ParseError, ValidationError

_CHARS = r"[0-9A-Za-z_.+\-*/()\s]*"
_NUMERAL = r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VOLUME_VARS = ("t", "x1", "x2", "y1", "y2", "y3", "z")
_SURFACE_VARS = ("x1", "x2", "y1", "y2", "y3")


class Expression:
    """Arithmetic expression over a fixed variable set.

    Raises ParseError on a syntax error or a construct outside the language
    and ValidationError on an unknown variable."""

    def __init__(self, text: str, variables):
        self.text = text
        self.variables = tuple(variables)
        self.used = set()
        if not re.fullmatch(_CHARS, text):
            raise ParseError(f"unsupported character in expression {text!r}")
        self._source = " ".join(text.split())
        try:
            self._tree = self._check(ast.parse(self._source, mode="eval").body)
        except (SyntaxError, RecursionError) as exc:
            raise ParseError(f"cannot read expression {text!r}: {exc.args[0]}") from None

    def _check(self, node):
        """Whitelisted ``ast`` node -> tagged tuple for ``_eval``."""
        if isinstance(node, ast.Constant):
            literal = ast.get_source_segment(self._source, node)
            if re.fullmatch(_NUMERAL, literal):
                return ("num", float(literal))
        elif isinstance(node, ast.Name):
            if node.id == "pi":
                return ("num", np.pi)
            if node.id in _FUNCTIONS:
                raise ParseError(f"{node.id} needs parentheses in {self.text!r}")
            if node.id not in self.variables:
                raise ValidationError(f"unknown variable {node.id!r} "
                                      f"(allowed: {', '.join(self.variables)})")
            self.used.add(node.id)
            return ("var", node.id)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("op", operator.neg, self._check(node.operand))
        elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return ("op", _OPERATORS[type(node.op)],
                    self._check(node.left), self._check(node.right))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCTIONS and len(node.args) == 1
              and not node.keywords and not isinstance(node.args[0], ast.Starred)):
            return ("op", _FUNCTIONS[node.func.id], self._check(node.args[0]))
        segment = ast.get_source_segment(self._source, node)
        raise ParseError(f"unsupported construct {segment!r} in {self.text!r}")

    def __call__(self, **env):
        return _eval(self._tree, env)


def _eval(node, env):
    """Value of a tagged tuple: ("num", value), ("var", name) or
    ("op", function, *operands)."""
    if node[0] == "num":
        return node[1]
    if node[0] == "var":
        return env[node[1]]
    return node[1](*[_eval(arg, env) for arg in node[2:]])


@dataclass
class CellQuadrature:
    """Cell-volume and interior-surface quadrature used for load averaging."""

    vol_pts: np.ndarray
    vol_w: np.ndarray
    surf_pts: np.ndarray
    surf_w: np.ndarray
    solid_volume: float
    first_moment: float  # int_{Z^s} y3 dy

    @classmethod
    def from_cell_mesh(cls, mesh) -> "CellQuadrature":
        pts = fem.quadrature_points(mesh).reshape(-1, 3)
        w = fem.quadrature_weights(mesh).ravel()
        spts, sw = fem.surface_quadrature(mesh, mesh.gamma_faces)
        return cls(vol_pts=pts, vol_w=np.array(w), surf_pts=spts, surf_w=sw,
                   solid_volume=mesh.geometry.solid_volume,
                   first_moment=float(np.sum(w * pts[:, 2])))


class LoadModel:
    """Volume forces f^i(t, xbar, y, z) and surface tractions g^i(xbar, y).

    The scale factors of the thin-layer problem (the vertical components
    carry an extra eps) are applied by the consumers, not stored here.
    """

    def __init__(self, f, g, depends_y: bool = True, depends_z: bool = True,
                 cell_quad: CellQuadrature | None = None):
        self.f = tuple(f)
        self.g = tuple(g)
        self.f_depends_y = depends_y
        self.f_depends_z = depends_z
        self.cell_quad = cell_quad

    def with_cell_quadrature(self, cell_quad: CellQuadrature) -> "LoadModel":
        return LoadModel(self.f, self.g, self.f_depends_y, self.f_depends_z,
                         cell_quad)

    def eval_f(self, i: int, t, x1, x2, y1, y2, y3, z):
        return np.broadcast_to(
            np.asarray(self.f[i](t, x1, x2, y1, y2, y3, z), dtype=float),
            np.broadcast_shapes(np.shape(x1), np.shape(y3), np.shape(z))).copy()

    def eval_g(self, i: int, x1, x2, y1, y2, y3):
        return np.broadcast_to(
            np.asarray(self.g[i](x1, x2, y1, y2, y3), dtype=float),
            np.broadcast_shapes(np.shape(x1), np.shape(y3))).copy()

    def effective_loads(self, t: float, x1, x2, z):
        """Homogenized loads h = (h1, h2, h3) and Hbar = (H1, H2) at the
        given midsurface points and deflection values.

        h^i averages the volume force over the solid cell and subtracts the
        surface average of g^i; Hbar uses the first vertical moments.
        """
        cq = self.cell_quad
        if cq is None:
            raise ValidationError("load model lacks cell quadrature data")
        P = np.shape(x1)[0]
        h = np.zeros((3, P))
        hbar = np.zeros((2, P))
        inv = 1.0 / cq.solid_volume
        for i in range(3):
            if self.f_depends_y:
                vals = self.eval_f(i, t, np.asarray(x1)[:, None], np.asarray(x2)[:, None],
                                   cq.vol_pts[None, :, 0], cq.vol_pts[None, :, 1],
                                   cq.vol_pts[None, :, 2], np.asarray(z)[:, None])
                h[i] = inv * vals @ cq.vol_w
                if i < 2:
                    hbar[i] = inv * vals @ (cq.vol_w * cq.vol_pts[:, 2])
            else:
                vals = self.eval_f(i, t, np.asarray(x1), np.asarray(x2),
                                   0.0, 0.0, 0.0, np.asarray(z))
                h[i] = vals
                if i < 2:
                    hbar[i] = vals * (cq.first_moment * inv)
            if cq.surf_pts.shape[0]:
                gv = self.eval_g(i, np.asarray(x1)[:, None], np.asarray(x2)[:, None],
                                 cq.surf_pts[None, :, 0], cq.surf_pts[None, :, 1],
                                 cq.surf_pts[None, :, 2])
                h[i] -= inv * gv @ cq.surf_w
                if i < 2:
                    hbar[i] -= inv * gv @ (cq.surf_w * cq.surf_pts[:, 2])
        return h, hbar


def _const(c):
    return lambda *args: np.asarray(c, dtype=float)


ZERO3_F = tuple(_const(0.0) for _ in range(3))
ZERO3_G = tuple(_const(0.0) for _ in range(3))


def preset_load_model(name: str, params=None) -> LoadModel:
    """Built-in load presets (all reproducible without expression strings)."""
    params = dict(params or {})
    if name == "zero":
        return LoadModel(ZERO3_F, ZERO3_G, depends_y=False, depends_z=False)
    if name == "uniform_vertical":
        amp = float(params.pop("amplitude", 1.0))
        f = (_const(0.0), _const(0.0), lambda t, x1, x2, y1, y2, y3, z: amp * np.ones_like(np.asarray(x1, dtype=float)))
        return LoadModel(f, ZERO3_G, depends_y=False, depends_z=False)
    if name in ("smooth", "linear"):
        # both are smooth in-plane/vertical sines with a C^4 time ramp; the
        # ramp keeps the fast micro modes adiabatic so that their ringing
        # vanishes with eps.  "smooth" ramps fast enough that the velocity
        # maxima crest within short observation windows; "linear" ramps more
        # slowly, which makes the scaled micro-macro distances decrease
        # cleanly with eps (the model is linear: no z dependence).
        defaults = {"smooth": (0.3, 0.15), "linear": (0.15, 0.3)}
        a = float(params.pop("inplane", defaults[name][0]))
        t_ramp = float(params.pop("t_ramp", defaults[name][1]))
        b = float(params.pop("vertical", 1.0))

        def ramp(t):
            s = np.clip(t / t_ramp, 0.0, 1.0)
            return s**5 * (126.0 + s * (-420.0 + s * (540.0 + s * (-315.0 + 70.0 * s))))

        def f1(t, x1, x2, y1, y2, y3, z):
            return a * ramp(t) * np.sin(np.pi * x1) * np.cos(np.pi * x2)

        def f3(t, x1, x2, y1, y2, y3, z):
            return b * ramp(t) * np.sin(np.pi * x1) * np.sin(np.pi * x2)

        return LoadModel((f1, _const(0.0), f3), ZERO3_G, depends_y=False,
                         depends_z=False)
    if name == "linear_z":
        slope = float(params.pop("slope", 0.2))

        def f3(t, x1, x2, y1, y2, y3, z):
            return 1.0 + slope * z

        return LoadModel((_const(0.0), _const(0.0), f3), ZERO3_G,
                         depends_y=False, depends_z=True)
    if name == "pulse":
        t0 = float(params.pop("t0", 0.1))
        amp = float(params.pop("amplitude", 1.0))

        def f3(t, x1, x2, y1, y2, y3, z):
            on = amp if t < t0 else 0.0
            return on * np.ones_like(np.asarray(x1, dtype=float))

        return LoadModel((_const(0.0), _const(0.0), f3), ZERO3_G,
                         depends_y=False, depends_z=False)
    if name == "surface_pressure":
        amp = float(params.pop("amplitude", 1.0))
        g = (_const(0.0), _const(0.0), _const(amp))
        return LoadModel(ZERO3_F, g, depends_y=False, depends_z=False)
    raise ValidationError(f"unknown load preset {name!r}", key="loads.preset")


def expression_load_model(exprs: dict) -> LoadModel:
    """Load model from expression strings f1, f2, f3, g1, g2, g3."""
    f = []
    depends_y = False
    depends_z = False
    for key in ("f1", "f2", "f3"):
        expr = Expression(str(exprs.get(key, "0")), _VOLUME_VARS)
        depends_y |= bool(expr.used & {"y1", "y2", "y3"})
        depends_z |= "z" in expr.used

        def make(e):
            return lambda t, x1, x2, y1, y2, y3, z: e(
                t=t, x1=x1, x2=x2, y1=y1, y2=y2, y3=y3, z=z)

        f.append(make(expr))
    g = []
    for key in ("g1", "g2", "g3"):
        expr = Expression(str(exprs.get(key, "0")), _SURFACE_VARS)

        def make_g(e):
            return lambda x1, x2, y1, y2, y3: e(x1=x1, x2=x2, y1=y1, y2=y2, y3=y3)

        g.append(make_g(expr))
    return LoadModel(tuple(f), tuple(g), depends_y=depends_y, depends_z=depends_z)
