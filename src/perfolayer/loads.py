"""Volume and surface load models with cell-quadrature averaging.

Loads are scalar functions of (t, x1, x2, y1, y2, y3, z) for the three volume
components and (x1, x2, y1, y2, y3) for the interior surface tractions.  Every
load is a set of expression strings, so that runs are reproducible from the
configuration alone; a built-in preset is a row of ``PRESETS``, whose texts
take its parameter values in ``{name}`` slots.  An expression is read by
Python's own parser (``ast``) and then checked against a whitelist: decimal
numerals, ``pi``, the allowed variables, unary minus, binary ``+ - * / **``,
``sin``, ``cos``, ``exp`` and ``step`` of one argument and ``min``, ``max`` of
two.  The checked tree is evaluated by a small interpreter; config text is
never compiled or executed.
"""

from __future__ import annotations

import ast
import copy
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ParseError, ValidationError

_CHARS = r"[0-9A-Za-z_.+\-*/(),\s]*"
_NUMERAL = r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}

# name -> (function, number of arguments); step(x) is 1 for x > 0, else 0
_FUNCTIONS = {"sin": (np.sin, 1), "cos": (np.cos, 1), "exp": (np.exp, 1),
              "step": (lambda x: np.heaviside(x, 0.0), 1),
              "min": (np.minimum, 2), "max": (np.maximum, 2)}
_VOLUME_VARS = ("t", "x1", "x2", "y1", "y2", "y3", "z")
_SURFACE_VARS = ("x1", "x2", "y1", "y2", "y3")
_COMPONENTS = ("f1", "f2", "f3", "g1", "g2", "g3")


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
              and node.func.id in _FUNCTIONS and not node.keywords
              and len(node.args) == _FUNCTIONS[node.func.id][1]
              and not any(isinstance(arg, ast.Starred) for arg in node.args)):
            return ("op", _FUNCTIONS[node.func.id][0],
                    *[self._check(arg) for arg in node.args])
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


def _broadcast(values, *args) -> np.ndarray:
    """Expression values as a new float array of the broadcast shape of ``args``."""
    return np.broadcast_to(np.asarray(values, dtype=float),
                           np.broadcast_shapes(*map(np.shape, args))).copy()


def _component(texts, key: str, variables) -> Expression:
    """The expression of one load component (0 when missing); an error in
    its text names the component."""
    try:
        return Expression(str(texts.get(key, "0")), variables)
    except (ParseError, ValidationError) as exc:
        raise ValidationError(str(exc), key=f"loads.expressions.{key}") from None


class LoadModel:
    """Volume forces f^i(t, xbar, y, z) and surface tractions g^i(xbar, y),
    read from expression texts keyed f1, f2, f3, g1, g2, g3 (a missing one
    is 0).

    The scale factors of the thin-layer problem (the vertical components
    carry an extra eps) are applied by the consumers, not stored here.
    """

    def __init__(self, texts):
        if not isinstance(texts, dict):
            raise ValidationError("expected a mapping of load components to "
                                  "expressions", key="loads.expressions")
        for key in texts:
            if key not in _COMPONENTS:
                raise ValidationError("unknown load component (allowed: "
                                      f"{', '.join(_COMPONENTS)})",
                                      key=f"loads.expressions.{key}")
        self.f = tuple(_component(texts, key, _VOLUME_VARS) for key in _COMPONENTS[:3])
        self.g = tuple(_component(texts, key, _SURFACE_VARS) for key in _COMPONENTS[3:])
        used = set().union(*(e.used for e in self.f))
        self.f_depends_y = not used.isdisjoint({"y1", "y2", "y3"})
        self.f_depends_z = "z" in used
        self.cell_quad = None

    def with_cell_quadrature(self, cell_quad: CellQuadrature) -> "LoadModel":
        model = copy.copy(self)
        model.cell_quad = cell_quad
        return model

    def eval_f(self, i: int, t, x1, x2, y1, y2, y3, z):
        return _broadcast(self.f[i](t=t, x1=x1, x2=x2, y1=y1, y2=y2, y3=y3, z=z),
                          x1, y3, z)

    def eval_g(self, i: int, x1, x2, y1, y2, y3):
        return _broadcast(self.g[i](x1=x1, x2=x2, y1=y1, y2=y2, y3=y3), x1, y3)

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


# s = t / t_ramp clipped to [0, 1] and the C^4 ramp 126 s^5 - 420 s^6 + 540 s^7
# - 315 s^8 + 70 s^9 in Horner form, which rises from 0 to 1 over [0, t_ramp]
_S = "min(max(t / {t_ramp}, 0.0), 1.0)"
_RAMP = ("{s}**5 * (126.0 + {s} * (-420.0 + {s} * (540.0 + {s} * (-315.0 + 70.0 * {s}))))"
         .replace("{s}", _S))
_SINES = {"f1": "{inplane} * (" + _RAMP + ") * sin(pi * x1) * cos(pi * x2)",
          "f3": "{vertical} * (" + _RAMP + ") * sin(pi * x1) * sin(pi * x2)"}

# name -> (parameter defaults, expression texts with {parameter} slots).
# "smooth" and "linear" are smooth in-plane/vertical sines with a C^4 time
# ramp; the ramp keeps the fast micro modes adiabatic so that their ringing
# vanishes with eps.  "smooth" ramps fast enough that the velocity maxima
# crest within short observation windows; "linear" ramps more slowly, which
# makes the scaled micro-macro distances decrease cleanly with eps (the model
# is linear: no z dependence).
PRESETS = {
    "zero": ({}, {}),
    "uniform_vertical": ({"amplitude": 1.0}, {"f3": "{amplitude}"}),
    "smooth": ({"inplane": 0.3, "t_ramp": 0.15, "vertical": 1.0}, _SINES),
    "linear": ({"inplane": 0.15, "t_ramp": 0.3, "vertical": 1.0}, _SINES),
    "linear_z": ({"slope": 0.2}, {"f3": "1.0 + {slope} * z"}),
    "pulse": ({"t0": 0.1, "amplitude": 1.0}, {"f3": "{amplitude} * step({t0} - t)"}),
    "surface_pressure": ({"amplitude": 1.0}, {"g3": "{amplitude}"}),
}


def _plain_number(value) -> bool:
    """A finite int or float, not a bool (YAML's true and false, ints to Python)."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        return False


def preset_load_model(name: str, params=None) -> LoadModel:
    """Load model of the preset ``name`` with the given parameter values in
    place of its defaults."""
    if name not in PRESETS:
        raise ValidationError(f"unknown load preset {name!r}", key="loads.preset")
    defaults, texts = PRESETS[name]
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValidationError("expected a mapping of preset parameters",
                              key="loads.params")
    values = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise ValidationError(f"unknown parameter of preset {name!r} (allowed: "
                                  f"{', '.join(defaults) or 'none'})",
                                  key=f"loads.params.{key}")
        if not _plain_number(value):
            raise ValidationError("must be a finite number", key=f"loads.params.{key}")
        values[key] = value
    if not values.get("t_ramp", 1.0) > 0:
        raise ValidationError("must be positive", key="loads.params.t_ramp")
    # parenthesised, so that a negative value stays whole under **
    slots = {key: f"({float(value)!r})" for key, value in values.items()}
    return LoadModel({key: text.format(**slots) for key, text in texts.items()})
