"""Configuration ingestion and validation.

A run is described by one human-editable YAML document (a key-value tree).
Unknown keys are rejected, defaults are filled in and echoed back, and the
echoed document reloads to an identical configuration.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import (DisconnectedSolid, EmptySolid, ParseError, PeriodicMismatch,
                     ResolutionIncompatible, ValidationError)
from .fem import ElasticityTensor4
from .geometry import build_cell_geometry, channel_mask
from .loads import expression_load_model, preset_load_model

_DEFAULTS = {
    "geometry": {
        "type": "box",
        "hole": [[0.25, 0.75], [0.25, 0.75], [-0.5, 0.5]],
        "width": [0.25, 0.75],
        "height": [-0.5, 0.5],
        "axis": 1,
        "mask": None,
    },
    "material": {
        "lambda": 1.0,
        "mu": 1.0,
    },
    "epsilons": [0.5, 0.25, 0.125],
    "sigma": [[0.0, 1.0], [0.0, 1.0]],
    "resolutions": {
        "m": 4,
        "n": 4,
        "n_sigma": 8,
    },
    "time": {
        "dt": "eps/8",
        "t_end": 0.5,
        "beta": 0.25,
        "gamma": 0.5,
    },
    "tolerances": {
        "linear": 1e-10,
        "eigen": 1e-4,
        "picard": 1e-10,
        "picard_max": 30,
    },
    "loads": {
        "preset": "smooth",
        "params": {},
        "expressions": None,
        "lipschitz": 0.0,
    },
    "output_dir": "out",
    "probes": [[0.5, 0.5]],
}


@dataclass
class SimConfig:
    """Validated run parameters with defaults applied."""

    tree: dict = field(default_factory=lambda: copy.deepcopy(_DEFAULTS))

    # --- accessors ---------------------------------------------------------
    @property
    def epsilons(self):
        return list(self.tree["epsilons"])

    @property
    def sigma(self):
        s = self.tree["sigma"]
        return ((s[0][0], s[0][1]), (s[1][0], s[1][1]))

    @property
    def resolutions(self):
        r = self.tree["resolutions"]
        return r["m"], r["n"], r["n_sigma"]

    @property
    def output_dir(self):
        return self.tree["output_dir"]

    @property
    def probes(self):
        return [tuple(p) for p in self.tree["probes"]]

    def dt_for(self, eps: float) -> float:
        rule = self.tree["time"]["dt"]
        if isinstance(rule, str):
            k = int(rule.split("/")[1])
            return eps / k
        return float(rule)

    def macro_dt(self) -> float:
        return min(self.dt_for(e) for e in self.epsilons)

    @property
    def t_end(self):
        return float(self.tree["time"]["t_end"])

    @property
    def newmark(self):
        t = self.tree["time"]
        return float(t["beta"]), float(t["gamma"])

    @property
    def tolerances(self):
        t = self.tree["tolerances"]
        return {
            "linear": float(t["linear"]),
            "eigen": float(t["eigen"]),
            "picard": float(t["picard"]),
            "picard_max": int(t["picard_max"]),
        }

    # --- builders ----------------------------------------------------------
    def build_geometry(self):
        g = self.tree["geometry"]
        m = int(self.tree["resolutions"]["m"])
        if g["type"] == "full":
            return build_cell_geometry("full", m=m)
        if g["type"] == "box":
            (x0, x1), (y0, y1), (z0, z1) = g["hole"]
            return build_cell_geometry(("box", ((x0, x1), (y0, y1), (z0, z1))), m=m)
        if g["type"] == "channel":
            return build_cell_geometry(
                channel_mask(m, tuple(g["width"]), tuple(g["height"]), int(g["axis"])))
        if g["type"] == "mask":
            return build_cell_geometry(np.asarray(g["mask"], dtype=bool))
        raise ValidationError(f"unknown geometry type {g['type']!r}", key="geometry.type")

    def material_tensor(self) -> ElasticityTensor4:
        m = self.tree["material"]
        if "components" in m and m.get("components") is not None:
            return ElasticityTensor4(np.asarray(m["components"], dtype=float))
        return ElasticityTensor4.isotropic(float(m["lambda"]), float(m["mu"]))

    def build_loads(self):
        l = self.tree["loads"]
        if l.get("expressions"):
            return expression_load_model(l["expressions"], float(l["lipschitz"]))
        return preset_load_model(l["preset"], l.get("params"))

    def echo(self) -> dict:
        return copy.deepcopy(self.tree)

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            yaml.safe_dump(self.echo(), f, sort_keys=True)


def _merge(defaults, given, path=""):
    """Overlay the user tree on the defaults, rejecting unknown keys."""
    if not isinstance(given, dict):
        raise ValidationError("expected a mapping", key=path or "<root>")
    out = copy.deepcopy(defaults)
    for key, value in given.items():
        dotted = f"{path}.{key}" if path else str(key)
        if key not in defaults:
            raise ValidationError("unknown key", key=dotted)
        if isinstance(defaults[key], dict) and key not in ("params",):
            if value is None:
                continue
            out[key] = _merge(defaults[key], value, dotted)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _positive(tree, dotted, integer=False):
    node = tree
    for part in dotted.split("."):
        node = node[part]
    kind = int if integer else (int, float)
    if isinstance(node, bool) or not (isinstance(node, kind) and node > 0):
        raise ValidationError(
            f"must be a positive {'integer' if integer else 'number'}", key=dotted)


def _check_time_grid(cfg: SimConfig):
    """Every eps must reach t_end in a whole number of steps, and its step
    must be a whole number of macro steps, so plate and micro states align."""
    macro = cfg.macro_dt()
    for e in cfg.epsilons:
        dt = cfg.dt_for(e)
        for ratio, what in ((cfg.t_end / dt, "t_end"), (dt / macro, "the macro dt")):
            if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
                raise ValidationError(
                    f"dt {dt:g} at eps {e:g} does not fit {what}: ratio {ratio:g} "
                    "is not an integer", key="time.dt")


def _interval(value, lo: float, hi: float, key: str):
    """Check a pair [a, b] of numbers with lo < a < b < hi."""
    ok = (isinstance(value, (list, tuple)) and len(value) == 2
          and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in value))
    if not (ok and lo < value[0] < value[1] < hi):
        raise ValidationError(f"expected [a, b] with {lo:g} < a < b < {hi:g}",
                              key=key)


def _check_geometry(g: dict):
    """Bounds of the box hole and of the channel, which must lie strictly
    inside the cell (0, 1)^2 x (-1, 1)."""
    if g["type"] == "box":
        hole = g["hole"]
        if not (isinstance(hole, (list, tuple)) and len(hole) == 3):
            raise ValidationError("expected [[x0, x1], [y0, y1], [z0, z1]]",
                                  key="geometry.hole")
        for k, (pair, lo) in enumerate(zip(hole, (0.0, 0.0, -1.0))):
            _interval(pair, lo, 1.0, f"geometry.hole[{k}]")
    elif g["type"] == "channel":
        if g["axis"] not in (0, 1) or isinstance(g["axis"], bool):
            raise ValidationError("channel axis must be 0 or 1", key="geometry.axis")
        _interval(g["width"], 0.0, 1.0, "geometry.width")
        _interval(g["height"], -1.0, 1.0, "geometry.height")


def validate_tree(tree: dict) -> dict:
    merged = _merge(_DEFAULTS, tree)

    eps = merged["epsilons"]
    if not isinstance(eps, list) or not eps:
        raise ValidationError("must be a nonempty list", key="epsilons")
    for e in eps:
        if not (isinstance(e, (int, float)) and e > 0):
            raise ValidationError("epsilon must be positive", key="epsilons")
        inv = 1.0 / float(e)
        if abs(inv - round(inv)) > 1e-9:
            raise ValidationError(
                f"epsilon not reciprocal integer: {e}", key="epsilons")

    sig = merged["sigma"]
    try:
        corners = [float(v) for pair in sig for v in pair]
    except (TypeError, ValueError):
        raise ValidationError("expected [[a1, b1], [a2, b2]]", key="sigma")
    if any(not float(v).is_integer() for v in corners):
        raise ValidationError("corners must be integers", key="sigma")
    if not (sig[0][0] < sig[0][1] and sig[1][0] < sig[1][1]):
        raise ValidationError("empty extent", key="sigma")

    for keypath in ("resolutions.m", "resolutions.n", "resolutions.n_sigma",
                    "tolerances.picard_max"):
        _positive(merged, keypath, integer=True)
    for keypath in ("time.t_end", "time.beta", "time.gamma", "tolerances.linear",
                    "tolerances.eigen", "tolerances.picard"):
        _positive(merged, keypath)

    dt = merged["time"]["dt"]
    if isinstance(dt, str):
        parts = dt.split("/")
        if len(parts) != 2 or parts[0] != "eps" or not parts[1].isdigit() or int(parts[1]) <= 0:
            raise ValidationError(f"bad dt rule {dt!r} (use a number or 'eps/K')",
                                  key="time.dt")
    elif not (isinstance(dt, (int, float)) and dt > 0):
        raise ValidationError("dt must be positive", key="time.dt")

    _check_time_grid(SimConfig(merged))

    g = merged["geometry"]
    if g["type"] not in ("full", "box", "channel", "mask"):
        raise ValidationError(f"unknown geometry type {g['type']!r}",
                              key="geometry.type")
    if g["type"] == "mask" and g.get("mask") is None:
        raise ValidationError("mask geometry needs 'mask'", key="geometry.mask")
    _check_geometry(g)
    try:
        geom = SimConfig(merged).build_geometry()
    except (ResolutionIncompatible, EmptySolid, PeriodicMismatch, DisconnectedSolid,
            ValueError) as exc:
        raise ValidationError(str(exc), key="geometry") from exc
    if merged["resolutions"]["n"] % geom.resolution:
        raise ValidationError(
            f"must be an integer multiple of the geometry resolution {geom.resolution}",
            key="resolutions.n")

    try:
        SimConfig(merged).material_tensor()
    except (TypeError, ValueError) as exc:  # non-numeric or not coercive
        raise ValidationError(str(exc), key="material") from exc

    loads = merged["loads"]
    if loads.get("expressions") is None and not isinstance(loads.get("preset"), str):
        raise ValidationError("needs 'preset' or 'expressions'", key="loads")

    probes = merged["probes"]
    if not isinstance(probes, list) or any(len(p) != 2 for p in probes):
        raise ValidationError("expected a list of [x, y] points", key="probes")

    # constructing the load model validates expressions and preset names
    SimConfig(merged).build_loads()
    return merged


def load_config(path) -> SimConfig:
    """Read and validate a configuration document."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.safe_load(f)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        raise ParseError(str(exc.problem or exc),
                         line=None if mark is None else mark.line + 1,
                         column=None if mark is None else mark.column + 1) from exc
    except yaml.YAMLError as exc:
        raise ParseError(str(exc)) from exc
    if raw is None:
        raw = {}
    return SimConfig(validate_tree(raw))
