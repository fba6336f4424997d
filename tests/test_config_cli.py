import json
import os
from pathlib import Path

import numpy as np
import pytest

from perfolayer.cli import run_command
from perfolayer.config import SimConfig, load_config, validate_tree
from perfolayer.errors import ParseError, ValidationError
from perfolayer.loads import Expression, preset_load_model


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def test_expression_evaluation():
    e = Expression("sin(pi*x1)*y3 + z**2/2 - cos(t)", ("t", "x1", "y3", "z"))
    x1 = np.array([0.5, 0.25])
    got = e(t=0.3, x1=x1, y3=2.0, z=1.0)
    want = np.sin(np.pi * x1) * 2.0 + 0.5 - np.cos(0.3)
    assert np.allclose(got, want)
    assert e.used == {"t", "x1", "y3", "z"}


def test_expression_unary_and_powers():
    e = Expression("-x1**2 + exp(0)", ("x1",))
    assert e(x1=3.0) == pytest.approx(-9.0 + 1.0)


def test_expression_unknown_variable():
    with pytest.raises(ValidationError):
        Expression("q + 1", ("x1",))


def test_expression_parse_errors():
    with pytest.raises(ParseError):
        Expression("1 +* 2", ("x1",))
    with pytest.raises(ParseError):
        Expression("sin 3", ("x1",))
    with pytest.raises(ParseError):
        Expression("(1 + 2", ("x1",))
    with pytest.raises(ParseError):
        Expression("1 2", ("x1",))


_VOL = ("t", "x1", "x2", "y1", "y2", "y3", "z")
_SURF = ("x1", "x2", "y1", "y2", "y3")
_ENV = dict(zip(_VOL, [0.3] + [np.linspace(0.1, 0.9, 5) + 0.01 * k for k in range(5)]
                + [np.linspace(-1.0, 1.0, 5)]))

# (text, the same expression in numpy with float literals, variables used);
# every case is read over the volume variables unless it names no volume-only
# variable, in which case the surface set is tried too
EXPRESSIONS_ACCEPTED = [
    ("0", lambda t, x1, x2, y1, y2, y3, z: 0.0, set()),
    ("1.5e-3", lambda t, x1, x2, y1, y2, y3, z: 1.5e-3, set()),
    (".5", lambda t, x1, x2, y1, y2, y3, z: 0.5, set()),
    ("2.", lambda t, x1, x2, y1, y2, y3, z: 2.0, set()),
    ("1E2", lambda t, x1, x2, y1, y2, y3, z: 100.0, set()),
    ("00", lambda t, x1, x2, y1, y2, y3, z: 0.0, set()),
    ("3.0e+2*y1", lambda t, x1, x2, y1, y2, y3, z: 300.0 * y1, {"y1"}),
    ("pi", lambda t, x1, x2, y1, y2, y3, z: np.pi, set()),
    ("pi/2 - x1", lambda t, x1, x2, y1, y2, y3, z: np.pi / 2.0 - x1, {"x1"}),
    ("x1", lambda t, x1, x2, y1, y2, y3, z: x1, {"x1"}),
    ("  x1\n+\tx2", lambda t, x1, x2, y1, y2, y3, z: x1 + x2, {"x1", "x2"}),
    ("((x1))", lambda t, x1, x2, y1, y2, y3, z: x1, {"x1"}),
    ("x1 - x2 - y1", lambda t, x1, x2, y1, y2, y3, z: x1 - x2 - y1, {"x1", "x2", "y1"}),
    ("x1 / x2 / y3", lambda t, x1, x2, y1, y2, y3, z: x1 / x2 / y3, {"x1", "x2", "y3"}),
    ("x1*x2/y1*y2", lambda t, x1, x2, y1, y2, y3, z: x1 * x2 / y1 * y2,
     {"x1", "x2", "y1", "y2"}),
    ("2 ** 3 ** 2", lambda t, x1, x2, y1, y2, y3, z: 2.0 ** 3.0 ** 2.0, set()),
    ("-x1 ** 2", lambda t, x1, x2, y1, y2, y3, z: -x1 ** 2.0, {"x1"}),
    ("(-x1) ** 2", lambda t, x1, x2, y1, y2, y3, z: (-x1) ** 2.0, {"x1"}),
    ("--x1", lambda t, x1, x2, y1, y2, y3, z: -(-x1), {"x1"}),
    ("x1 - -x2", lambda t, x1, x2, y1, y2, y3, z: x1 - -x2, {"x1", "x2"}),
    ("2*-x1", lambda t, x1, x2, y1, y2, y3, z: 2.0 * -x1, {"x1"}),
    ("x1 ** -2", lambda t, x1, x2, y1, y2, y3, z: x1 ** -2.0, {"x1"}),
    ("2 ** -x1 ** 2", lambda t, x1, x2, y1, y2, y3, z: 2.0 ** -x1 ** 2.0, {"x1"}),
    ("x2 ** x1", lambda t, x1, x2, y1, y2, y3, z: x2 ** x1, {"x1", "x2"}),
    ("1/(1 + x1**2)", lambda t, x1, x2, y1, y2, y3, z: 1.0 / (1.0 + x1 ** 2.0), {"x1"}),
    ("sin(pi*x1)*sin(pi*x2)*(1+0.2*z)",
     lambda t, x1, x2, y1, y2, y3, z: np.sin(np.pi * x1) * np.sin(np.pi * x2)
     * (1.0 + 0.2 * z), {"x1", "x2", "z"}),
    ("sin(pi*x1)*y3 + z**2/2 - cos(t)",
     lambda t, x1, x2, y1, y2, y3, z: np.sin(np.pi * x1) * y3 + z ** 2.0 / 2.0
     - np.cos(t), {"t", "x1", "y3", "z"}),
    ("exp(-t) * cos(2*pi*x2)",
     lambda t, x1, x2, y1, y2, y3, z: np.exp(-t) * np.cos(2.0 * np.pi * x2), {"t", "x2"}),
    ("sin(cos(exp(x1)))", lambda t, x1, x2, y1, y2, y3, z: np.sin(np.cos(np.exp(x1))),
     {"x1"}),
    ("sin ( x1 )", lambda t, x1, x2, y1, y2, y3, z: np.sin(x1), {"x1"}),
    ("sin(pi * (x1 - x2))", lambda t, x1, x2, y1, y2, y3, z: np.sin(np.pi * (x1 - x2)),
     {"x1", "x2"}),
    ("x1 + 2*x2 - 3*y1/4 + y2**2 - exp(y3*z)",
     lambda t, x1, x2, y1, y2, y3, z: x1 + 2.0 * x2 - 3.0 * y1 / 4.0 + y2 ** 2.0
     - np.exp(y3 * z), {"x1", "x2", "y1", "y2", "y3", "z"}),
    ("t*x1 + 1e0", lambda t, x1, x2, y1, y2, y3, z: t * x1 + 1.0, {"t", "x1"}),
    ("y3 * cos(pi*x1) - 0.5", lambda t, x1, x2, y1, y2, y3, z: y3 * np.cos(np.pi * x1) - 0.5,
     {"x1", "y3"}),
]

# (text, variables, error); a keyword or a call is a construct outside the
# language (ParseError), not an unknown variable
EXPRESSIONS_REJECTED = [
    ("", _VOL, ParseError),
    ("   ", _VOL, ParseError),
    ("1 +* 2", _VOL, ParseError),
    ("sin 3", _VOL, ParseError),
    ("(1 + 2", _VOL, ParseError),
    ("1 + 2)", _VOL, ParseError),
    ("1 2", _VOL, ParseError),
    ("x1 x2", _VOL, ParseError),
    ("1e", _VOL, ParseError),
    ("1.5.2", _VOL, ParseError),
    ("x1 ** ", _VOL, ParseError),
    ("+x1", _VOL, ParseError),
    ("x1 // 2", _VOL, ParseError),
    ("x1 % 2", _VOL, ParseError),
    ("x1 < 2", _VOL, ParseError),
    ("x1 # note", _VOL, ParseError),
    ("'x1'", _VOL, ParseError),
    ("[x1]", _VOL, ParseError),
    ("sin", _VOL, ParseError),
    ("sin + 1", _VOL, ParseError),
    ("sin()", _VOL, ParseError),
    ("sin(x1, x2)", _VOL, ParseError),
    ("sin(*x1)", _VOL, ParseError),
    ("pi(x1)", _VOL, ParseError),
    ("x1(2)", _VOL, ParseError),
    ("x1.real", _VOL, ParseError),
    ("1_0", _VOL, ParseError),
    ("0x1f", _VOL, ParseError),
    ("1j", _VOL, ParseError),
    ("x1 if x2 else 1", _VOL, ParseError),
    ("x1 and x2", _VOL, ParseError),
    ("q + 1", _VOL, ValidationError),
    ("sin(q)", _VOL, ValidationError),
    ("X1", _VOL, ValidationError),
    ("z", _SURF, ValidationError),
    ("cos(t)", _SURF, ValidationError),
    ("007", _VOL, ParseError),
    ("True", _VOL, ParseError),
    ("not x1", _VOL, ParseError),
    ("print(x1)", _VOL, ParseError),
]


@pytest.mark.parametrize("text, numpy_form, used", EXPRESSIONS_ACCEPTED,
                         ids=[case[0] for case in EXPRESSIONS_ACCEPTED])
def test_expression_corpus_accepted(text, numpy_form, used):
    want = np.asarray(numpy_form(**_ENV))
    for variables in (_VOL, _SURF) if used <= set(_SURF) else (_VOL,):
        e = Expression(text, variables)
        got = np.asarray(e(**{k: _ENV[k] for k in variables}))
        assert e.used == used
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bitwise


@pytest.mark.parametrize("text, variables, error", EXPRESSIONS_REJECTED,
                         ids=[case[0] for case in EXPRESSIONS_REJECTED])
def test_expression_corpus_rejected(text, variables, error):
    with pytest.raises(error) as info:
        Expression(text, variables)
    assert type(info.value) is error


def test_expression_trailing_whitespace_and_deep_nesting():
    assert Expression("x1 \n", _VOL)(x1=2.0) == 2.0
    with pytest.raises(ParseError):
        Expression("-" * 5000 + "x1", _VOL)
    with pytest.raises(ParseError):
        Expression("+".join(["x1"] * 3000), _VOL)


def test_source_never_evaluates_text():
    # the expression reader must not fall back on eval, exec or compile
    import ast

    import perfolayer

    for path in sorted(Path(perfolayer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                assert name not in ("eval", "exec", "compile"), \
                    f"{path.name}:{node.lineno} calls {name}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_minimal_config_defaults(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("geometry:\n  type: full\nmaterial:\n  lambda: 1.0\n  mu: 1.0\n"
                    "epsilons: [0.25]\n")
    cfg = load_config(path)
    assert cfg.epsilons == [0.25]
    assert cfg.tree["time"]["t_end"] == 0.5  # default applied
    assert cfg.tree["geometry"]["type"] == "full"


def test_config_rejects_bad_epsilon(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("epsilons: [0.3]\n")
    with pytest.raises(ValidationError, match="reciprocal"):
        load_config(path)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("foo: 1\n")
    with pytest.raises(ValidationError, match="foo"):
        load_config(path)
    path.write_text("time:\n  warp: 9\n")
    with pytest.raises(ValidationError, match="time.warp"):
        load_config(path)


def test_config_parse_error_has_location(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("epsilons: [0.5\n")
    with pytest.raises(ParseError, match="line"):
        load_config(path)


def test_config_roundtrip(tmp_path):
    cfg = SimConfig(validate_tree({"epsilons": [0.5, 0.25],
                                   "loads": {"preset": "uniform_vertical"}}))
    path = tmp_path / "echo.yaml"
    cfg.save(path)
    cfg2 = load_config(path)
    assert cfg.tree == cfg2.tree


def test_config_expression_loads(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "loads:\n  expressions:\n    f3: sin(pi*x1)*sin(pi*x2)\n"
        "    f1: '0.1*z'\n  lipschitz: 0.1\n")
    cfg = load_config(path)
    lm = cfg.build_loads()
    assert lm.f_depends_z
    assert not lm.f_depends_y
    assert lm.lipschitz == 0.1
    v = lm.f[2](0.0, 0.5, 0.5, 0, 0, 0, 0.0)
    assert v == pytest.approx(1.0)


def test_config_dt_rules():
    cfg = SimConfig(validate_tree({"time": {"dt": "eps/16"}}))
    assert cfg.dt_for(0.5) == pytest.approx(0.5 / 16)
    cfg2 = SimConfig(validate_tree({"time": {"dt": 0.01}}))
    assert cfg2.dt_for(0.5) == 0.01
    with pytest.raises(ValidationError):
        validate_tree({"time": {"dt": "eps*2"}})


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        preset_load_model("warp-core")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


def test_cli_homogenize_and_exit_codes(tmp_path):
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n")
    out = str(tmp_path / "out")
    rc = run_command(["homogenize", "--config", cfg, "--out", out])
    assert rc == 0
    text = Path(out, "effective_tensors.txt").read_text()
    assert "a_star[1][1][1][1] = 2.66" in text
    assert "geometry_hash" in text

    bad = _write(tmp_path, "epsilons: [0.3]\n")
    rc = run_command(["homogenize", "--config", bad, "--out", out])
    assert rc == 2
    assert os.path.exists(os.path.join(out, "error.json"))


def test_cli_plate_run_zero_loads(tmp_path):
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n"
                           "loads:\n  preset: zero\n"
                           "time:\n  t_end: 0.0625\nresolutions:\n  n_sigma: 4\n")
    out = str(tmp_path / "out")
    rc = run_command(["plate-run", "--config", cfg, "--out", out])
    assert rc == 0
    lines = Path(out, "plate_trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,norm_u03,norm_u1,energy,picard_iters,probe_")
    data = np.array([row.split(",") for row in lines[1:]], dtype=float)
    assert np.abs(data[:, 1:4]).max() == 0.0


def test_cli_determinism(tmp_path):
    cfg = _write(tmp_path, "epsilons: [0.5]\ntime:\n  t_end: 0.125\n"
                           "resolutions:\n  n_sigma: 4\n")
    out1 = str(tmp_path / "o1")
    out2 = str(tmp_path / "o2")
    assert run_command(["plate-run", "--config", cfg, "--out", out1]) == 0
    assert run_command(["plate-run", "--config", cfg, "--out", out2]) == 0
    b1 = Path(out1, "plate_trajectory.csv").read_bytes()
    b2 = Path(out2, "plate_trajectory.csv").read_bytes()
    assert b1 == b2
    t1 = Path(out1, "effective_tensors.txt").read_bytes()
    t2 = Path(out2, "effective_tensors.txt").read_bytes()
    assert t1 == t2


def test_cli_micro_run_and_report(tmp_path):
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n"
                           "time:\n  t_end: 0.125\nresolutions:\n  n_sigma: 4\n")
    out = str(tmp_path / "out")
    rc = run_command(["micro-run", "--config", cfg, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "micro_trajectory_eps2.csv"))
    rc = run_command(["report", "--config", cfg, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "summary.txt"))
    plots = os.listdir(os.path.join(out, "plots"))
    assert any(name.endswith(".xy") for name in plots)


def test_cli_helmholtz_check(tmp_path):
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n")
    out = str(tmp_path / "out")
    rc = run_command(["helmholtz-check", "--config", cfg, "--out", out])
    assert rc == 0
    lines = Path(out, "helmholtz.csv").read_text().splitlines()
    assert lines[0] == "field,reconstruction,orthogonality"
    data = np.array([row.split(",") for row in lines[1:]], dtype=float)
    assert data[:, 1].max() <= 1e-8
    assert data[:, 2].max() <= 1e-8


def test_cli_korn_sweep(tmp_path):
    cfg = _write(tmp_path, "epsilons: [0.5]\ntolerances:\n  eigen: 1.0e-4\n")
    out = str(tmp_path / "out")
    rc = run_command(["korn", "--config", cfg, "--out", out])
    assert rc == 0
    lines = Path(out, "constants_korn.csv").read_text().splitlines()
    assert lines[0] == "inequality,eps,n,constant,residual"
    assert lines[1].startswith("korn,0.5,4,")


def test_cli_dump_fields(tmp_path):
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n"
                           "time:\n  t_end: 0.0625\nresolutions:\n  n_sigma: 4\n")
    out = str(tmp_path / "out")
    rc = run_command(["plate-run", "--config", cfg, "--out", out,
                      "--dump-fields", "final"])
    assert rc == 0
    dumps = [f for f in os.listdir(out) if f.startswith("plate_t") and f.endswith(".field")]
    assert len(dumps) == 1
    lines = Path(out, dumps[0]).read_text().splitlines()
    assert lines[0] == "PERFOLAYER-FIELD v1"


def test_write_report_empty_tables(tmp_path):
    from perfolayer import reporting

    reporting.write_report({"tables": {"empty": (["a", "b"], [])}}, str(tmp_path))
    lines = (tmp_path / "empty.csv").read_text().splitlines()
    assert lines == ["a,b"]


def test_effective_document_complete(tmp_path):
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n")
    out = str(tmp_path / "out")
    assert run_command(["homogenize", "--config", cfg, "--out", out]) == 0
    text = Path(out, "effective_tensors.txt").read_text().splitlines()
    for name in ("a_star", "b_star", "c_star"):
        entries = [ln for ln in text if ln.startswith(name)]
        assert len(entries) == 16
        for ln in entries:
            assert np.isfinite(float(ln.split("=")[1]))


def test_cli_converge_pipeline(tmp_path):
    cfg = _write(tmp_path,
                 "epsilons: [0.5, 0.25]\n"
                 "time:\n  t_end: 0.25\n"
                 "resolutions:\n  n_sigma: 4\n"
                 "loads:\n  preset: linear\n"
                 "tolerances:\n  eigen: 1.0e-3\n")
    out = str(tmp_path / "out")
    rc = run_command(["converge", "--config", cfg, "--out", out])
    assert rc == 0
    for name in ("twoscale.csv", "twoscale_trend.csv", "moments.csv",
                 "constants.csv", "plate_trajectory.csv",
                 "micro_trajectory_eps2.csv", "micro_trajectory_eps4.csv",
                 "effective_tensors.txt"):
        assert os.path.exists(os.path.join(out, name)), name
    lines = Path(out, "twoscale_trend.csv").read_text().splitlines()
    data = np.array([r.split(",") for r in lines[1:]], dtype=float)
    # err_u3 decreases from eps = 1/2 to eps = 1/4
    assert data[0, 1] > data[1, 1]
    cons = Path(out, "constants.csv").read_text().splitlines()
    kinds = {r.split(",")[0] for r in cons[1:]}
    assert kinds == {"korn", "extension", "trace"}


def test_cli_time_grid_mismatch_is_validation_error(tmp_path):
    # dt = eps/3: t_end / dt = 4.5 at eps = 1/3, and its stride over the
    # macro dt (that of eps = 1/3) is 1.5 at eps = 1/2
    cfg = _write(tmp_path, "epsilons: [0.5, 0.3333333333333333]\n"
                           "time:\n  dt: eps/3\n")
    out = str(tmp_path / "out")
    rc = run_command(["converge", "--config", cfg, "--out", out])
    assert rc == 2
    assert sorted(os.listdir(out)) == ["error.json"]
    with pytest.raises(ValidationError, match="time.dt"):
        validate_tree({"time": {"dt": 0.03}})  # 0.5 / 0.03 is not an integer


def test_cli_missing_config_is_validation_error(tmp_path):
    out = str(tmp_path / "out")
    rc = run_command(["homogenize", "--config", str(tmp_path / "nope.yaml"),
                      "--out", out])
    assert rc == 2


def test_cli_expression_loads_pipeline(tmp_path):
    cfg = _write(tmp_path,
                 "geometry:\n  type: full\nepsilons: [0.5]\n"
                 "time:\n  t_end: 0.0625\nresolutions:\n  n_sigma: 4\n"
                 "loads:\n  expressions:\n    f3: sin(pi*x1)*sin(pi*x2)\n")
    out = str(tmp_path / "out")
    assert run_command(["plate-run", "--config", cfg, "--out", out]) == 0
    lines = Path(out, "plate_trajectory.csv").read_text().splitlines()
    data = np.array([r.split(",") for r in lines[1:]], dtype=float)
    assert data[-1, 1] > 0  # nonzero response


@pytest.mark.parametrize("value", ["stride=0", "stride=x", "every"])
def test_cli_bad_dump_fields_fails_before_compute(tmp_path, value):
    cfg = _write(tmp_path, "epsilons: [0.5, 0.25, 0.125]\n")
    out = str(tmp_path / "out")
    rc = run_command(["converge", "--config", cfg, "--out", out,
                      "--dump-fields", value])
    assert rc == 2
    assert set(os.listdir(out)) <= {"error.json", "config_echo.yaml"}
    record = json.loads(Path(out, "error.json").read_text())
    assert record["error"] == "ValidationError"
    assert value in record["message"]


def _mask_config(mask):
    return f"geometry:\n  type: mask\n  mask: {json.dumps(mask.tolist())}\n"


@pytest.mark.parametrize("text, key", [
    ("geometry:\n  hole: [[0.0, 0.75], [0.25, 0.75], [-0.5, 0.5]]\n", "geometry.hole[0]"),
    ("geometry:\n  hole: [[0.25, 0.75], [0.25, 0.75], [-0.5, 1.5]]\n", "geometry.hole[2]"),
    ("geometry:\n  hole: [[0.25, 0.75], [0.25, 0.75]]\n", "geometry.hole"),
    ("geometry:\n  type: channel\n  axis: 2\n", "geometry.axis"),
    ("geometry:\n  type: channel\n  width: [0.75, 0.25]\n", "geometry.width"),
    ("geometry:\n  type: channel\n  height: [-1.0, 0.5]\n", "geometry.height"),
    ("material:\n  mu: -1.0\n", "material"),
    ("material:\n  lambda: -1.0\n", "material"),
    (_mask_config(np.ones((2, 2, 2), bool)), "geometry"),            # not (m, m, 2m)
    (_mask_config(np.zeros((2, 2, 4), bool)), "geometry"),           # empty
    (_mask_config(np.arange(16).reshape(2, 2, 4) > 0), "geometry"),  # not periodic
    ("geometry:\n  type: mask\n  mask: 1\n", "geometry"),                 # not 3-d
    ("geometry:\n  type: channel\n  width: [0.01, 0.99]\n", "geometry"),  # disconnected
    ("resolutions:\n  n: 6\n", "resolutions.n"),
    ("resolutions:\n  n: 4.5\n", "resolutions.n"),
    ("resolutions:\n  m: 4.5\n", "resolutions.m"),
    ("resolutions:\n  m: true\n", "resolutions.m"),
    ("resolutions:\n  n_sigma: 4.5\n", "resolutions.n_sigma"),
    ("tolerances:\n  picard_max: 2.5\n", "tolerances.picard_max"),
    ("tolerances:\n  linear: true\n", "tolerances.linear"),
])
def test_cli_bad_geometry_or_material_fails_in_validation(tmp_path, text, key):
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "out")
    rc = run_command(["homogenize", "--config", cfg, "--out", out])
    assert rc == 2
    assert set(os.listdir(out)) <= {"error.json", "config_echo.yaml"}
    record = json.loads(Path(out, "error.json").read_text())
    assert record["error"] == "ValidationError"
    assert record["message"].startswith(key + ":")


def test_cli_norm_order_key_is_unknown(tmp_path):
    # the top-level ``p`` (a norm order nothing read) is no longer a key
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\np: 2.0\n")
    out = str(tmp_path / "out")
    assert run_command(["homogenize", "--config", cfg, "--out", out]) == 2
    record = json.loads(Path(out, "error.json").read_text())
    assert record["error"] == "ValidationError"
    assert record["message"] == "p: unknown key"


def test_cli_unwritable_output_is_exit_2(tmp_path):
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n")
    out = tmp_path / "out"
    (out / "cell_residuals.csv").mkdir(parents=True)
    rc = run_command(["cell-solve", "--config", cfg, "--out", str(out)])
    assert rc == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "IsADirectoryError"
    assert "cell_residuals.csv" in record["message"]


def test_cli_value_error_in_solve_is_not_a_config_error(tmp_path, monkeypatch):
    from perfolayer import fem

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(fem, "solve_spd", broken)
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n")
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="injected"):
        run_command(["cell-solve", "--config", cfg, "--out", out])
    record = json.loads(Path(out, "error.json").read_text())
    assert record == {"error": "ValueError", "message": "injected"}


def test_cli_unexpected_exception_leaves_error_record(tmp_path, monkeypatch):
    from perfolayer import cli

    def broken(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli.Pipeline, "cell_solve", broken)
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n")
    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="injected"):
        run_command(["cell-solve", "--config", cfg, "--out", out])
    record = json.loads(Path(out, "error.json").read_text())
    assert record == {"error": "RuntimeError", "message": "injected"}


def test_cli_converge_determinism(tmp_path):
    cfg = _write(tmp_path, "epsilons: [0.5]\ntime:\n  t_end: 0.125\n"
                           "resolutions:\n  n_sigma: 4\n"
                           "loads:\n  preset: linear\n"
                           "tolerances:\n  eigen: 1.0e-3\n")
    outs = [str(tmp_path / name) for name in ("o1", "o2")]
    for out in outs:
        assert run_command(["converge", "--config", cfg, "--out", out]) == 0
    for name in ("twoscale.csv", "twoscale_trend.csv", "moments.csv"):
        b1, b2 = (Path(out, name).read_bytes() for out in outs)
        assert b1 == b2, name
        assert len(b1.splitlines()) >= 2
