import json
import os

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
    with pytest.raises(ValidationError):
        validate_tree({"p": 1.0})


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
    text = open(os.path.join(out, "effective_tensors.txt")).read()
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
    lines = open(os.path.join(out, "plate_trajectory.csv")).read().splitlines()
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
    b1 = open(os.path.join(out1, "plate_trajectory.csv"), "rb").read()
    b2 = open(os.path.join(out2, "plate_trajectory.csv"), "rb").read()
    assert b1 == b2
    t1 = open(os.path.join(out1, "effective_tensors.txt"), "rb").read()
    t2 = open(os.path.join(out2, "effective_tensors.txt"), "rb").read()
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
    lines = open(os.path.join(out, "helmholtz.csv")).read().splitlines()
    assert lines[0] == "field,reconstruction,orthogonality"
    data = np.array([row.split(",") for row in lines[1:]], dtype=float)
    assert data[:, 1].max() <= 1e-8
    assert data[:, 2].max() <= 1e-8


def test_cli_korn_sweep(tmp_path):
    cfg = _write(tmp_path, "epsilons: [0.5]\ntolerances:\n  eigen: 1.0e-4\n")
    out = str(tmp_path / "out")
    rc = run_command(["korn", "--config", cfg, "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "constants_korn.csv")).read().splitlines()
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
    lines = open(os.path.join(out, dumps[0])).read().splitlines()
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
    text = open(os.path.join(out, "effective_tensors.txt")).read().splitlines()
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
    lines = open(os.path.join(out, "twoscale_trend.csv")).read().splitlines()
    data = np.array([r.split(",") for r in lines[1:]], dtype=float)
    # err_u3 decreases from eps = 1/2 to eps = 1/4
    assert data[0, 1] > data[1, 1]
    cons = open(os.path.join(out, "constants.csv")).read().splitlines()
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
    lines = open(os.path.join(out, "plate_trajectory.csv")).read().splitlines()
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
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "ValidationError"
    assert value in record["message"]


@pytest.mark.parametrize("text, key", [
    ("geometry:\n  hole: [[0.0, 0.75], [0.25, 0.75], [-0.5, 0.5]]\n", "geometry.hole[0]"),
    ("geometry:\n  hole: [[0.25, 0.75], [0.25, 0.75], [-0.5, 1.5]]\n", "geometry.hole[2]"),
    ("geometry:\n  hole: [[0.25, 0.75], [0.25, 0.75]]\n", "geometry.hole"),
    ("geometry:\n  type: channel\n  axis: 2\n", "geometry.axis"),
    ("geometry:\n  type: channel\n  width: [0.75, 0.25]\n", "geometry.width"),
    ("geometry:\n  type: channel\n  height: [-1.0, 0.5]\n", "geometry.height"),
    ("material:\n  mu: -1.0\n", "material"),
    ("material:\n  lambda: -1.0\n", "material"),
])
def test_cli_bad_geometry_or_material_fails_in_validation(tmp_path, text, key):
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "out")
    rc = run_command(["homogenize", "--config", cfg, "--out", out])
    assert rc == 2
    assert set(os.listdir(out)) <= {"error.json", "config_echo.yaml"}
    record = json.load(open(os.path.join(out, "error.json")))
    assert record["error"] == "ValidationError"
    assert record["message"].startswith(key + ":")


def test_cli_value_error_in_solve_is_not_a_config_error(tmp_path, monkeypatch):
    from perfolayer import fem

    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(fem, "solve_spd", broken)
    cfg = _write(tmp_path, "geometry:\n  type: full\nepsilons: [0.5]\n")
    out = str(tmp_path / "out")
    with pytest.raises(ValueError, match="injected"):
        run_command(["cell-solve", "--config", cfg, "--out", out])
    record = json.load(open(os.path.join(out, "error.json")))
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
    record = json.load(open(os.path.join(out, "error.json")))
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
        b1, b2 = (open(os.path.join(out, name), "rb").read() for out in outs)
        assert b1 == b2, name
        assert len(b1.splitlines()) >= 2
