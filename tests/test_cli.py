"""Command-line surface: exit codes, report files, tolerance plumbing.

Everything calls main() in process, except the import-cost test, which needs
a fresh interpreter; exit codes are the contract (0 consistent or completed,
2 hypothesis-violated / not a pole, 3 conclusion-violated, 1 usage, I/O, or
geometry errors).
"""

import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ellipsoid_forge import (
    Ellipsoid,
    PBall,
    Polytope,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    check_theorem4,
    check_theorem_basico,
    check_theorem_radon,
    load_body,
    polar_of,
    save_body,
)
from ellipsoid_forge import cli
from ellipsoid_forge.cli import build_parser, main


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bodies")
    paths = {}

    def put(name, body):
        p = root / (name + ".body")
        save_body(body, str(p))
        paths[name] = str(p)

    put("ball1", Ellipsoid.ball(1.0))
    put("ball2", Ellipsoid.ball(2.0))
    put("ball_half", Ellipsoid.ball(0.5))
    put("ellipsoid", Ellipsoid(np.zeros(3), np.diag([1.0, 4.0, 9.0])))
    put("thin", Ellipsoid(np.zeros(3), np.diag(np.array([4.0, 1.0, 0.1]) ** -2.0)))
    put("l4", PBall(4.0, (1.0, 1.0, 1.0)))
    put("l4_double", PBall(4.0, (2.0, 2.0, 2.0)))
    put("l1001", PBall(1.001, (1.0, 1.0, 1.0)))
    put("disc", Ellipsoid.ball(1.0, dim=2))
    put("ball1_4d", Ellipsoid.ball(1.0, dim=4))
    put("ball2_4d", Ellipsoid.ball(2.0, dim=4))
    bad = root / "broken.body"
    bad.write_text("ellipsoid-forge-body v1\nkind banana\n")
    paths["broken"] = str(bad)
    nonpd = root / "nonpd.body"
    nonpd.write_text((root / "ball1.body").read_text().replace(
        "shape-row 1.0", "shape-row -1.0", 1))
    paths["nonpd"] = str(nonpd)
    put("octahedron", Polytope(np.vstack([np.eye(3), -np.eye(3)])))
    flat = root / "flat.body"  # the octahedron squashed into z = 0
    flat.write_text((root / "octahedron.body").read_text().replace(
        "vertex 0.0 0.0 1.0", "vertex 0.5 0.5 0.0").replace(
        "vertex -0.0 -0.0 -1.0", "vertex -0.5 -0.5 -0.0"))
    paths["flat"] = str(flat)
    return paths


def test_validate_good_specs(specs, capsys):
    assert main(["body", "validate", specs["ball1"], specs["l4"]]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 2
    assert "kind ellipsoid" in out and "kind pball" in out


def test_validate_flags_broken_spec(specs, capsys):
    assert main(["body", "validate", specs["ball1"], specs["broken"]]) == 1
    captured = capsys.readouterr()
    assert "INVALID" in captured.err
    assert ": ok" in captured.out  # the good one is still reported


def test_validate_reports_constructor_errors_per_file(specs, capsys):
    assert main(["body", "validate", specs["nonpd"], specs["ball1"]]) == 1
    captured = capsys.readouterr()
    assert "%s: INVALID: line 2: shape matrix must be positive definite" \
        % specs["nonpd"] in captured.err
    assert "%s: ok" % specs["ball1"] in captured.out


def test_validate_reports_flat_polytope(specs, capsys):
    assert main(["body", "validate", specs["flat"], specs["octahedron"]]) == 1
    captured = capsys.readouterr()
    assert "%s: INVALID: line 2: polytope vertices do not span R^3" \
        % specs["flat"] in captured.err
    assert "%s: ok" % specs["octahedron"] in captured.out


@pytest.mark.parametrize("argv, library", [
    (["t1", "--inner", "ellipsoid", "--outer", "ball2"],
     lambda s: check_theorem1(load_body(s["ellipsoid"]), load_body(s["ball2"]))),
    (["radon", "--body", "ellipsoid"],
     lambda s: check_theorem_radon(load_body(s["ellipsoid"]))),
], ids=["t1", "radon"])
def test_check_defaults_are_the_library_defaults(specs, tmp_path, argv,
                                                 library):
    report = tmp_path / "r.json"
    argv = [specs.get(a, a) for a in argv]
    assert main(["check", *argv, "--report", str(report)]) == 0
    assert report.read_text() == library(specs).to_json()


@pytest.mark.parametrize("argv, fn", [
    (["t1", "--inner", "a", "--outer", "b"], check_theorem1),
    (["t2", "--inner", "a", "--outer", "b"], check_theorem2),
    (["t3", "--inner", "a", "--outer", "b"], check_theorem3),
    (["t4", "--body", "a", "--ball-radius", "1"], check_theorem4),
    (["basico", "--body", "a"], check_theorem_basico),
    (["radon", "--body", "a"], check_theorem_radon),
    (["pole", "--body", "a", "--point", "2,0,0"], polar_of),
], ids=["t1", "t2", "t3", "t4", "basico", "radon", "pole"])
def test_check_flags_set_no_size_default(argv, fn):
    sizes = {name for name, prm in inspect.signature(fn).parameters.items()
             if name != "seed" and type(prm.default) in (int, float)}
    assert sizes
    given = vars(build_parser().parse_args(["check", *argv]))
    assert not sizes & set(given)


def test_check_on_four_dimensional_bodies_exits_one(specs, capsys):
    code = main(["check", "t1", "--inner", specs["ball1_4d"],
                 "--outer", specs["ball2_4d"]])
    assert code == 1
    assert "UnsupportedDimension" in capsys.readouterr().err


def test_check_t1_exit_zero_and_report(specs, tmp_path, capsys):
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    argv = ["check", "t1", "--inner", specs["ellipsoid"],
            "--outer", specs["ball2"], "--apexes", "6", "--m", "32",
            "--pairs", "3"]
    assert main(argv + ["--report", str(r1)]) == 0
    assert main(argv + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["schema"] == "ellipsoid-forge/report-v1"
    assert doc["verdict"] == "consistent"
    out = capsys.readouterr().out
    assert "verdict consistent" in out
    assert "[pass] hypothesis inner-o-symmetry" in out


def test_check_seed_changes_report(specs, tmp_path):
    r1, r2 = tmp_path / "s0.json", tmp_path / "s7.json"
    argv = ["check", "radon", "--body", specs["ellipsoid"], "--planes", "2",
            "--diameters", "32"]
    assert main(argv + ["--seed", "0", "--report", str(r1)]) == 0
    assert main(argv + ["--seed", "7", "--report", str(r2)]) == 0
    a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
    assert a["seed"] == 0 and b["seed"] == 7
    assert a["verdict"] == b["verdict"] == "consistent"


def test_check_t4_hypothesis_violation_exits_two(specs, capsys):
    code = main(["check", "t4", "--body", specs["l4_double"],
                 "--ball-radius", "1.0", "--samples", "6", "--m", "32"])
    assert code == 2
    assert "verdict hypothesis-violated" in capsys.readouterr().out


def test_forced_conclusion_violation_exits_three(specs, capsys):
    # an impossible ellipse gate fails the conclusion while hypotheses pass
    code = main(["check", "radon", "--body", specs["ellipsoid"],
                 "--planes", "2", "--diameters", "32",
                 "--tol", "ellipse=1e-30"])
    assert code == 3
    assert "verdict conclusion-violated" in capsys.readouterr().out


def test_check_pole_ball(specs, tmp_path, capsys):
    report = tmp_path / "pole.json"
    code = main(["check", "pole", "--body", specs["ball1"],
                 "--point", "2,0,0", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "classification projective hyperplane of symmetry" in out
    assert "graze-polar-agreement" in out
    doc = json.loads(report.read_text())
    assert doc["theorem"] == "pole"
    assert doc["polar"]["normal"][0] == pytest.approx(1.0)
    assert doc["polar"]["offset"] == pytest.approx(0.5, abs=1e-9)


def test_check_pole_center_at_infinity(specs, capsys):
    code = main(["check", "pole", "--body", specs["ball1"],
                 "--point", "0,0,0"])
    assert code == 0
    assert "classification projective centre" in capsys.readouterr().out


def test_check_pole_non_finite_point_exits_one(specs, capsys):
    code = main(["check", "pole", "--body", specs["ball1"],
                 "--point", "nan,0,0"])
    assert code == 1
    assert "NonFiniteInput" in capsys.readouterr().err


def test_check_empty_sample_exits_one(specs, capsys):
    # zero planes would pass the hypothesis stage without testing anything
    assert main(["check", "radon", "--body", specs["ball1"],
                 "--planes", "0"]) == 1
    assert "check radon needs planes >= 1" in capsys.readouterr().err
    # two directions fit a section centre exactly, so basico needs three
    assert main(["check", "basico", "--body", specs["l4"],
                 "--sym-m", "2"]) == 1
    assert "check basico needs sym_m >= 3" in capsys.readouterr().err


def test_check_pole_l4_exits_two(specs, capsys):
    code = main(["check", "pole", "--body", specs["l4"], "--point", "2,0,0"])
    assert code == 2
    assert "classification not a pole" in capsys.readouterr().out


def test_tolerance_env_and_flag_precedence(specs, monkeypatch):
    monkeypatch.setenv("ELLIPSOID_FORGE_TOLERANCES", "pole=1e-20")
    assert main(["check", "pole", "--body", specs["ball1"],
                 "--point", "2,0,0"]) == 2
    # the command line wins over the environment profile
    assert main(["check", "pole", "--body", specs["ball1"],
                 "--point", "2,0,0", "--tol", "pole=1e-3"]) == 0


def test_bad_tolerance_inputs(specs, capsys, monkeypatch):
    assert main(["check", "radon", "--body", specs["ellipsoid"],
                 "--tol", "bogus=1"]) == 1
    assert "unknown tolerance keys" in capsys.readouterr().err
    assert main(["check", "radon", "--body", specs["ellipsoid"],
                 "--tol", "pole"]) == 1
    monkeypatch.setenv("ELLIPSOID_FORGE_TOLERANCES", "wat=1e-3")
    assert main(["check", "radon", "--body", specs["ellipsoid"]]) == 1
    monkeypatch.delenv("ELLIPSOID_FORGE_TOLERANCES")
    capsys.readouterr()
    # a NaN or non-positive gate fails every stage of the unit ball, an
    # infinite one passes every stage: each would be a false verdict
    for item in ("ellipse=nan", "ellipse=-1", "ellipse=0", "contact=inf"):
        assert main(["check", "radon", "--body", specs["ball1"],
                     "--planes", "1", "--diameters", "8", "--tol", item]) == 1
        assert "must be finite and > 0" in capsys.readouterr().err


def test_sample_graze_csv(specs, tmp_path, capsys):
    out = tmp_path / "graze.csv"
    code = main(["sample", "graze", "--body", specs["ball1"],
                 "--apex", "2,0,0", "--m", "32", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,residual"
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (32, 4)
    assert np.abs(rows[:, 0] - 0.5).max() < 1e-10
    meta = json.loads((tmp_path / "graze.csv.meta.json").read_text())
    assert meta["curve"] == "graze"
    assert "wrote 32 points" in capsys.readouterr().out


def test_sample_section_circle(specs, tmp_path):
    out = tmp_path / "sec.csv"
    code = main(["sample", "section", "--body", specs["ball1"],
                 "--normal", "0,0,1", "--offset", "0.0", "--m", "24",
                 "--out", str(out)])
    assert code == 0
    rows = np.array([[float(t) for t in ln.split(",")]
                     for ln in out.read_text().splitlines()[1:]])
    radii = np.linalg.norm(rows[:, :3], axis=1)
    assert np.abs(radii - 1.0).max() < 1e-9
    assert np.abs(rows[:, 2]).max() < 1e-12


def test_sample_section_of_thin_body(specs, tmp_path):
    # the plane holds (-2, 0, 0), of gauge 0.5, though the centre's foot on
    # it lies outside the body
    out = tmp_path / "thin.csv"
    code = main(["sample", "section", "--body", specs["thin"],
                 "--normal", "1,1,1", "--offset", "-1.1547005383792517",
                 "--m", "16", "--out", str(out)])
    assert code == 0
    rows = np.array([[float(t) for t in ln.split(",")]
                     for ln in out.read_text().splitlines()[1:]])
    assert rows.shape == (16, 4)
    assert np.abs(rows[:, :3].sum(axis=1) + 2.0).max() < 1e-9


@pytest.mark.parametrize("normal, error", [("0,0,0", "ZeroDirection"),
                                           ("nan,0,0", "NonFiniteInput"),
                                           ("inf,0,0", "NonFiniteInput")])
def test_sample_section_bad_normal_exits_one(specs, tmp_path, capsys, normal, error):
    code = main(["sample", "section", "--body", specs["ball1"],
                 "--normal=" + normal, "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert error in capsys.readouterr().err


@pytest.mark.parametrize("kind, flags, m", [
    ("section", ["--normal", "0,0,1"], "0"),
    ("graze", ["--apex", "2,0,0"], "-1"),
    ("shadow", ["--direction", "1,0,0"], "2"),
])
def test_sample_needs_three_points(specs, tmp_path, capsys, kind, flags, m):
    code = main(["sample", kind, "--body", specs["ball1"], *flags, "--m", m,
                 "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "needs m >= 3; got %s" % m in capsys.readouterr().err


def test_smooth_body_work_leaves_out_scipy():
    """The package, its checks and its CLI import numpy only, and smooth-body
    work loads no scipy module; the first Polytope loads scipy.spatial for
    its hull."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import ellipsoid_forge, ellipsoid_forge.theorems, ellipsoid_forge.cli\n"
            "from ellipsoid_forge import Ellipsoid, Polytope, check_theorem_radon, graze\n"
            "ball = Ellipsoid.ball(1.0)\n"
            "check_theorem_radon(ball, planes=2, diameters=16)\n"
            "graze(ball, (2.0, 0.0, 0.0), m=16)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "Polytope([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])\n"
            "print('scipy.spatial' in sys.modules)" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "True"]


def test_sample_missing_flags_exit_one(specs, tmp_path, capsys):
    assert main(["sample", "omega", "--body", specs["ball1"],
                 "--apex", "2,0,0", "--out", str(tmp_path / "x.csv")]) == 1
    assert "needs --apex and --apex2" in capsys.readouterr().err
    assert main(["sample", "graze", "--body", specs["ball1"],
                 "--apex", "2;0;0", "--out", str(tmp_path / "y.csv")]) == 1


def test_geometry_error_exits_one(specs, capsys):
    code = main(["check", "t1", "--inner", specs["ball2"],
                 "--outer", specs["ball1"]])
    assert code == 1
    assert "BodiesNotNested" in capsys.readouterr().err


def test_sample_graze_on_planar_body_exits_one(specs, tmp_path, capsys):
    code = main(["sample", "graze", "--body", specs["disc"], "--apex", "2,0",
                 "--out", str(tmp_path / "g.csv")])
    assert code == 1
    assert "UnsupportedDimension" in capsys.readouterr().err


def test_sample_shadow_on_a_nearly_flat_face_exits_one(specs, tmp_path, capsys):
    # two neighbouring normals share a support point: no curve is written
    out = tmp_path / "sh.csv"
    code = main(["sample", "shadow", "--body", specs["l1001"], "--direction",
                 "1,0,0", "--out", str(out)])
    assert code == 1
    assert "DegenerateCloud" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_exits_one(capsys):
    assert main(["check", "radon", "--body", "/nonexistent.body"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert main(["check", "t1", "--inner", "only-this"]) == 1
    captured = capsys.readouterr()
    assert "usage" in captured.err


def test_sweep_rejects_an_empty_grid(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    code = main(["sweep", "--check", "radon", "--exponents", "1.5:3:0",
                 "--report", str(report)])
    assert code == 1
    assert "grid" in capsys.readouterr().err
    assert not report.exists()


def test_sweep_radon_over_exponents(specs, tmp_path, capsys):
    report = tmp_path / "sweep.json"
    code = main(["sweep", "--check", "radon", "--exponents", "1.6:2.4:3",
                 "--planes", "2", "--diameters", "32",
                 "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("exponent") == 3
    doc = json.loads(report.read_text())
    verdicts = {row["exponent"]: row["verdict"] for row in doc["rows"]}
    assert verdicts[2.0] == "consistent"
    assert verdicts[1.6] == "hypothesis-violated"
    assert verdicts[2.4] == "hypothesis-violated"
