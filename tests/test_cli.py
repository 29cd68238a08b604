import json
from fractions import Fraction

import pytest

from waldschmidt import cli
from waldschmidt.classify import ClassificationResult
from waldschmidt.fixtures import fixture
from waldschmidt.geometry import line_through
from golden import GOLDEN


def write_points(tmp_path, name, points=None):
    if points is None:
        points = [p.to_json() for p in fixture(name).points]
    path = tmp_path / (name.replace("(", "_").replace(")", "_") + ".json")
    path.write_text(json.dumps({"points": points}))
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_classify_text_output(tmp_path, capsys):
    path = write_points(tmp_path, "L4Q3-A")
    code, out = run(capsys, ["classify", path])
    assert code == 0
    assert "exact: 16/7" in out


def test_classify_json_roundtrip(tmp_path, capsys):
    path = write_points(tmp_path, "CONIC6-TYPE1")
    code, out = run(capsys, ["--json", "classify", path])
    assert code == 0
    blob = json.loads(out)
    assert blob["value"] == {"exact": "7/3"}
    assert json.loads(json.dumps(blob)) == blob
    assert blob["certificates"]["lower"]["bound"] == "7/3"


def test_classify_duplicate_point_is_input_error(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"points": [["1", "0", "0"], ["1", "0", "0"],
                                           ["0", "1", "0"]]}))
    code, out = run(capsys, ["classify", str(path)])
    assert code == cli.EXIT_INPUT_ERROR
    assert "distinct" in out


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, ["classify", str(path)])
    assert code == cli.EXIT_INPUT_ERROR


def test_alpha_command(tmp_path, capsys):
    path = write_points(tmp_path, "L4Q3-D")
    code, out = run(capsys, ["alpha", path, "-m", "2"])
    assert code == 0
    assert "alpha(2X) = 5" in out
    code, out = run(capsys, ["--json", "alpha", path, "-m", "1"])
    assert json.loads(out)["alpha"] == 3


def test_alpha_single_point_m3(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"points": [["0", "0", "1"]]}))
    code, out = run(capsys, ["alpha", str(path), "-m", "3"])
    assert code == 0
    assert "alpha(3X) = 3" in out


def test_sweep_command(tmp_path, capsys):
    path = write_points(tmp_path, "L4Q3-A")
    code, out = run(capsys, ["--m-max", "3", "--json", "sweep", path])
    assert code == 0
    blob = json.loads(out)
    assert blob["sweep"] == [[1, "3", "3"], [2, "5", "5/2"], [3, "7", "7/3"]]
    assert blob["minimum"] == "7/3"


def test_lower_command_echoes_reference_multipliers(tmp_path, capsys):
    path = write_points(tmp_path, "L4Q3-B")
    aux = tmp_path / "aux.json"
    # sides of the residual triangle, carrier line, conic through the triangle
    # and the two free carrier points (indices: P1..P4 then Q1..Q3)
    aux.write_text(json.dumps([
        {"type": "line", "through": [5, 6]},
        {"type": "line", "through": [4, 6]},
        {"type": "line", "through": [4, 5]},
        {"type": "line", "through": [0, 1]},
        {"type": "conic", "through": [4, 5, 6, 2, 3]},
    ]))
    code, out = run(capsys, ["--json", "lower", path, str(aux)])
    assert code == 0
    blob = json.loads(out)
    assert blob["verified"] is True
    assert blob["certificate"]["bound"] == "7/3"
    duals = {d["label"]: d["mult"] for d in blob["certificate"]["duals"]}
    # the reference combination uses weights (1, 2, 1, 1, 2)/9 after grouping
    assert duals["degree"] == "1/9"
    assert duals["conic(4,5,6,2,3)"] == "2/9"
    assert duals["line(0,1)"] == "1/9"


def test_lower_rejects_unverifiable_cubic(tmp_path, capsys):
    path = write_points(tmp_path, "CONIC5")
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps([
        {"type": "explicit", "degree": 3,
         "coeffs": ["1", "0", "0", "0", "0", "0", "1", "0", "0", "1"]},
    ]))
    code, out = run(capsys, ["lower", path, str(aux)])
    assert code == cli.EXIT_INPUT_ERROR or "unverif" in out.lower()


def run_with_aux(tmp_path, capsys, specs):
    path = write_points(tmp_path, "L4Q3-D")
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps(specs))
    return run(capsys, ["--json", "lower", path, str(aux)])


def run_with_divisor(tmp_path, capsys, terms, m=2):
    path = write_points(tmp_path, "L4Q3-D")
    divisor = tmp_path / "div.json"
    divisor.write_text(json.dumps({"m": m, "terms": terms}))
    return run(capsys, ["upper", path, str(divisor)])


SIDES_AND_CARRIER = [[5, 6], [4, 6], [4, 5], [0, 1]]


def test_lower_rejects_a_negative_index(tmp_path, capsys):
    # -1 once read as the last point, giving the line through points 0 and 6
    code, out = run_with_aux(tmp_path, capsys, [{"type": "line", "through": [0, -1]}])
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def test_upper_rejects_a_negative_index(tmp_path, capsys):
    # [4, -2] once read as the side [4, 5] and certified 5/2
    terms = [{"coeff": c, "line": ij} for c, ij in
             zip((1, 1, 1, 2), [[5, 6], [4, 6], [4, -2], [0, 1]])]
    code, out = run_with_divisor(tmp_path, capsys, terms)
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def test_upper_rejects_a_bool_index(tmp_path, capsys):
    # true once read as point 1
    code, out = run_with_divisor(tmp_path, capsys, [{"coeff": 1, "line": [4, True]}])
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def test_lower_rejects_a_fractional_index(tmp_path, capsys):
    code, out = run_with_aux(tmp_path, capsys, [{"type": "line", "through": [0, 1.5]}])
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def test_lower_rejects_a_spec_that_is_not_an_object(tmp_path, capsys):
    code, out = run_with_aux(tmp_path, capsys, ["line"])
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


# each was once read through int(): 2.9 as 2, true as 1, "2" as 2, and the
# divisor then certified 5/2 (or 5 for m = true) with exit 0
@pytest.mark.parametrize("m, coeffs", [
    (2.9, (1, 1, 1, 2)),
    (True, (1, 1, 1, 2)),
    ("2", (1, 1, 1, 2)),
    (2, (1.9, 1, 1, 2)),
    (2, (1, 1, True, 2)),
], ids=["fractional-m", "bool-m", "string-m", "fractional-coeff", "bool-coeff"])
def test_upper_rejects_a_number_that_is_not_an_integer(tmp_path, capsys, m, coeffs):
    terms = [{"coeff": c, "line": ij} for c, ij in zip(coeffs, SIDES_AND_CARRIER)]
    code, out = run_with_divisor(tmp_path, capsys, terms, m=m)
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def run_alpha_on(tmp_path, capsys, **fields):
    path = tmp_path / "fat.json"
    points = [p.to_json() for p in fixture("L4Q3-D").points]
    path.write_text(json.dumps(dict(points=points, **fields)))
    return run(capsys, ["alpha", str(path)])


# each once ran: 2.9 and 2.5 as multiplicity 2, unequal multiplicities as 1
@pytest.mark.parametrize("fields", [
    {"m": 2.9},
    {"mults": [2] * 6 + [2.5]},
    {"mults": [1] * 6 + [2]},
], ids=["fractional-m", "fractional-mult", "unequal-mults-without-m"])
def test_alpha_rejects_a_multiplicity_it_cannot_use(tmp_path, capsys, fields):
    code, out = run_alpha_on(tmp_path, capsys, **fields)
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def test_alpha_reads_integer_multiplicities(tmp_path, capsys):
    for fields in ({"m": 2}, {"mults": [2] * 7}):
        code, out = run_alpha_on(tmp_path, capsys, **fields)
        assert code == 0
        assert "alpha(2X) = 5" in out


# a curve degree of 1.5 was once read as 1: lower printed "bound: 1" and upper
# certified 5/2, both with exit 0
def test_lower_rejects_a_curve_degree_that_is_not_an_int(tmp_path, capsys):
    code, out = run_with_aux(tmp_path, capsys,
                             [{"type": "explicit", "degree": 1.5, "coeffs": ["1", "0", "0"]}])
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def test_upper_rejects_a_curve_degree_that_is_not_an_int(tmp_path, capsys):
    pts = fixture("L4Q3-D").points
    carrier = line_through(pts[0], pts[1]).to_json()
    terms = [{"coeff": 1, "line": ij} for ij in SIDES_AND_CARRIER[:3]]
    terms.append({"coeff": 2, "curve": dict(carrier, degree=1.5)})
    code, out = run_with_divisor(tmp_path, capsys, terms)
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


def test_lower_and_upper_accept_valid_indices(tmp_path, capsys):
    code, out = run_with_aux(tmp_path, capsys,
                             [{"type": "line", "through": ij} for ij in SIDES_AND_CARRIER])
    assert code == 0
    assert json.loads(out)["certificate"]["bound"] == "5/2"
    terms = [{"coeff": c, "line": ij} for c, ij in zip((1, 1, 1, 2), SIDES_AND_CARRIER)]
    code, out = run_with_divisor(tmp_path, capsys, terms)
    assert code == 0
    assert "5/2" in out


def test_upper_command(tmp_path, capsys):
    path = write_points(tmp_path, "L4Q3-D")
    divisor = tmp_path / "div.json"
    divisor.write_text(json.dumps({"m": 2, "terms": [
        {"coeff": 1, "line": [5, 6]},
        {"coeff": 1, "line": [4, 6]},
        {"coeff": 1, "line": [4, 5]},
        {"coeff": 2, "line": [0, 1]},
    ]}))
    code, out = run(capsys, ["upper", path, str(divisor)])
    assert code == 0
    assert "5/2" in out


def test_upper_insufficient_multiplicity(tmp_path, capsys):
    path = write_points(tmp_path, "L4Q3-D")
    divisor = tmp_path / "div.json"
    divisor.write_text(json.dumps({"m": 2, "terms": [
        {"coeff": 2, "line": [0, 1]},
    ]}))
    code, out = run(capsys, ["upper", path, str(divisor)])
    assert code == cli.EXIT_CHECK_FAILED
    assert "multiplicity" in out


def test_fixture_command(tmp_path, capsys):
    code, out = run(capsys, ["--json", "fixture", "CONIC8-CONC4"])
    assert code == 0
    blob = json.loads(out)
    assert blob["expected"] == {"exact": "5/2"}
    assert len(blob["points"]) == 9
    code, out = run(capsys, ["fixture", "NOPE"])
    assert code == cli.EXIT_INPUT_ERROR


def test_check_fixture_ok(capsys):
    code, out = run(capsys, ["check", "--fixture", "L4Q3-D"])
    assert code == 0
    assert out.startswith("ok")


def test_check_catches_a_floor_above_alpha(monkeypatch):
    # L4Q3-D has value 5/2; a verifying certificate of another system claims 3
    lying = ClassificationResult("fallback/bounds", None, Fraction(3), Fraction(3),
                                 {"lower": GOLDEN["cubic9/smooth"].certificate()}, [])
    monkeypatch.setattr(cli, "classify", lambda points, **kwargs: lying)
    res, problems = cli.check_points(fixture("L4Q3-D").points, cli.RunConfig())
    assert problems == ["alpha(2X) = 5 is below the certified floor 6"]


def test_check_requires_target(capsys):
    code, out = run(capsys, ["check"])
    assert code == cli.EXIT_INPUT_ERROR


def test_runconfig_validation():
    with pytest.raises(ValueError):
        cli.RunConfig(m_max=0)

