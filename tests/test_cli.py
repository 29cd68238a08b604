import json
from fractions import Fraction

import pytest

from waldschmidt import cli
from waldschmidt.classify import ClassificationResult
from waldschmidt.fixtures import CUBIC9_CURVE, fixture
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


def test_classify_text_output_of_an_interval(tmp_path, capsys):
    path = write_points(tmp_path, "NINE-72")
    code, out = run(capsys, ["classify", path])
    assert code == 0
    lines = out.splitlines()
    assert "family: nine/7conic+2/plain-external" in lines
    assert "interval: [13/5, 3]" in lines
    assert "note: exact value not settled for this family" in lines


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
    # alpha(2X) = 5 < 3 + 3 and alpha(3X) = 7 < 3 + 5: no product attains either
    assert blob["sweep"] == [[1, "3", "3", "search"], [2, "5", "5/2", "search"],
                             [3, "7", "7/3", "search"]]
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


# the nodal cubic x1^2*x2 - x0^3 - x0^2*x2 passes through (0:0:1) of CONIC5,
# so it reaches admission and is rejected there as singular
def test_lower_rejects_unverifiable_cubic(tmp_path, capsys):
    path = write_points(tmp_path, "CONIC5")
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps([
        {"type": "explicit", "degree": 3,
         "coeffs": ["-1", "0", "-1", "0", "0", "0", "0", "1", "0", "0"]},
    ]))
    code, out = run(capsys, ["lower", path, str(aux)])
    assert code == cli.EXIT_INPUT_ERROR
    assert "is not a line, an irreducible conic or a smooth cubic" in out


# x0^2*x2 is reducible, so the LP rejects it and ignores the old
# "attest_irreducible" key, which once admitted it with bound 4/3 above the value 1
def test_lower_rejects_a_reducible_cubic_on_collinear_points(tmp_path, capsys):
    path = write_points(tmp_path, "collinear4", [[1, a, 0] for a in range(1, 5)])
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps([
        {"type": "explicit", "degree": 3, "coeffs": ["0", "0", "1"] + ["0"] * 7,
         "attest_irreducible": True},
    ]))
    code, out = run(capsys, ["lower", path, str(aux)])
    assert code == cli.EXIT_INPUT_ERROR
    assert "is not a line, an irreducible conic or a smooth cubic" in out


def test_lower_admits_the_smooth_cubic_of_cubic9(tmp_path, capsys):
    path = write_points(tmp_path, "CUBIC9")
    aux = tmp_path / "aux.json"
    aux.write_text(json.dumps([{"type": "explicit", **CUBIC9_CURVE.to_json()}]))
    code, out = run(capsys, ["lower", path, str(aux)])
    assert code == 0
    assert "bound: 3\n" in out


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


# without -m this once read the empty scheme as one of unequal multiplicities
@pytest.mark.parametrize("argv", [[], ["-m", "2"]], ids=["no-m", "m-2"])
def test_alpha_rejects_an_empty_scheme(tmp_path, capsys, argv):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"points": []}))
    code, out = run(capsys, ["alpha", str(path)] + argv)
    assert code == cli.EXIT_INPUT_ERROR
    assert out == "input error: scheme must be nonempty\n"


def test_sweep_text_names_how_each_entry_is_certified(tmp_path, capsys):
    path = write_points(tmp_path, "NINE-54")
    code, out = run(capsys, ["--m-max", "2", "sweep", path])
    assert code == 0
    assert out.splitlines() == ["m=1 alpha=3 ratio=3 (search)",
                                "m=2 alpha=6 ratio=3 (product 1+1)", "minimum: 3"]


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


def run_with_bool_point(tmp_path, capsys):
    points = [[True, "0", "1"], ["0", "1", "1"], ["1", "1", "1"]]
    path = write_points(tmp_path, "bool", points)
    return run(capsys, ["alpha", path, "-m", "1"])


def run_with_bool_aux_coeff(tmp_path, capsys):
    return run_with_aux(tmp_path, capsys,
                        [{"type": "explicit", "degree": 1, "coeffs": [True, "0", "0"]}])


def run_with_bool_curve_coeff(tmp_path, capsys):
    terms = [{"coeff": 1, "line": ij} for ij in SIDES_AND_CARRIER[:3]]
    terms.append({"coeff": 2, "curve": {"degree": 1, "coeffs": ["0", "0", True]}})
    return run_with_divisor(tmp_path, capsys, terms)


# JSON true was once read as the rational 1: alpha printed alpha = 2, lower
# "bound: 1" and upper certified 5/2 with the carrier x2 = 0, all with exit 0
@pytest.mark.parametrize("runner", [run_with_bool_point, run_with_bool_aux_coeff,
                                    run_with_bool_curve_coeff],
                         ids=["point-coordinate", "aux-coeff", "divisor-curve-coeff"])
def test_a_bool_rational_is_an_input_error(tmp_path, capsys, runner):
    code, out = runner(tmp_path, capsys)
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error:")


# with no curve through any point every right-hand side is 0, the simplex
# stopped at y = 0 and lower printed the audit's LPInternalError traceback
@pytest.mark.parametrize("specs", [[], [{"type": "explicit", "degree": 1,
                                         "coeffs": ["1", "1", "1"]}]],
                         ids=["no-curve", "line-missing-every-point"])
def test_lower_rejects_aux_through_no_point(tmp_path, capsys, specs):
    code, out = run_with_aux(tmp_path, capsys, specs)
    assert code == cli.EXIT_INPUT_ERROR
    assert out.startswith("input error: bad aux specs: no curve passes through")


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


def test_upper_command_with_a_conic_term(tmp_path, capsys):
    path = write_points(tmp_path, "CONIC5")
    divisor = tmp_path / "div.json"
    divisor.write_text(json.dumps({"m": 1, "terms": [
        {"coeff": 1, "conic": [0, 1, 2, 3, 4]},
    ]}))
    code, out = run(capsys, ["upper", path, str(divisor)])
    assert code == 0
    assert out.splitlines() == ["upper bound: 2 (degree 2 at multiplicity 1)"]


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


# the six vertices of the complete quadrilateral x0 x1 x2 (x0+x1+x2): the
# fallback's sweep attains 2 at m = 2, not at the value's denominator 1
def test_check_reads_the_depth_of_a_fallback_verdict_from_its_sweep(tmp_path, capsys):
    path = write_points(tmp_path, "quadrilateral", [[0, 0, 1], [0, 1, 0], [1, 0, 0],
                                                    [0, 1, -1], [1, 0, -1], [1, -1, 0]])
    code, out = run(capsys, ["check", path])
    assert code == 0
    assert out.startswith("ok")
    assert out.rstrip().endswith("exact 2")


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

