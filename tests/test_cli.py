import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subriem import flow
from subriem.cli import main
from subriem.errors import IntegrationError
from subriem.maslov import _scan_grid, count_conjugate_on_ray


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_geodesic_final_row(capsys):
    code, out, _ = run(capsys, "geodesic", "--structure", "heisenberg",
                       "--point", "0,0,0", "--covector", "1,0,6.283185307",
                       "--t-max", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,q1,q2,q3,p1,p2,p3,H"
    assert len(lines) == 130  # header + 129 samples
    final = [float(v) for v in lines[-1].split(",")]
    assert np.allclose(final[1:4], [0, 0, 0.0795775], atol=1e-6)


def test_geodesic_zero_covector_single_row(capsys):
    code, out, _ = run(capsys, "geodesic", "--covector", "0,0,0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("0,0,0,0,0,0,0,0")


def test_geodesic_missing_covector(capsys):
    code, _, err = run(capsys, "geodesic")
    assert code == 1
    assert "covector" in err


def test_geodesic_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geodesic", "--covector", "1,0,0", "--bogus", "3"])
    assert exc.value.code == 1


def test_geodesic_phi_columns(capsys):
    code, out, _ = run(capsys, "geodesic", "--covector", "1,0,0", "--samples", "3",
                       "--phi")
    header = out.split("\n")[0].split(",")
    assert code == 0
    assert len(header) == 8 + 36


def test_geodesic_tolerance_validation(capsys):
    code, _, err = run(capsys, "geodesic", "--covector", "1,0,0", "--tol", "1")
    assert code == 1
    assert "tolerance" in err


def test_jacobi_command(capsys):
    code, out, _ = run(capsys, "jacobi", "--covector", "1,0,6.283185307179586",
                       "--init-p", "0,1,0", "--init-x", "0,0,0", "--samples", "129")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,p1,p2,p3,x1,x2,x3"
    final = [float(v) for v in lines[-1].split(",")]
    assert np.allclose(final[4:], 0.0, atol=1e-8)  # kernel direction closes up


def test_conjugate_three_reports_for_thirteen(capsys):
    code, out, _ = run(capsys, "conjugate", "--covector", "1,0,13",
                       "--t-min", "0.05", "--t-max", "1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 3
    assert [entry["class"] for entry in payload] == ["C1", "C0", "C1"]
    assert payload[0]["t"] == pytest.approx(2 * math.pi / 13, abs=1e-8)


def test_conjugate_empty_for_euclidean(capsys):
    code, out, _ = run(capsys, "conjugate", "--structure", "euclidean:3",
                       "--covector", "1,0.2,-0.4")
    assert code == 0
    assert json.loads(out) == []


def test_conjugate_zero_hamiltonian(capsys):
    code, _, err = run(capsys, "conjugate", "--covector", "0,0,1")
    assert code == 1
    assert "zero Hamiltonian" in err


def test_conjugate_endpoint_exit_code(capsys):
    code, _, err = run(capsys, "conjugate", "--covector", "1,0,6.283185307179586",
                       "--t-min", "0.05", "--t-max", "1")
    assert code == 3


def test_maslov_index_command(capsys):
    code, out, _ = run(capsys, "maslov", "--covector", "1,0,7",
                       "--t-min", "0.1", "--t-max", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == -1
    assert len(payload["crossings"]) == 1


def test_collide_c1(capsys):
    code, out, _ = run(capsys, "collide", "--covector", "1,0,6.283185307",
                       "--radius", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] <= 1e-9
    assert payload["separation"] >= 0.125
    assert np.allclose(payload["image1"], [0, 0, 1 / (4 * math.pi)], atol=1e-9)


@pytest.mark.parametrize("covector, tag, gap_bound", [
    # 1.1e-7 from 2 pi, inside the 1e-6 gate: this was tagged C0 and given the
    # fold kernel, which has no partner there (exit 4)
    ("1,0,6.2831852", "C1", 1e-9),
    # the fold partner is exact up to rounding
    ("1,0,8.986818916", "C0", 1e-15),
])
def test_collide_truncated_inputs(capsys, covector, tag, gap_bound):
    code, out, _ = run(capsys, "collide", "--covector", covector, "--radius", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == tag
    assert payload["gap"] <= gap_bound


def test_collide_rejections(capsys):
    code, _, err = run(capsys, "collide", "--covector", "1,0,3", "--radius", "0.5")
    assert code == 1
    code, _, err = run(capsys, "collide", "--covector", "1,0,6.283185307",
                       "--radius", "0")
    assert code == 1
    # F(alpha1) lies above the fold's maximum: no partner across the fold
    code, _, err = run(capsys, "collide", "--covector=1,0,-8.986818916", "--radius", "20")
    assert code == 4
    assert "no partner across the fold" in err


def test_locus_output(capsys):
    code, out, _ = run(capsys, "locus", "--grid", "4x5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u0,v0,alpha0,conjugate,class,k1,k2,k3"
    assert len(lines) == 21


def test_verify_r1(capsys):
    code, out, _ = run(capsys, "verify", "r1")
    assert code == 0
    assert "4/4 checks passed" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 1


#: fields d/dq1 and d/dq2 on R^2 (the euclidean:2 structure) in the README file format
E2_FIELDS = [{"components": [[[[0, 0], 1.0]], []]}, {"components": [[], [[[0, 0], 1.0]]]}]


#: the Heisenberg fields (README file format) and the three of euclidean:3
HEIS_FIELDS = [{"components": [[[[0, 0, 0], 1.0]], [], [[[0, 1, 0], -0.5]]]},
               {"components": [[], [[[0, 0, 0], 1.0]], [[[1, 0, 0], 0.5]]]}]
E3_FIELDS = [{"components": [[[[0, 0, 0], 1.0]] if i == k else [] for i in range(3)]}
             for k in range(3)]


def test_heisenberg_name_without_its_fields_gets_no_closed_forms(tmp_path, capsys):
    # the Euclidean exp is injective: a file that only claims the name used to
    # get a "C1" collision (exit 0) and closed-form class tags
    path = tmp_path / "fake.json"
    path.write_text(json.dumps({"name": "heisenberg", "dim": 3, "fields": E3_FIELDS}))
    code, out, err = run(capsys, "collide", "--structure-file", str(path),
                         "--covector", "1,0,6.283185307", "--radius", "0.5")
    assert (code, out) == (1, "")
    assert "heisenberg" in err
    code, out, _ = run(capsys, "conjugate", "--structure-file", str(path),
                       "--covector", "1,0,13", "--format", "csv")
    assert (code, out) == (0, "t,multiplicity,signature,bracket_lo,bracket_hi\n")


def test_heisenberg_fields_under_another_name_get_closed_forms(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"name": "nilpotent-3", "dim": 3, "fields": HEIS_FIELDS}))
    code, out, _ = run(capsys, "conjugate", "--structure-file", str(path),
                       "--covector", "1,0,13")
    assert code == 0
    assert [entry["class"] for entry in json.loads(out)] == ["C1", "C0", "C1"]
    code, out, _ = run(capsys, "conjugate", "--structure-file", str(path),
                       "--covector", "1,0,13", "--format", "csv")
    assert out == run(capsys, "conjugate", "--covector", "1,0,13", "--format", "csv")[1]
    assert out.split("\n")[0].endswith(",class")
    code, out, _ = run(capsys, "collide", "--structure-file", str(path),
                       "--covector", "1,0,6.283185307", "--radius", "0.5")
    assert code == 0
    assert json.loads(out)["class"] == "C1"


@pytest.mark.parametrize("argv, flag", [
    (["geodesic", "--covector", "1,0,2", "--samples", "3"], "--seed=42"),
    (["jacobi", "--covector", "1,0,2", "--samples", "3"], "--seed=42"),
    (["collide", "--covector", "1,0,6.283185307", "--radius", "0.5"], "--seed=42"),
    (["collide", "--covector", "1,0,6.283185307", "--radius", "0.5"], "--tol=1e-10"),
    (["locus", "--grid", "2x2"], "--seed=42"),
    (["locus", "--grid", "2x2"], "--tol=1e-10"),
    (["locus", "--grid", "2x2"], "--structure=heisenberg"),
    (["locus", "--grid", "2x2"], "--structure-file=heisenberg.json"),
    (["locus", "--grid", "2x2"], "--point=0,0,0"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_flag_the_command_does_not_read_is_refused(capsys, argv, flag):
    # these were parsed and ignored (exit 0); each command takes only the
    # flags it reads
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert f"error: unrecognized arguments: {flag}" in captured.err


def test_structure_file_flag(tmp_path, capsys):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps({"name": "euclidean:2", "dim": 2, "fields": E2_FIELDS}))
    code, out, _ = run(capsys, "geodesic", "--structure-file", str(path),
                       "--covector", "0.5,0.5", "--samples", "3")
    assert code == 0
    assert out.split("\n")[0] == "t,q1,q2,p1,p2,H"


@pytest.mark.parametrize("cmd", ["geodesic", "conjugate"])
@pytest.mark.parametrize("data", [
    {"dim": 2, "fields": [{"components": [[[[1.5, 0], 1.0]], []]}, E2_FIELDS[1]]},
    {"dim": 2.7, "fields": E2_FIELDS},
    {"dim": 2, "fields": [{"components": [[[[0, 0], 1.0]]]}]},
    {"dim": 2, "fields": 5},
    {"dim": 2, "fields": [5]},
    {"dim": 2, "fields": [{"components": [[[[10 ** 400, 0], 1.0]], []]}, E2_FIELDS[1]]},
], ids=["fractional-exponent", "fractional-dim", "short-field", "fields-int",
        "fields-int-list", "huge-exponent"])
def test_malformed_structure_file_is_config_error(tmp_path, capsys, cmd, data):
    # each was read silently wrong (exit 0), ran as an integration failure
    # (exit 2) or raised a traceback before it was refused at load time
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, cmd, "--structure-file", str(path), "--covector", "1,0.5")
    assert (code, out) == (1, "")
    assert err.startswith("error: could not load structure file: ")


def test_deterministic_output_files(tmp_path):
    args = ["conjugate", "--covector", "1,0,7", "--t-min", "0.1", "--t-max", "1"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_uses_seventeen_significant_digits(capsys):
    code, out, _ = run(capsys, "maslov", "--covector", "1,0,7")
    match = re.search(r'"t": (\d\.\d+)', out)
    assert match
    digits = match.group(1).replace(".", "").lstrip("0")
    assert len(digits) == 17


def test_geodesic_json_format(capsys):
    code, out, _ = run(capsys, "geodesic", "--covector", "1,0,2", "--samples", "3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["header"][0] == "t"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0][7] == pytest.approx(0.5)


def test_conjugate_csv_format(capsys):
    code, out, _ = run(capsys, "conjugate", "--covector", "1,0,7", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,multiplicity,signature,bracket_lo,bracket_hi,class"
    assert len(lines) == 2
    assert lines[1].endswith("C1")


def test_collide_csv_format(capsys):
    code, out, _ = run(capsys, "collide", "--covector", "1,0,6.283185307",
                       "--radius", "0.5", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("class,lambda1_1")
    assert row.startswith("C1,")


def test_csv_uses_twelve_significant_digits(capsys):
    code, out, _ = run(capsys, "geodesic", "--covector", "1,0,2", "--samples", "3")
    row = out.strip().split("\n")[-1].split(",")
    for cell in row[1:]:
        mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 12


def test_vector_flags_accept_negative_values(capsys):
    code, out, err = run(capsys, "conjugate", "--covector", "-0.57,0.3,5")
    assert code == 0, err
    assert json.loads(out) == []
    code, out, err = run(capsys, "geodesic", "--point", "-1,0,0", "--covector",
                         "-1,0,0", "--samples", "2")
    assert code == 0, err
    assert out.strip().split("\n")[-1].startswith("1,-2,0,0,-1,0,0,")
    code, out, err = run(capsys, "jacobi", "--covector", "1,0,2", "--init-p", "-0,1,0",
                         "--init-x", "-1,0,0", "--samples", "2")
    assert code == 0, err
    assert out.strip().split("\n")[1] == "0,0,1,0,-1,0,0"
    # unambiguous abbreviations of a vector flag take a negative value too
    code, out, err = run(capsys, "conjugate", "--cov", "-0.57,0.3,5", "--po", "-1,0,0")
    assert code == 0, err
    assert json.loads(out) == []
    # ambiguous ones are left for argparse to reject: --init (--init-p, --init-x)
    # and, under geodesic, --p (--point, --phi)
    for argv in (["jacobi", "--covector", "1,0,2", "--init", "-1,0,0"],
                 ["geodesic", "--covector", "1,0,2", "--p", "-1,0,0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "ambiguous option" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--covector", "nan,0,1"),
                                         ("--covector", "1,0,inf"),
                                         ("--point", "nan,0,0")])
def test_non_finite_vector_is_config_error(capsys, flag, value):
    argv = ["conjugate", "--covector", "1,0,7", flag, value]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "non-finite" in err


@pytest.mark.parametrize("cmd", ["conjugate", "maslov"])
@pytest.mark.parametrize("t_min, t_max", [("0", "1"), ("-0.1", "1"), ("0.1", "inf"),
                                          ("nan", "1"), ("0.1", "nan"), ("0.5", "0.2")])
def test_conjugate_window_bounds_are_config_errors(capsys, cmd, t_min, t_max):
    # J(0) = Ver, so t = 0 is always a crossing: a window must start after it
    code, out, err = run(capsys, cmd, "--covector", "1,0,7", "--t-min", t_min,
                         "--t-max", t_max)
    assert code == 1
    assert out == ""
    assert "0 < --t-min < --t-max" in err


@pytest.mark.parametrize("flag", ["--init-p=1,0", "--init-x=0,0,0,1", "--init-p=",
                                  "--init-x=0,nan,0"])
def test_jacobi_bad_initial_data_is_config_error(capsys, flag):
    code, out, err = run(capsys, "jacobi", "--covector", "1,0,2", flag)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("cmd", ["geodesic", "jacobi"])
@pytest.mark.parametrize("t_max", ["nan", "inf", "0"])
def test_non_finite_span_is_config_error(capsys, cmd, t_max):
    code, out, err = run(capsys, cmd, "--covector", "1,0,7", "--t-max", t_max)
    assert code == 1
    assert out == ""
    assert "positive" in err


@pytest.mark.parametrize("argv", [
    ["collide", "--covector", "1,0,6.283185307179586", "--radius=nan"],
    ["collide", "--covector", "1,0,8.986818916", "--radius=inf"],
    ["collide", "--covector", "1,0,6.283185307179586", "--radius=-inf"],
    ["locus", "--grid", "2x2", "--v0=nan"],
    ["locus", "--grid", "2x2", "--v0=inf"],
    ["locus", "--grid", "2x2", "--u-range=nan:1"],
    ["locus", "--grid", "2x2", "--u-range=0.2:nan"],
    ["locus", "--grid", "2x2", "--alpha-range=0.25:inf"],
    ["locus", "--grid", "2x2", "--alpha-range=-inf:10"],
], ids=lambda argv: argv[-1])
def test_non_finite_scalar_is_config_error(capsys, argv):
    # NaN passed `radius <= 0` and `hi <= lo` and printed NaN rows with exit 0;
    # inf failed later on an unrelated error
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ["geodesic", "--covector", "1,0,7", "--samples", "9"],
    ["conjugate", "--covector", "1,0,13", "--format", "json"],
    ["maslov", "--covector", "0.7,-0.4,13", "--format", "csv"],
], ids=lambda argv: argv[0])
def test_stats_flag_writes_cost_record_to_stderr(capsys, heis, argv):
    code, out, err = run(capsys, *argv)
    code_stats, out_stats, err_stats = run(capsys, *argv, "--stats")
    assert code == code_stats == 0
    assert out_stats == out and err == ""
    assert err_stats.count("\n") == 1
    cov = np.array([float(v) for v in argv[2].split(",")])
    if argv[0] == "geodesic":
        stats = flow.integrate_extremal(heis, np.zeros(3), cov, 1.0, samples=9).stats
    else:
        t_min = 0.05 if argv[0] == "conjugate" else 0.1
        stats = count_conjugate_on_ray(heis, np.zeros(3), cov, t_min, 1.0)[1]
    assert json.loads(err_stats) == {
        "rhs_rows": stats.rhs_rows, "accepted": stats.accepted, "rejected": stats.rejected,
        "h_min": stats.h_min, "h_max": stats.h_max, "max_error": stats.max_error}


def test_stats_flag_without_integration(capsys):
    code, _, err = run(capsys, "geodesic", "--covector", "0,0,0", "--stats")
    assert code == 0
    assert json.loads(err) == {"rhs_rows": 0, "accepted": 0, "rejected": 0,
                               "h_min": None, "h_max": None, "max_error": 0.0}


def test_step_budget_exhaustion_exits_two(capsys, heis, monkeypatch):
    monkeypatch.setattr(flow, "_MAX_STEPS", 5)
    with pytest.raises(IntegrationError) as exc:
        flow.integrate_extremal(heis, np.zeros(3), np.array([1.0, 0.0, 13.0]), 1.0,
                                samples=_scan_grid(0.05, 1.0))
    assert str(exc.value).startswith("step budget of 5 steps exhausted at t = ")
    code, out, err = run(capsys, "conjugate", "--covector", "1,0,13", "--stats")
    assert code == 2
    assert out == ""
    assert err == f"error: integration failure: {exc.value}\n"


def _parses(text: str) -> bool:
    try:
        [float(part) for part in text.split(",")]
    except ValueError:
        return False
    return True


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)
_NON_FINITE = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999", "-1e400"])
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


def _joined(values) -> str:
    return ",".join(v if isinstance(v, str) else repr(v) for v in values)


@st.composite
def _malformed(draw):
    """Flags (as ``--flag=value``) that differ from the valid Heisenberg query
    ``--covector=1,0,3`` by one malformed argument."""
    flags = {"--covector": "1,0,3"}
    vector = draw(st.sampled_from(["--covector", "--point"]))
    kind = draw(st.sampled_from(["unparsable", "non-finite", "components", "zero-H",
                                 "window", "tol", "seed"]))
    if kind == "unparsable":
        flags[vector] = draw(st.text("0123456789.,-+eE xa", max_size=12)
                             .filter(lambda text: not _parses(text)))
    elif kind == "non-finite":
        values = draw(st.lists(_FINITE, min_size=3, max_size=3))
        values[draw(st.integers(0, 2))] = draw(_NON_FINITE)
        flags[vector] = _joined(values)
    elif kind == "components":
        flags[vector] = _joined(draw(st.lists(_FINITE, min_size=1, max_size=5)
                                     .filter(lambda v: len(v) != 3)))
    elif kind == "zero-H":
        # on the z axis H = (p1^2 + p2^2) / 2, at most 1e-32 here
        tiny = st.floats(-1e-16, 1e-16)
        flags["--point"] = _joined([0.0, 0.0, draw(_FINITE)])
        flags["--covector"] = _joined([draw(tiny), draw(tiny), draw(_FINITE)])
    elif kind == "window":
        t_min, t_max = draw(st.tuples(_ANY_FLOAT, _ANY_FLOAT)
                            .filter(lambda w: not 0 < w[0] < w[1] < math.inf))
        flags["--t-min"], flags["--t-max"] = repr(t_min), repr(t_max)
    elif kind == "tol":
        flags["--tol"] = repr(draw(_ANY_FLOAT.filter(lambda t: not 1e-13 <= t <= 1e-3)))
    else:
        # only verify reads a seed
        flags["--seed"] = str(draw(st.integers()))
    return [f"{flag}={value}" for flag, value in flags.items()]


@settings(max_examples=150)
@given(cmd=st.sampled_from(["conjugate", "maslov"]), flags=_malformed())
def test_malformed_arguments_exit_one_before_integrating(cmd, flags):
    # every integration entry point (integrate_extremal, the batch, d_exp) runs
    # through flow._integrate, so a spy there sees any integration
    integrations = []
    core = flow._integrate

    def spy(*args, **kwargs):
        integrations.append(args)
        return core(*args, **kwargs)

    out, err = io.StringIO(), io.StringIO()
    flow._integrate = spy
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([cmd, *flags])
            except SystemExit as exc:
                code = exc.code
    finally:
        flow._integrate = core
    assert code == 1, (flags, err.getvalue())
    assert out.getvalue() == ""
    assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    assert integrations == []
