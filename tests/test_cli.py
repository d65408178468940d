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
from subriem.structure import euclidean_structure, save_structure


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


def test_collide_rejections(capsys):
    code, _, err = run(capsys, "collide", "--covector", "1,0,3", "--radius", "0.5")
    assert code == 1
    code, _, err = run(capsys, "collide", "--covector", "1,0,6.283185307",
                       "--radius", "0")
    assert code == 1


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


def test_structure_file_flag(tmp_path, capsys):
    path = tmp_path / "e2.json"
    save_structure(euclidean_structure(2), str(path))
    code, out, _ = run(capsys, "geodesic", "--structure-file", str(path),
                       "--covector", "0.5,0.5", "--samples", "3")
    assert code == 0
    assert out.split("\n")[0] == "t,q1,q2,p1,p2,H"


def test_deterministic_output_files(tmp_path):
    args = ["conjugate", "--covector", "1,0,7", "--t-min", "0.1",
            "--t-max", "1", "--seed", "42"]
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
                                 "window", "tol"]))
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
    else:
        flags["--tol"] = repr(draw(_ANY_FLOAT.filter(lambda t: not 1e-13 <= t <= 1e-3)))
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
