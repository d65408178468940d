"""Command-line frontend with machine-readable CSV/JSON output.

Subcommands: geodesic, jacobi, conjugate, maslov, collide, locus, verify.
All numeric output uses 17 significant digits in JSON and 12 in CSV.
Exit codes: 0 ok, 1 config error, 2 integration failure, 3 conjugate window
endpoint, 4 search failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager

import numpy as np

from . import heisenberg as heis
from . import jacobi as jac
from . import maslov as mas
from . import verify as verify_mod
from .errors import (CrossingEndpointError, IntegrationError, SearchFailureError,
                     SubriemError, ZeroHamiltonianError)
from .flow import integrate_extremal
from .structure import Structure, load_structure, make_structure

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INTEGRATION = 2
EXIT_CONJUGATE_ENDPOINT = 3
EXIT_SEARCH = 4
EXIT_VERIFY = 5

CSV_FMT = "%.12g"
JSON_FMT = "%.17g"


#: flags whose comma-separated value may start with a minus sign
_VECTOR_FLAGS = ("--covector", "--point", "--init-p", "--init-x")
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 1.

    argparse would also read the value in ``--covector -0.57,0.3,5`` as an
    option; a vector flag (or an unambiguous abbreviation of one, such as
    ``--cov``) followed by a value that starts with a negative number is read
    as ``--covector=-0.57,0.3,5``.
    """

    def _names_vector_flag(self, arg: str) -> bool:
        names = [name for name in self._option_string_actions if name.startswith(arg)]
        return arg.startswith("--") and len(names) == 1 and names[0] in _VECTOR_FLAGS

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        joined = []
        for arg in args:
            if (joined and _NEGATIVE_VALUE.match(arg)
                    and self._names_vector_flag(joined[-1])):
                joined[-1] = f"{joined[-1]}={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


class ConfigError(Exception):
    pass


def _json_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_json_dumps(v, indent + 1).lstrip()}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if flat:
            return "[" + ", ".join(_json_dumps(v).lstrip() for v in seq) + "]"
        items = [pad + "  " + _json_dumps(v, indent + 1).lstrip() for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return JSON_FMT % float(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        vec = np.array([float(part) for part in text.split(",")])
    except ValueError:
        raise ConfigError(f"could not parse {name} {text!r} as comma-separated floats") from None
    if not np.all(np.isfinite(vec)):
        raise ConfigError(f"{name} {text!r} has a non-finite entry")
    return vec


def _parse_range(text: str, name: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise ConfigError(f"could not parse {name} {text!r} as lo:hi") from None
    if hi <= lo:
        raise ConfigError(f"{name} must satisfy lo < hi")
    return lo, hi


def _resolve_structure(args) -> Structure:
    if getattr(args, "structure_file", None):
        try:
            return load_structure(args.structure_file)
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"could not load structure file: {exc}") from None
    try:
        return make_structure(args.structure)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_tol(tol: float) -> float:
    if not 1e-13 <= tol <= 1e-3:
        raise ConfigError("tolerance must lie in [1e-13, 1e-3]")
    return tol


@contextmanager
def _output(args):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit_table(args, fh, header: list[str], rows: list[list]) -> None:
    """Write a table as CSV (default) or as JSON {header, rows}."""
    if getattr(args, "format", None) == "json":
        fh.write(_json_dumps({"header": header, "rows": rows}) + "\n")
    else:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                cell if isinstance(cell, str) else
                str(cell) if isinstance(cell, (int, np.integer)) else
                CSV_FMT % cell
                for cell in row) + "\n")


def _emit_records(args, fh, payload, header: list[str], rows: list[list]) -> None:
    """Write records as JSON (default) or flattened CSV rows."""
    if getattr(args, "format", None) == "csv":
        _emit_table(args, fh, header, rows)
    else:
        fh.write(_json_dumps(payload) + "\n")


def _point_covector(args, n: int, covector_required: bool = True):
    point = np.zeros(n) if args.point is None else _parse_vector(args.point, "--point")
    if args.covector is None:
        if covector_required:
            raise ConfigError("--covector is required")
        covector = None
    else:
        covector = _parse_vector(args.covector, "--covector")
    if point.shape != (n,):
        raise ConfigError(f"--point must have {n} components")
    if covector is not None and covector.shape != (n,):
        raise ConfigError(f"--covector must have {n} components")
    return point, covector


# ---------------------------------------------------------------------------
# subcommands

def _cmd_geodesic(args) -> int:
    struct = _resolve_structure(args)
    tol = _check_tol(args.tol)
    point, covector = _point_covector(args, struct.n)
    if not 0 < args.t_max < np.inf:
        raise ConfigError("--t-max must be positive and finite")
    n = struct.n
    header = (["t"] + [f"q{i+1}" for i in range(n)]
              + [f"p{i+1}" for i in range(n)] + ["H"])
    if args.phi:
        header += [f"phi_{r+1}_{c+1}" for r in range(2 * n) for c in range(2 * n)]
    if not covector.any():
        row = [0.0, *point, *covector, 0.0]
        if args.phi:
            row += list(np.eye(2 * n).ravel())
        with _output(args) as fh:
            _emit_table(args, fh, header, [row])
        return EXIT_OK
    traj = integrate_extremal(struct, point, covector, args.t_max, tol,
                              samples=args.samples)
    rows = []
    for t_val, state, phi in zip(traj.ts, traj.states, traj.phis):
        row = [t_val, *state, struct.hamiltonian_raw(state[:n], state[n:])]
        if args.phi:
            row += list(phi.ravel())
        rows.append(row)
    with _output(args) as fh:
        _emit_table(args, fh, header, rows)
    return EXIT_OK


def _cmd_jacobi(args) -> int:
    struct = _resolve_structure(args)
    tol = _check_tol(args.tol)
    point, covector = _point_covector(args, struct.n)
    init_p = (np.eye(struct.n)[0] if args.init_p is None
              else _parse_vector(args.init_p, "--init-p"))
    init_x = (np.zeros(struct.n) if args.init_x is None
              else _parse_vector(args.init_x, "--init-x"))
    if init_p.shape != (struct.n,) or init_x.shape != (struct.n,):
        raise ConfigError(f"--init-p and --init-x must have {struct.n} components")
    traj = integrate_extremal(struct, point, covector, args.t_max, tol,
                              samples=args.samples)
    coords = jac.propagate_jacobi(struct, traj, init_p, init_x)
    n = struct.n
    header = ["t"] + [f"p{i+1}" for i in range(n)] + [f"x{i+1}" for i in range(n)]
    rows = [[t, *p, *x] for t, p, x in zip(coords.ts, coords.ps, coords.xs)]
    with _output(args) as fh:
        _emit_table(args, fh, header, rows)
    return EXIT_OK


def _conjugate_reports(struct, point, covector, t_min, t_max, tol):
    """Conjugate times in (t_min, t_max), shared by ``conjugate`` and ``maslov``."""
    if not 0 < t_min < t_max < np.inf:
        raise ConfigError("need finite 0 < --t-min < --t-max (t = 0 is always a "
                          "crossing: the Jacobi curve starts on the vertical)")
    try:
        return mas.count_conjugate_on_ray(struct, point, covector, t_min, t_max, tol)
    except ZeroHamiltonianError:
        raise ConfigError("zero Hamiltonian: the covector generates a trivial geodesic") from None


def _cmd_conjugate(args) -> int:
    struct = _resolve_structure(args)
    tol = _check_tol(args.tol)
    point, covector = _point_covector(args, struct.n)
    reports = _conjugate_reports(struct, point, covector, args.t_min, args.t_max, tol)
    payload = []
    for rep in reports:
        entry = rep.to_json_dict()
        if struct.name == "heisenberg":
            hc = heis.HeisCovector(tuple(point), tuple(rep.t * covector))
            entry["class"] = heis.classify_conjugate(hc, tol=1e-6).tag
        payload.append(entry)
    header = ["t", "multiplicity", "signature", "bracket_lo", "bracket_hi"]
    if struct.name == "heisenberg":
        header.append("class")
    rows = [[e["t"], e["multiplicity"], e["signature"], e["bracket"][0],
             e["bracket"][1]] + ([e["class"]] if "class" in e else [])
            for e in payload]
    with _output(args) as fh:
        _emit_records(args, fh, payload, header, rows)
    return EXIT_OK


def _cmd_maslov(args) -> int:
    struct = _resolve_structure(args)
    tol = _check_tol(args.tol)
    point, covector = _point_covector(args, struct.n)
    reports = _conjugate_reports(struct, point, covector, args.t_min, args.t_max, tol)
    payload = {
        "index": sum(rep.signature for rep in reports),
        "crossings": [rep.to_json_dict() for rep in reports],
    }
    header = ["index", "t", "multiplicity", "signature", "bracket_lo", "bracket_hi"]
    rows = [[payload["index"], rep.t, rep.multiplicity, rep.signature,
             rep.bracket[0], rep.bracket[1]] for rep in reports]
    if not rows:
        rows = [[payload["index"], "", "", "", "", ""]]
    with _output(args) as fh:
        _emit_records(args, fh, payload, header, rows)
    return EXIT_OK


def _cmd_collide(args) -> int:
    struct = _resolve_structure(args)
    if struct.name != "heisenberg":
        raise ConfigError("collide is available for the heisenberg structure only")
    point, covector = _point_covector(args, struct.n)
    if args.radius is None or args.radius <= 0:
        raise ConfigError("--radius must be a positive number")
    hc = heis.HeisCovector(tuple(point), tuple(covector))
    try:
        # loose gate so covectors entered with truncated digits still qualify;
        # the search enforces the image-gap tolerance regardless
        cls = heis.classify_conjugate(hc, tol=1e-6)
    except ZeroHamiltonianError:
        raise ConfigError("zero Hamiltonian: not a conjugate covector") from None
    if not cls.is_conjugate:
        raise ConfigError("covector is not conjugate; no collision to find")
    result = heis.find_collision(hc, args.radius, class_tol=1e-6)
    payload = {
        "class": cls.tag,
        "lambda1": list(result.lambda1),
        "lambda2": list(result.lambda2),
        "image1": list(result.image1),
        "image2": list(result.image2),
        "gap": result.gap,
        "separation": result.separation,
    }
    if result.circle_angle is not None:
        payload["circle_angle"] = result.circle_angle
    header, row = [], []
    for key, value in payload.items():
        if isinstance(value, list):
            header += [f"{key}_{i+1}" for i in range(len(value))]
            row += value
        else:
            header.append(key)
            row.append(value)
    with _output(args) as fh:
        _emit_records(args, fh, payload, header, row and [row])
    return EXIT_OK


def _cmd_locus(args) -> int:
    try:
        nu, na = (int(part) for part in args.grid.lower().split("x"))
    except ValueError:
        raise ConfigError(f"could not parse --grid {args.grid!r} as NxM") from None
    if nu < 1 or na < 1:
        raise ConfigError("--grid dimensions must be positive")
    u_lo, u_hi = _parse_range(args.u_range, "--u-range")
    a_lo, a_hi = _parse_range(args.alpha_range, "--alpha-range")
    u_vals = np.linspace(u_lo, u_hi, nu)
    a_vals = np.linspace(a_lo, a_hi, na)
    rows = heis.conjugate_locus_rows(u_vals, a_vals, v0=args.v0)
    header = ["u0", "v0", "alpha0", "conjugate", "class", "k1", "k2", "k3"]
    with _output(args) as fh:
        _emit_table(args, fh, header, [list(row) for row in rows])
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = verify_mod.run_suite(args.suite, seed=args.seed,
                                       tol=_check_tol(args.tol))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    with _output(args) as fh:
        for res in results:
            fh.write(res.line() + "\n")
        failed = [r for r in results if not r.passed]
        fh.write(f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return EXIT_OK if not failed else EXIT_VERIFY


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="subriem",
                     description="Sub-Riemannian geodesics, conjugate points and "
                                 "Maslov indices for polynomial generating families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, covector=True):
        p.add_argument("--structure", default="heisenberg",
                       help="registry name: heisenberg or euclidean:n")
        p.add_argument("--structure-file", default=None,
                       help="path to a structure JSON file (overrides --structure)")
        p.add_argument("--point", default=None, help="base point, comma separated")
        if covector:
            p.add_argument("--covector", default=None, help="initial covector, comma separated")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="integrator tolerance in [1e-13, 1e-3]")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (each command has a natural default)")
        p.add_argument("--seed", type=int, default=42, help="seed for randomized scans")

    p = sub.add_parser("geodesic", help="integrate one normal geodesic to CSV")
    common(p)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=129)
    p.add_argument("--phi", action="store_true",
                   help="append the fundamental-matrix entries row-major")
    p.set_defaults(func=_cmd_geodesic)

    p = sub.add_parser("jacobi", help="propagate one Jacobi field to CSV")
    common(p)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=129)
    p.add_argument("--init-p", default=None, help="initial frame-derivative coordinates")
    p.add_argument("--init-x", default=None, help="initial value coordinates")
    p.set_defaults(func=_cmd_jacobi)

    p = sub.add_parser("conjugate", help="conjugate times on a ray, as JSON reports")
    common(p)
    p.add_argument("--t-min", type=float, default=0.05)
    p.add_argument("--t-max", type=float, default=1.0)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("maslov", help="Maslov index of the Jacobi curve over a window")
    common(p)
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=1.0)
    p.set_defaults(func=_cmd_maslov)

    p = sub.add_parser("collide", help="two nearby covectors with equal image")
    common(p)
    p.add_argument("--radius", type=float, default=None)
    p.set_defaults(func=_cmd_collide)

    p = sub.add_parser("locus", help="conjugate-locus classification over a grid, CSV")
    common(p, covector=False)
    p.add_argument("--grid", default="40x40")
    p.add_argument("--u-range", default="0.2:2")
    p.add_argument("--alpha-range", default="0.25:10")
    p.add_argument("--v0", type=float, default=0.0)
    p.set_defaults(func=_cmd_locus)

    p = sub.add_parser("verify", help="run an invariant battery")
    p.add_argument("suite", help="one of r1, r2, r3, oracle, all")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except ZeroHamiltonianError as exc:
        sys.stderr.write(f"error: zero Hamiltonian: {exc}\n")
        return EXIT_CONFIG
    except CrossingEndpointError as exc:
        sys.stderr.write(f"error: conjugate window endpoint: {exc}\n")
        return EXIT_CONJUGATE_ENDPOINT
    except SearchFailureError as exc:
        sys.stderr.write(f"error: search failure: {exc}\n")
        return EXIT_SEARCH
    except IntegrationError as exc:
        sys.stderr.write(f"error: integration failure: {exc}\n")
        return EXIT_INTEGRATION
    except SubriemError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTEGRATION


if __name__ == "__main__":
    sys.exit(main())
