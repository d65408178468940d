"""Command-line frontend with machine-readable CSV/JSON output.

Subcommands: geodesic, jacobi, conjugate, maslov, collide, locus, verify.
Each takes only the flags it reads (declared in ``_build_parser``); any other
flag is a usage error.  ``--format`` defaults to csv for geodesic, jacobi and
locus and to json for conjugate, maslov and collide.  All numeric output uses
17 significant digits in JSON and 12 in CSV.  Exit codes: 0 ok, 1 config
error, 2 integration failure, 3 conjugate window endpoint, 4 search failure,
5 verification failure.  ``--stats`` writes the integration's cost record to
stderr as one JSON line and leaves stdout unchanged.  Heisenberg closed forms
(``conjugate`` class tags, ``collide``) apply to a structure with the
Heisenberg fields, whatever its name.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import heisenberg as heis
from . import jacobi as jac
from . import maslov as mas
from . import verify as verify_mod
from .errors import (CrossingEndpointError, DimensionMismatchError,
                     IntegrationError, SearchFailureError, SubriemError,
                     ZeroHamiltonianError)
from .flow import DEFAULT_TOL, integrate_extremal
from .structure import Structure, heisenberg_structure, load_structure, make_structure

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
    if not -np.inf < lo < hi < np.inf:
        raise ConfigError(f"{name} must satisfy finite lo < hi")
    return lo, hi


def _resolve_structure(args) -> Structure:
    if args.structure_file:
        try:
            return load_structure(args.structure_file)
        except (OSError, ValueError, KeyError, TypeError, OverflowError,
                DimensionMismatchError) as exc:
            raise ConfigError(f"could not load structure file: {exc}") from None
    try:
        return make_structure(args.structure)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_tol(tol: float) -> float:
    if not 1e-13 <= tol <= 1e-3:
        raise ConfigError("tolerance must lie in [1e-13, 1e-3]")
    return tol


def _write(args, text: str) -> None:
    """``text`` to the ``--out`` file, or to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, header: list[str], rows: list[list], payload=None) -> None:
    """Write ``rows`` under ``header`` as CSV, or as JSON: ``payload`` if one
    is given, else {header, rows}."""
    if args.format == "json":
        text = _json_dumps({"header": header, "rows": rows} if payload is None else payload) + "\n"
    else:
        text = "".join(",".join(
            cell if isinstance(cell, str) else
            str(cell) if isinstance(cell, (int, np.integer)) else
            CSV_FMT % cell
            for cell in row) + "\n" for row in [header, *rows])
    _write(args, text)


def _is_heisenberg(struct: Structure) -> bool:
    """Whether the Heisenberg closed forms apply: decided by the fields, not
    by the name, which a structure file may claim."""
    return struct.fields == heisenberg_structure().fields


def _write_stats(args, stats) -> None:
    """With ``--stats``, the integration's cost record as one JSON line on
    stderr; ``stats`` is None when nothing was integrated."""
    if args.stats:
        summary = (stats.summary() if stats is not None else
                   {"rhs_rows": 0, "accepted": 0, "rejected": 0, "h_min": None,
                    "h_max": None, "max_error": 0.0})
        sys.stderr.write(json.dumps(summary) + "\n")


def _point_covector(args, n: int):
    point = np.zeros(n) if args.point is None else _parse_vector(args.point, "--point")
    if args.covector is None:
        raise ConfigError("--covector is required")
    covector = _parse_vector(args.covector, "--covector")
    if point.shape != (n,):
        raise ConfigError(f"--point must have {n} components")
    if covector.shape != (n,):
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
        rows = [[0.0, *point, *covector, 0.0]
                + (list(np.eye(2 * n).ravel()) if args.phi else [])]
        stats = None
    else:
        traj = integrate_extremal(struct, point, covector, args.t_max, tol,
                                  samples=args.samples)
        rows = [[t_val, *state, struct.hamiltonian_raw(state[:n], state[n:])]
                + (list(phi.ravel()) if args.phi else [])
                for t_val, state, phi in zip(traj.ts, traj.states, traj.phis)]
        stats = traj.stats
    _emit(args, header, rows)
    _write_stats(args, stats)
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
    _emit(args, header, [[t, *p, *x] for t, p, x in zip(coords.ts, coords.ps, coords.xs)])
    return EXIT_OK


def _conjugate_reports(args):
    """The structure, point and covector of a ``conjugate`` or ``maslov``
    query, its conjugate times in (--t-min, --t-max) and the integration's
    record."""
    struct = _resolve_structure(args)
    tol = _check_tol(args.tol)
    point, covector = _point_covector(args, struct.n)
    if not 0 < args.t_min < args.t_max < np.inf:
        raise ConfigError("need finite 0 < --t-min < --t-max (t = 0 is always a "
                          "crossing: the Jacobi curve starts on the vertical)")
    try:
        reports, stats = mas.count_conjugate_on_ray(struct, point, covector,
                                                    args.t_min, args.t_max, tol)
    except ZeroHamiltonianError:
        raise ConfigError("zero Hamiltonian: the covector generates a trivial geodesic") from None
    return struct, point, covector, reports, stats


def _cmd_conjugate(args) -> int:
    struct, point, covector, reports, stats = _conjugate_reports(args)
    payload = [rep.to_json_dict() for rep in reports]
    header = ["t", "multiplicity", "signature", "bracket_lo", "bracket_hi"]
    rows = [[e["t"], e["multiplicity"], e["signature"], *e["bracket"]] for e in payload]
    if _is_heisenberg(struct):
        header.append("class")
        for rep, entry, row in zip(reports, payload, rows):
            hc = heis.HeisCovector(tuple(point), tuple(rep.t * covector))
            entry["class"] = heis.classify_conjugate(hc, tol=1e-6).tag
            row.append(entry["class"])
    _emit(args, header, rows, payload)
    _write_stats(args, stats)
    return EXIT_OK


def _cmd_maslov(args) -> int:
    _, _, _, reports, stats = _conjugate_reports(args)
    index = sum(rep.signature for rep in reports)
    header = ["index", "t", "multiplicity", "signature", "bracket_lo", "bracket_hi"]
    rows = [[index, rep.t, rep.multiplicity, rep.signature, *rep.bracket]
            for rep in reports] or [[index, "", "", "", "", ""]]
    _emit(args, header, rows,
          {"index": index, "crossings": [rep.to_json_dict() for rep in reports]})
    _write_stats(args, stats)
    return EXIT_OK


def _cmd_collide(args) -> int:
    struct = _resolve_structure(args)
    if not _is_heisenberg(struct):
        raise ConfigError("collide needs the heisenberg structure's fields")
    point, covector = _point_covector(args, struct.n)
    if args.radius is None or not 0 < args.radius < np.inf:
        raise ConfigError("--radius must be a positive finite number")
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
    _emit(args, header, [row], payload)
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
    if not np.isfinite(args.v0):
        raise ConfigError("--v0 must be finite")
    u_vals = np.linspace(u_lo, u_hi, nu)
    a_vals = np.linspace(a_lo, a_hi, na)
    rows = heis.conjugate_locus_rows(u_vals, a_vals, v0=args.v0)
    header = ["u0", "v0", "alpha0", "conjugate", "class", "k1", "k2", "k3"]
    _emit(args, header, [list(row) for row in rows])
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        results = verify_mod.run_suite(args.suite, seed=args.seed,
                                       tol=_check_tol(args.tol))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    failed = [r for r in results if not r.passed]
    _write(args, "".join(res.line() + "\n" for res in results)
           + f"{len(results) - len(failed)}/{len(results)} checks passed\n")
    return EXIT_OK if not failed else EXIT_VERIFY


# ---------------------------------------------------------------------------

#: argparse keywords of every option, by dest; each command sets the defaults
_OPTIONS = {
    "structure": {"help": "registry name: heisenberg or euclidean:n"},
    "structure_file": {"help": "path to a structure JSON file (overrides --structure)"},
    "point": {"help": "base point, comma separated (default the origin)"},
    "covector": {"help": "initial covector, comma separated"},
    "tol": {"type": float, "help": "integrator tolerance in [1e-13, 1e-3]"},
    "t_min": {"type": float},
    "t_max": {"type": float},
    "samples": {"type": int},
    "phi": {"action": "store_true", "help": "append the fundamental-matrix entries row-major"},
    "init_p": {"help": "initial frame-derivative coordinates"},
    "init_x": {"help": "initial value coordinates"},
    "radius": {"type": float},
    "grid": {},
    "u_range": {},
    "alpha_range": {},
    "v0": {"type": float},
    "seed": {"type": int, "help": "seed of the randomized checks"},
    "out": {"help": "output path (default stdout)"},
    "format": {"choices": ("csv", "json"), "help": "output format (default %(default)s)"},
    "stats": {"action": "store_true",
              "help": "write the integration's cost record (rhs_rows, accepted, rejected, "
                      "h_min, h_max, max_error) to stderr as one JSON line"},
}


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process: a parse does not change it."""
    parser = _Parser(prog="subriem",
                     description="Sub-Riemannian geodesics, conjugate points and "
                                 "Maslov indices for polynomial generating families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, **defaults):
        p = sub.add_parser(name, help=help_text)
        for dest, default in defaults.items():
            p.add_argument("--" + dest.replace("_", "-"), default=default, **_OPTIONS[dest])
        p.set_defaults(func=func)
        return p

    ray = {"structure": "heisenberg", "structure_file": None, "point": None,
           "covector": None, "tol": DEFAULT_TOL}
    command("geodesic", _cmd_geodesic, "integrate one normal geodesic to CSV", **ray,
            t_max=1.0, samples=129, phi=False, stats=False, out=None, format="csv")
    command("jacobi", _cmd_jacobi, "propagate one Jacobi field to CSV", **ray,
            t_max=1.0, samples=129, init_p=None, init_x=None, out=None, format="csv")
    command("conjugate", _cmd_conjugate, "conjugate times on a ray, as JSON reports", **ray,
            t_min=0.05, t_max=1.0, stats=False, out=None, format="json")
    command("maslov", _cmd_maslov, "Maslov index of the Jacobi curve over a window", **ray,
            t_min=0.1, t_max=1.0, stats=False, out=None, format="json")
    command("collide", _cmd_collide, "two nearby covectors with equal image",
            structure="heisenberg", structure_file=None, point=None, covector=None,
            radius=None, out=None, format="json")
    command("locus", _cmd_locus, "conjugate-locus classification over a grid, CSV",
            grid="40x40", u_range="0.2:2", alpha_range="0.25:10", v0=0.0, out=None,
            format="csv")
    command("verify", _cmd_verify, "run an invariant battery",
            tol=DEFAULT_TOL, seed=42, out=None).add_argument(
                "suite", help="one of r1, r2, r3, oracle, all")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
