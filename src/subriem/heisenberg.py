"""Closed-form geodesics, Jacobi propagator and conjugate locus of the
Heisenberg group.

Everything here is evaluated from explicit formulas (trigonometric in
theta = alpha0 * t), making this module the exact oracle for the numeric flow.
Terms that are 0/0 at alpha0 = 0 are computed through scalar kernels with
Taylor branches near theta = 0 (cut 1e-4, or 1e-2 with longer series for the
kernels whose direct evaluation cancels at second order), so all maps extend
smoothly to alpha0 = 0.

Notation, with base point (x0, y0, tau0) and covector (u0, v0, alpha0):

    xi0  = u0 - alpha0*y0/2        eta0  = v0 + alpha0*x0/2
    xi0t = u0 + alpha0*y0/2        eta0t = v0 - alpha0*x0/2
    z0 = x0 + i y0   w0 = u0 + i v0   zeta0 = xi0 + i eta0

The fiber Hamiltonian is H = |zeta0|^2 / 2.  A covector with H != 0 is
conjugate iff phi(alpha0) = alpha0 sin(alpha0) + 2 cos(alpha0) - 2 = 0 and
alpha0 != 0; the kernel of the exponential differential is one-dimensional,
tangent to the conjugate plane on the sin(alpha0) = 0 branch (class C1,
kernel (-eta0, xi0, 0)) and transverse on the tan(alpha0/2) = alpha0/2
branch (class C0, kernel ((eta0+y0)/2, -(xi0+x0)/2, 1)).

Collisions use the group's left invariance: exp at (z0, tau0) is the left
translate by (z0, tau0) of exp at the identity from (zeta0, alpha0), so two
covectors over one base point share an image iff their translates do.  At
the identity the time-one image is

    z' = zeta0 e^{i alpha0/2} s(alpha0),        s(a) = 2 sin(a/2) / a,
    tau' = |zeta0|^2 (alpha0 - sin alpha0) / (2 alpha0^2) = |z'|^2 F(alpha0),
                                                F(a) = (a - sin a) / (8 sin^2(a/2)),

with tau(1) = tau0 + Im(conj(z0) z')/2 + tau'.  Rotating zeta0 keeps tau'
and, where s(alpha0) = 0, z' = 0: that circle is the C1 collapse.  F'(a) is
-phi(a) / (16 sin^4(a/2)), so F is critical exactly at the fold roots, and a
fold collision is a pair alpha1, alpha2 on either side of one with
F(alpha1) = F(alpha2) and zeta scaled and rotated to keep z'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SearchFailureError, ZeroHamiltonianError

_TAYLOR_CUT = 1e-4

#: tolerance on phi(alpha0) for declaring a covector conjugate
CONJUGATE_TOL = 1e-10


# ---------------------------------------------------------------------------
# scalar kernels with Taylor branches (all smooth through theta = 0)

def _k_f1(th):
    """(1 - cos th) / th"""
    if abs(th) < _TAYLOR_CUT:
        return th / 2 - th ** 3 / 24
    return (1 - math.cos(th)) / th


def _k_f2(th):
    """sin th / th"""
    if abs(th) < _TAYLOR_CUT:
        return 1 - th ** 2 / 6 + th ** 4 / 120
    return math.sin(th) / th


def _k_f1p(th):
    """(th sin th - (1 - cos th)) / th^2  (derivative of _k_f1)

    Direct evaluation loses eps/th^2 absolutely, so the (longer) series is
    used on a wider band than for the first-order kernels.
    """
    if abs(th) < 1e-2:
        return 0.5 - th ** 2 / 8 + th ** 4 / 144 - th ** 6 / 5760
    return (th * math.sin(th) - (1 - math.cos(th))) / th ** 2


def _k_g(th):
    """(th cos th - sin th) / th^2  (derivative of _k_f2)"""
    if abs(th) < 1e-2:
        return -th / 3 + th ** 3 / 30 - th ** 5 / 840
    return (th * math.cos(th) - math.sin(th)) / th ** 2


def _k_s2(th):
    """(th - sin th) / th^2"""
    if abs(th) < _TAYLOR_CUT:
        return th / 6 - th ** 3 / 120
    return (th - math.sin(th)) / th ** 2


def _k_w(th):
    """(th (1 + cos th) - 2 sin th) / th^3"""
    if abs(th) < 1e-2:
        return -1 / 6 + th ** 2 / 40 - th ** 4 / 1008 + th ** 6 / 51840
    return (th * (1 + math.cos(th)) - 2 * math.sin(th)) / th ** 3


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeisCovector:
    """Base point and covector of the Heisenberg group, with derived quantities
    recomputed on access (never stored stale)."""

    base: tuple[float, float, float]
    cov: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(float(v) for v in self.base))
        object.__setattr__(self, "cov", tuple(float(v) for v in self.cov))
        if len(self.base) != 3 or len(self.cov) != 3:
            raise ValueError("base and covector must be 3-vectors")

    @property
    def alpha0(self) -> float:
        return self.cov[2]

    @property
    def xi0(self) -> float:
        return self.cov[0] - self.alpha0 * self.base[1] / 2

    @property
    def xi0_tilde(self) -> float:
        return self.cov[0] + self.alpha0 * self.base[1] / 2

    @property
    def eta0(self) -> float:
        return self.cov[1] + self.alpha0 * self.base[0] / 2

    @property
    def eta0_tilde(self) -> float:
        return self.cov[1] - self.alpha0 * self.base[0] / 2

    @property
    def z0(self) -> complex:
        return complex(self.base[0], self.base[1])

    @property
    def w0(self) -> complex:
        """Covector components u0 + i v0 (the complex variable of the closed forms)."""
        return complex(self.cov[0], self.cov[1])

    @property
    def zeta0(self) -> complex:
        """Horizontal momenta xi0 + i eta0; |zeta0|^2 = 2 H."""
        return complex(self.xi0, self.eta0)

    @property
    def hamiltonian(self) -> float:
        return 0.5 * abs(self.zeta0) ** 2


def phi_conjugate(alpha: float) -> float:
    """Conjugate-point indicator phi(alpha) = alpha sin alpha + 2 cos alpha - 2."""
    return alpha * math.sin(alpha) + 2 * math.cos(alpha) - 2


def heis_exp_closed(hc: HeisCovector, t: float):
    """Closed-form extremal: returns (z(t), tau(t), w(t), alpha) with
    z = x + iy the configuration, w = u + iv the linear momenta."""
    tau0 = hc.base[2]
    al = hc.cov[2]
    z0, w0, zeta0 = hc.z0, hc.w0, hc.zeta0
    th = al * t
    s, c = math.sin(th), math.cos(th)
    z = z0 + t * zeta0 * complex(_k_f2(th), _k_f1(th))
    tau = (tau0
           + 0.5 * (z0.conjugate() * w0).imag * t
           + 0.5 * t * (z0.conjugate() * w0).real * _k_f1(th)
           + abs(z0) ** 2 * (th + s) / 8
           + 0.5 * abs(w0) ** 2 * t * t * _k_s2(th))
    w = w0 + 0.5 * zeta0 * complex(c - 1.0, s)
    return z, tau, w, al


def heis_state(hc: HeisCovector, t: float) -> np.ndarray:
    """Phase state (x, y, tau, u, v, alpha) at time t, (q, p) ordering."""
    z, tau, w, al = heis_exp_closed(hc, t)
    return np.array([z.real, z.imag, tau, w.real, w.imag, al])


def heis_exp_point(hc: HeisCovector, t: float = 1.0) -> np.ndarray:
    """Configuration (x, y, tau) reached at time t."""
    z, tau, _, _ = heis_exp_closed(hc, t)
    return np.array([z.real, z.imag, tau])


def heis_jacobi_matrix(hc: HeisCovector, t: float) -> np.ndarray:
    """Fundamental matrix M(t) of the linearized flow, in (p, x) block order
    (rows and columns ordered du, dv, dalpha, dx, dy, dtau); M(0) = I."""
    x0, y0, _ = hc.base
    u0, v0, al = hc.cov
    xi0, eta0 = hc.xi0, hc.eta0
    z0, w0 = hc.z0, hc.w0
    th = al * t
    s, c = math.sin(th), math.cos(th)
    f1k, f2k = _k_f1(th), _k_f2(th)
    f1p, gk = _k_f1p(th), _k_g(th)
    s2k, wk = _k_s2(th), _k_w(th)

    f1 = (y0 - (2 * t * eta0 + y0) * c - (2 * t * xi0 + x0) * s) / 4
    f2 = (-x0 + (2 * t * xi0 + x0) * c - (2 * t * eta0 + y0) * s) / 4
    f3 = t * t * (u0 * gk - v0 * f1p) - 0.5 * t * (x0 * s + y0 * c)
    f4 = t * t * (u0 * f1p + v0 * gk) + 0.5 * t * (x0 * c - y0 * s)
    f5 = -0.5 * y0 * t + 0.5 * x0 * t * f1k + u0 * t * t * s2k
    f6 = 0.5 * x0 * t + 0.5 * y0 * t * f1k + v0 * t * t * s2k
    zw = (z0.conjugate() * w0).real
    f7 = (0.5 * t * t * zw * f1p + t * abs(z0) ** 2 * (1 + c) / 8
          - 0.5 * t ** 3 * abs(w0) ** 2 * wk)
    f8 = 0.5 * t * eta0 + 0.5 * u0 * t * f1k + 0.25 * x0 * s
    f9 = -0.5 * t * xi0 + 0.5 * v0 * t * f1k + 0.25 * y0 * s

    half = (1 + c) / 2
    return np.array([
        [half, -s / 2, f1, -al * s / 4, al * (1 - c) / 4, 0.0],
        [s / 2, half, f2, -al * (1 - c) / 4, -al * s / 4, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [t * f2k, -t * f1k, f3, half, -s / 2, 0.0],
        [t * f1k, t * f2k, f4, s / 2, half, 0.0],
        [f5, f6, f7, f8, f9, 1.0],
    ])


def heis_d_exp(hc: HeisCovector) -> np.ndarray:
    """Closed-form Jacobian of the exponential map at the covector of ``hc``:
    the 3x3 map d(lambda0) -> dq(1), i.e. the bottom-left block of M(1)."""
    return heis_jacobi_matrix(hc, 1.0)[3:, :3]


def heis_frame_blocks(hc: HeisCovector, t: float):
    """Closed-form frame matrices (A, B, R) of the Jacobi system along the
    extremal, in the global Darboux frame.

    The third column of B is expressed through the geodesic position
    (B13 = -y(t)/2, B23 = x(t)/2, B33 = |z(t)|^2/4), which equals the
    trigonometric display with the xi/eta shorthands.
    """
    u0, v0, al = hc.cov
    xi0, eta0 = hc.xi0, hc.eta0
    xi0t, eta0t = hc.xi0_tilde, hc.eta0_tilde
    th = al * t
    s, c = math.sin(th), math.cos(th)
    r_mat = np.diag([-al * al / 4, -al * al / 4, 0.0])
    a_mat = np.array([
        [0.0, -al / 2, 0.0],
        [al / 2, 0.0, 0.0],
        [-(eta0t - 3 * (eta0 * c + xi0 * s)) / 4,
         (xi0t - 3 * (xi0 * c - eta0 * s)) / 4, 0.0],
    ])
    z, _, _, _ = heis_exp_closed(hc, t)
    x_t, y_t = z.real, z.imag
    b_mat = np.array([
        [1.0, 0.0, -y_t / 2],
        [0.0, 1.0, x_t / 2],
        [-y_t / 2, x_t / 2, (x_t * x_t + y_t * y_t) / 4],
    ])
    return a_mat, b_mat, r_mat


# ---------------------------------------------------------------------------
# conjugate locus

class ConjugateRoot(NamedTuple):
    alpha: float
    branch: str  # "sin-zero" (alpha = 2 pi k) or "sin-nonzero" (tan(a/2) = a/2)


def _bisect(fun, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    flo, fhi = fun(lo), fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("bisection bracket does not straddle a root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if fmid == 0.0 or hi - lo < tol:
            return mid
        if flo * fmid < 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def heis_conjugate_roots(limit: float) -> list[ConjugateRoot]:
    """All positive roots of phi(alpha) = alpha sin alpha + 2 cos alpha - 2 in
    (0, limit], sorted, tagged by branch; refined by bisection to 1e-12.

    phi factors as 2 sin(a/2) [a cos(a/2) - 2 sin(a/2)], so the roots are
    alpha = 2 pi k and alpha = 2x with tan x = x, x in (k pi, k pi + pi/2).
    """
    if limit <= 0:
        raise ValueError("limit must be positive")
    roots: list[ConjugateRoot] = []
    k = 1
    while 2 * math.pi * k <= limit * (1 + 1e-15):
        roots.append(ConjugateRoot(2 * math.pi * k, "sin-zero"))
        k += 1
    j = 1
    g = lambda x: math.sin(x) - x * math.cos(x)
    while math.pi * j * 2 <= limit:  # alpha = 2x > 2 pi j: stop once past limit
        lo = math.pi * j + 1e-9
        hi = math.pi * j + math.pi / 2 - 1e-9
        x = _bisect(g, lo, hi, tol=1e-14)
        alpha = 2 * x
        if alpha <= limit * (1 + 1e-15):
            roots.append(ConjugateRoot(alpha, "sin-nonzero"))
        j += 1
    roots.sort(key=lambda r: r.alpha)
    return roots


#: first root of the conjugate condition with sin(alpha) != 0, i.e. the
#: smallest positive solution of tan(alpha/2) = alpha/2 (about 8.98681892)
ALPHA_STAR = 2 * _bisect(lambda x: math.sin(x) - x * math.cos(x),
                         math.pi + 1e-9, 1.5 * math.pi - 1e-9, tol=1e-15)


class ConjugateClass(NamedTuple):
    """Classification of a covector: 'C1' (kernel tangent to the conjugate
    plane, sin alpha0 = 0), 'C0' (fold, sin alpha0 != 0) or 'none'."""

    tag: str
    kernel: np.ndarray | None

    @property
    def is_conjugate(self) -> bool:
        return self.tag in ("C0", "C1")


def classify_conjugate(hc: HeisCovector, tol: float = CONJUGATE_TOL) -> ConjugateClass:
    """Classify a covector with H != 0 by the conjugate condition phi(alpha0) = 0.

    The branch is the factor of phi = 2 sin(a/2) (a cos(a/2) - 2 sin(a/2))
    that vanishes, i.e. the smaller one.  The kernel vectors are the exact
    kernels of the bottom-left block of M(1): span{(-eta0, xi0, 0)} on the
    sin-zero branch and span{((eta0+y0)/2, -(xi0+x0)/2, 1)} on the fold branch.
    """
    if hc.hamiltonian <= 1e-30:
        raise ZeroHamiltonianError("covector lies in the zero level of H")
    al = hc.alpha0
    if al == 0.0 or abs(phi_conjugate(al)) > tol:
        return ConjugateClass("none", None)
    if abs(math.sin(al / 2)) <= abs(al * math.cos(al / 2) - 2 * math.sin(al / 2)):
        kernel = np.array([-hc.eta0, hc.xi0, 0.0])
        return ConjugateClass("C1", kernel)
    x0, y0, _ = hc.base
    kernel = np.array([(hc.eta0 + y0) / 2, -(hc.xi0 + x0) / 2, 1.0])
    return ConjugateClass("C0", kernel)


# ---------------------------------------------------------------------------
# non-injectivity

class CollisionResult(NamedTuple):
    lambda1: np.ndarray
    lambda2: np.ndarray
    image1: np.ndarray
    image2: np.ndarray
    gap: float
    separation: float
    circle_angle: float | None  # C1 case: angle walked along the kernel circle


#: largest image gap of a collision pair
COLLISION_GAP_TOL = 1e-9


def _covector_over(base, zeta: complex, alpha: float) -> np.ndarray:
    """The covector over ``base`` whose translate to the identity has
    horizontal momenta ``zeta`` and vertical component ``alpha``."""
    x0, y0, _ = base
    return np.array([zeta.real + alpha * y0 / 2, zeta.imag - alpha * x0 / 2, alpha])


def _fold_partner(alpha0: float, alpha1: float) -> float:
    """The alpha2 across the fold root alpha0 from alpha1 with
    F(alpha2) = F(alpha1), F(a) = (a - sin a) / (8 sin^2(a/2)).

    Between the multiples of 2 pi around alpha0, where F is unbounded, F is
    monotone on each side of its one extremum alpha0; so the root lies between
    alpha0 and the multiple of 2 pi beyond it if F(alpha1) is beyond F(alpha0)
    as seen from there.  The bisection runs on 8 sin^2(a/2) (F(a) - F(alpha1)),
    which has F's sign changes and no poles.
    """
    k = math.floor(alpha0 / (2 * math.pi))
    far = 2 * math.pi * (k + 1 if alpha1 < alpha0 else k)
    f1 = _k_s2(alpha1) / (2 * _k_f2(alpha1 / 2) ** 2)  # F(alpha1), smooth through 0

    def excess(a):
        return a - math.sin(a) - 8 * f1 * math.sin(a / 2) ** 2

    if excess(alpha0) * far > 0:
        raise SearchFailureError("the kernel step has no partner across the fold "
                                 "(radius too large)")
    return _bisect(excess, min(alpha0, far), max(alpha0, far), tol=4 * math.ulp(alpha0))


def find_collision(hc: HeisCovector, radius: float,
                   class_tol: float = CONJUGATE_TOL) -> CollisionResult:
    """Two distinct covectors within ``radius`` of a conjugate covector with
    the same exponential image (gap <= COLLISION_GAP_TOL, separation >=
    radius/4).

    Both classes are solved in closed form on the translate (zeta, alpha) of
    a covector to the identity (module docstring).  C1 covectors lie on a
    circle |zeta| = const, alpha0 = 2 pi k, that the exponential collapses to
    one point: zeta is rotated by the angle psi that gives the separation
    radius/2.  C0 covectors are fold points: lambda1 steps radius/3 along
    the kernel, alpha2 solves F(alpha2) = F(alpha1) across the fold, and
    zeta2 = zeta1 e^{i(alpha1 - alpha2)/2} s(alpha1)/s(alpha2) keeps z'.

    ``class_tol`` loosens the conjugacy gate for inputs given with truncated
    digits; the gap requirement is enforced on the result either way.
    """
    if not 0 < radius < math.inf:
        raise ValueError("radius must be positive and finite")
    cls = classify_conjugate(hc, tol=class_tol)
    if not cls.is_conjugate:
        raise ValueError("find_collision requires a conjugate covector")
    lam0 = np.asarray(hc.cov, dtype=float)
    base = hc.base

    if cls.tag == "C1":
        rho = abs(hc.zeta0)
        if radius / 2 > 1.999 * rho:
            raise SearchFailureError(
                "kernel circle too small to reach the requested separation")
        psi = 2 * math.asin(radius / 2 / (2 * rho))
        lam1 = lam0.copy()
        lam2 = _covector_over(base, hc.zeta0 * complex(math.cos(psi), math.sin(psi)),
                              hc.alpha0)
    else:
        psi = None
        lam1 = lam0 + radius / 3 * (cls.kernel / np.linalg.norm(cls.kernel))
        al1 = lam1[2]
        al2 = _fold_partner(hc.alpha0, al1)
        half = (al1 - al2) / 2
        zeta2 = (HeisCovector(base, tuple(lam1)).zeta0 * complex(math.cos(half), math.sin(half))
                 * _k_f2(al1 / 2) / _k_f2(al2 / 2))
        lam2 = _covector_over(base, zeta2, al2)

    img1 = heis_exp_point(HeisCovector(base, tuple(lam1)))
    img2 = heis_exp_point(HeisCovector(base, tuple(lam2)))
    gap = float(np.linalg.norm(img1 - img2))
    sep = float(np.linalg.norm(lam1 - lam2))
    if gap > COLLISION_GAP_TOL or sep < radius / 4 or np.linalg.norm(lam2 - lam0) > radius:
        raise SearchFailureError(
            f"{cls.tag} collision missed its targets (gap {gap:.3e}, separation "
            f"{sep:.3e}; the covector may not be conjugate to working precision)")
    return CollisionResult(lam1, lam2, img1, img2, gap, sep, psi)


# ---------------------------------------------------------------------------
# locus scan export

def conjugate_locus_rows(u_values, alpha_values, v0: float = 0.0) -> list[tuple]:
    """Rows (u0, v0, alpha0, conjugate, class, k1, k2, k3) over a parameter
    grid of covectors at the origin."""
    rows = []
    for u0 in u_values:
        for al in alpha_values:
            hc = HeisCovector((0.0, 0.0, 0.0), (float(u0), v0, float(al)))
            cls = classify_conjugate(hc)
            if cls.is_conjugate:
                k = cls.kernel / np.linalg.norm(cls.kernel)
                rows.append((u0, v0, al, 1, cls.tag, k[0], k[1], k[2]))
            else:
                rows.append((u0, v0, al, 0, "-", 0.0, 0.0, 0.0))
    return rows
