"""Multiconductor transmission-line (MTL) primitives on a uniform frequency grid.

Per-frequency L x L matrices are stacked into complex arrays of shape
(n_f, L, L) so every operation is vectorized across the grid and free of
shared state.  Each response has one evaluation route here, built on exact
solves; the closed-form and echo-series forms that cross-check them live in
``plnsim.oracles``.

Conventions used throughout the package:

* current-wave reflection: a load Y_L on a line with characteristic
  admittance Y_C reflects with rho_L = Y_C (Y_L + Y_C)^-1 (Y_L - Y_C) Y_C^-1,
  so an open end gives -I and a short gives +I;
* the modal frame of a line is the similarity transform T that diagonalizes
  Y(f) Z(f), where Z = R + j 2 pi f L and Y = G + j 2 pi f C; the modal
  counterpart of a matrix A is A_m = T^-1 A T.  Line functions take their
  far-end reflection in the natural frame and make this change themselves;
* the propagation constant branch satisfies Re(gamma) >= 0 (ties resolved
  with Im(gamma) >= 0) so exp(-gamma * length) is non-expanding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DecompositionError, SingularityError, ValidationError

__all__ = [
    "FrequencyGrid",
    "CableSpec",
    "PropagationParams",
    "MatrixSpectrum",
    "SPECTRUM_KINDS",
    "line_propagation_params",
    "load_reflection",
    "modal_transform",
    "input_admittance_line",
    "input_reflection",
    "echo_voltage",
    "ctf_line",
]

TWO_PI = 2.0 * np.pi

SPECTRUM_KINDS = ("admittance", "reflection", "ctf", "delta")

# relative tolerance for the off-diagonal residual of T^-1 (YZ) T
DIAGONALIZATION_RTOL = 1e-9


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid f_k = f_start + k * f_step, k = 0 .. n_points-1."""

    f_start: float  # Hz, > 0
    f_step: float   # Hz, > 0
    n_points: int   # >= 2

    def __post_init__(self):
        if self.f_start <= 0.0:
            raise ValidationError("f_start must be positive (grids start above DC)")
        if self.f_step <= 0.0:
            raise ValidationError("f_step must be positive")
        if self.n_points < 2:
            raise ValidationError("a frequency grid needs at least 2 points")

    @cached_property
    def frequencies(self) -> np.ndarray:
        """The grid points, built once per grid and returned read-only."""
        f = self.f_start + self.f_step * np.arange(self.n_points)
        f.flags.writeable = False
        return f

    @property
    def f_max(self) -> float:
        return self.f_start + self.f_step * (self.n_points - 1)


@dataclass(eq=False)
class CableSpec:
    """Per-unit-length parameter model of an L-conductor cable.

    ``rlgc(f)`` maps a 1-D frequency array (n_f,) to the four real symmetric
    matrices R (ohm/m), L (H/m), G (S/m), C (F/m) stacked as (n_f, L, L)
    arrays.  R and G may be zero (lossless limit); L and C must be positive
    definite with strictly positive diagonals.
    """

    label: str
    n_conductors: int
    rlgc: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    meta: dict | None = None  # parametric description, used by the file layer


@dataclass(eq=False)
class PropagationParams:
    """Per-frequency modal description of one cable on one grid."""

    grid: FrequencyGrid
    gamma: np.ndarray   # (n_f, L) complex, diagonal of the modal propagation matrix, 1/m
    t: np.ndarray       # (n_f, L, L) complex, current eigenvector matrix
    t_inv: np.ndarray   # (n_f, L, L)
    yc: np.ndarray      # (n_f, L, L) characteristic admittance, S
    zc: np.ndarray      # (n_f, L, L) characteristic impedance, ohm

    @property
    def n_conductors(self) -> int:
        return self.gamma.shape[1]


@dataclass(eq=False)
class MatrixSpectrum:
    """Frequency-indexed L x L complex matrix signal."""

    grid: FrequencyGrid
    values: np.ndarray  # (n_points, L, L) complex
    kind: str           # one of SPECTRUM_KINDS

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 3 or self.values.shape[1] != self.values.shape[2]:
            raise ValidationError("spectrum values must have shape (n_f, L, L)")
        if self.values.shape[0] != self.grid.n_points:
            raise ValidationError("spectrum length does not match its grid")
        if self.kind not in SPECTRUM_KINDS:
            raise ValidationError(f"unknown spectrum kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            bad = int(np.argwhere(~np.isfinite(self.values))[0, 0])
            raise ValidationError(
                f"non-finite spectrum entry at f = {self.grid.frequencies[bad]:.6g} Hz")

    @property
    def n_conductors(self) -> int:
        return self.values.shape[1]

    def entry(self, row: int, col: int) -> np.ndarray:
        return self.values[:, row, col]


# ---------------------------------------------------------------------------
# batched linear algebra helpers

def _worst(mats: np.ndarray) -> int:
    with np.errstate(all="ignore"):
        dets = np.abs(np.linalg.det(mats))
    dets = np.nan_to_num(dets, nan=0.0)
    return int(np.argmin(dets))


def _singular(context: str, f: np.ndarray | None, k: int) -> SingularityError:
    return SingularityError(context, frequency_hz=None if f is None else float(f[k]),
                            index=k)


def _scalar_divide(num: np.ndarray, den: np.ndarray, f: np.ndarray | None,
                   context: str) -> np.ndarray:
    """num / den for a 1 x 1 divisor stack; like LAPACK, only an exactly zero
    entry counts as singular."""
    zero = den == 0
    if np.any(zero):
        raise _singular(context, f, int(np.flatnonzero(zero)[0]))
    return num / den


def _solve(a: np.ndarray, b: np.ndarray, f: np.ndarray | None, context: str) -> np.ndarray:
    """a^-1 b with singularities reported against the frequency grid.  A
    1 x 1 system is an elementwise division, any other a batched solve."""
    if a.shape[-1] == 1:
        return _scalar_divide(b, a, f, context)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise _singular(context, f, _worst(a)) from exc


def _rdiv(a: np.ndarray, b: np.ndarray, f: np.ndarray | None, context: str) -> np.ndarray:
    """a b^-1: an elementwise division for 1 x 1 b, else a transposed solve."""
    if b.shape[-1] == 1:
        return _scalar_divide(a, b, f, context)
    bt = np.swapaxes(b, -1, -2)
    at = np.swapaxes(a, -1, -2)
    try:
        return np.swapaxes(np.linalg.solve(bt, at), -1, -2)
    except np.linalg.LinAlgError as exc:
        raise _singular(context, f, _worst(b)) from exc


def _sandwich(e: np.ndarray, a: np.ndarray) -> np.ndarray:
    """diag(e) @ a @ diag(e) for per-frequency diagonals e of shape (n_f, L)."""
    return e[:, :, None] * a * e[:, None, :]


def _eye_like(a: np.ndarray) -> np.ndarray:
    return np.eye(a.shape[-1])


# ---------------------------------------------------------------------------
# cable validation and modal decomposition

def _check_symmetric(name: str, m: np.ndarray, scale: float) -> None:
    if np.max(np.abs(m - np.swapaxes(m, -1, -2))) > 1e-9 * (scale + 1e-300):
        raise ValidationError(f"{name} matrix is not symmetric")


def _validate_rlgc(cable: CableSpec, f: np.ndarray,
                   mats: tuple[np.ndarray, ...]) -> None:
    names = ("R", "L", "G", "C")
    L = cable.n_conductors
    for name, m in zip(names, mats):
        if m.shape != (f.size, L, L):
            raise ValidationError(
                f"cable {cable.label!r}: {name}(f) has shape {m.shape}, "
                f"expected {(f.size, L, L)}")
        _check_symmetric(f"cable {cable.label!r} {name}", m, float(np.max(np.abs(m))))
    r, l, g, c = mats
    diag = np.arange(L)
    if np.any(r[:, diag, diag] < 0) or np.any(g[:, diag, diag] < 0):
        raise ValidationError(f"cable {cable.label!r}: R and G diagonals must be >= 0")
    for name, m in (("L", l), ("C", c)):
        if np.any(m[:, diag, diag] <= 0):
            raise ValidationError(
                f"cable {cable.label!r}: {name} diagonal must be strictly positive")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValidationError(
                f"cable {cable.label!r}: {name}(f) is not positive definite") from None


def _normalize_columns(v: np.ndarray) -> np.ndarray:
    """Unit-norm columns with the first significant component rotated onto the
    positive real axis.  Column phase never changes any response (everything
    is a T ... T^-1 sandwich); this only makes T reproducible."""
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    first = np.argmax(np.abs(v) > 1e-12, axis=1)           # (n_f, L) per column
    pivot = np.take_along_axis(v, first[:, None, :], axis=1)[:, 0, :]
    phase = pivot / np.abs(pivot)
    return v * np.conj(phase)[:, None, :]


@lru_cache(maxsize=256)
def line_propagation_params(cable: CableSpec, grid: FrequencyGrid) -> PropagationParams:
    """Modal decomposition of one cable over one grid.

    Diagonalizes Y(f) Z(f) = T Gamma^2 T^-1 per frequency with a
    Re(gamma) >= 0 branch, tracks mode order across the sweep so per-mode
    curves stay continuous, and derives Z_C = Z T Gamma^-1 T^-1, Y_C = Z_C^-1.
    Results are cached per (cable, grid) pair; the returned object is shared
    and its arrays are returned read-only.
    """
    f = grid.frequencies
    mats = tuple(np.asarray(m, dtype=float) for m in cable.rlgc(f))
    _validate_rlgc(cable, f, mats)
    r, l, g, c = mats
    jw = 1j * TWO_PI * f[:, None, None]
    z = r + jw * l
    y = g + jw * c
    a = y @ z

    w, v = np.linalg.eig(a)
    gamma = np.sqrt(w.astype(complex))
    flip = (gamma.real < 0) | ((gamma.real == 0) & (gamma.imag < 0))
    gamma = np.where(flip, -gamma, gamma)
    v = _normalize_columns(v)

    n_f, L = gamma.shape
    if L > 1:
        # scipy is loaded only for coupled cables; its tie-break between
        # degenerate modes is part of the recorded mode order
        from scipy.optimize import linear_sum_assignment

        order0 = np.lexsort((gamma[0].real, gamma[0].imag))
        v[0] = v[0][:, order0]
        gamma[0] = gamma[0][order0]
        for k in range(1, n_f):
            overlap = np.abs(v[k - 1].conj().T @ v[k])
            _, cols = linear_sum_assignment(-overlap)
            v[k] = v[k][:, cols]
            gamma[k] = gamma[k][cols]

    try:
        t_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        k = _worst(v)
        raise DecompositionError(
            f"cable {cable.label!r}: eigenvector matrix is singular "
            "(defective propagation operator)", frequency_hz=float(f[k])) from exc

    resid = t_inv @ a @ v
    diag = np.arange(L)
    off = resid.copy()
    off[:, diag, diag] = 0.0
    scale = np.linalg.norm(a, axis=(1, 2)) + 1e-300
    rel = np.linalg.norm(off, axis=(1, 2)) / scale
    if np.any(rel > DIAGONALIZATION_RTOL):
        k = int(np.argmax(rel))
        raise DecompositionError(
            f"cable {cable.label!r}: diagonalization residual {rel[k]:.3g} exceeds "
            f"{DIAGONALIZATION_RTOL:g}", frequency_hz=float(f[k]))

    if np.any(np.abs(gamma) == 0.0):
        k = int(np.argwhere(np.abs(gamma) == 0)[0, 0])
        raise DecompositionError(
            f"cable {cable.label!r}: zero propagation constant",
            frequency_hz=float(f[k]))

    zc = z @ (v / gamma[:, None, :]) @ t_inv
    try:
        yc = np.linalg.inv(zc)
    except np.linalg.LinAlgError as exc:
        k = _worst(zc)
        raise DecompositionError(
            f"cable {cable.label!r}: characteristic impedance is singular",
            frequency_hz=float(f[k])) from exc

    for arr in (gamma, v, t_inv, yc, zc):
        arr.flags.writeable = False
    return PropagationParams(grid=grid, gamma=gamma, t=v, t_inv=t_inv, yc=yc, zc=zc)


# ---------------------------------------------------------------------------
# reflection coefficients, admittances, transfer

def load_reflection(y_l: np.ndarray, y_c: np.ndarray,
                    f: np.ndarray | None = None) -> np.ndarray:
    """rho_L = Y_C (Y_L + Y_C)^-1 (Y_L - Y_C) Y_C^-1 (current convention)."""
    inner = _rdiv(y_l - y_c, y_c, f, "characteristic admittance is singular")
    return y_c @ _solve(y_l + y_c, inner, f,
                        "matched-degenerate load: Y_L + Y_C is singular")


def modal_transform(a: np.ndarray, t: np.ndarray,
                    f: np.ndarray | None = None) -> np.ndarray:
    """Modal counterpart T^-1 A T of a natural-frame matrix A."""
    return _solve(t, a @ t, f, "transformation matrix is singular")


def input_admittance_line(params: PropagationParams, length: float,
                          rho_l: np.ndarray) -> np.ndarray:
    """Input admittance of one line section of given length whose far end has
    natural-frame reflection rho_l:

        Y_in = T (I + P) (I - P)^-1 T^-1 Y_C,   P = E rho^M E,

    with rho^M = T^-1 rho_l T and E = exp(-Gamma length).  The middle
    inverse is evaluated with an exact linear solve.
    """
    if length < 0:
        raise ValidationError("line length must be >= 0")
    f = params.grid.frequencies
    rho_m = modal_transform(rho_l, params.t, f)
    e = np.exp(-params.gamma * length)
    p = _sandwich(e, rho_m)
    i = _eye_like(p)
    w = _rdiv(i + p, i - p, f, "reflection resonance: I - E rho E is singular")
    return params.t @ w @ params.t_inv @ params.yc


def input_reflection(y_in: np.ndarray, y_r: np.ndarray,
                     f: np.ndarray | None = None) -> np.ndarray:
    """rho_in = Y_R (Y_in + Y_R)^-1 (Y_in - Y_R) Y_R^-1."""
    inner = _rdiv(y_in - y_r, y_r, f, "source admittance is singular")
    return y_r @ _solve(y_in + y_r, inner, f, "Y_in + Y_R is singular")


def echo_voltage(rho_in: np.ndarray, y_r: np.ndarray, v_source: np.ndarray,
                 f: np.ndarray | None = None) -> np.ndarray:
    """Echo returned to the source: V_echo = -Y_R^-1 rho_in Y_R V_source."""
    L = rho_in.shape[-1]
    v = np.broadcast_to(np.asarray(v_source, dtype=complex), rho_in.shape[:-2] + (L,))
    rhs = rho_in @ (y_r @ v[..., None])
    return -_solve(y_r, rhs, f, "source admittance is singular")[..., 0]


def ctf_line(params: PropagationParams, length: float,
             rho_l: np.ndarray) -> np.ndarray:
    """Voltage transfer across one line section terminated by natural-frame
    reflection rho_l:

        H = Y_C^-1 T (I - rho^M) (I - E^2 rho^M)^-1 E T^-1 Y_C

    with rho^M = T^-1 rho_l T and E = exp(-Gamma length), all inverses exact.
    """
    if length < 0:
        raise ValidationError("line length must be >= 0")
    f = params.grid.frequencies
    rho_m = modal_transform(rho_l, params.t, f)
    e = np.exp(-params.gamma * length)
    i = _eye_like(rho_m)
    den = i - (e * e)[:, :, None] * rho_m
    inner = _rdiv(i - rho_m, den, f,
                  "transmission resonance: I - E^2 rho is singular")
    inner = inner * e[:, None, :]
    return _solve(params.yc, params.t @ inner @ params.t_inv @ params.yc, f,
                  "characteristic admittance is singular")
