"""Multiconductor transmission-line (MTL) primitives on a uniform frequency grid.

Per-frequency L x L matrices are stacked into complex arrays of shape
(n_f, L, L) so every operation is vectorized across the grid.  Each response
has one evaluation route here, built on exact solves; the closed-form and
echo-series forms that cross-check them live in ``plnsim.oracles``.

Every matrix product and solve goes through two small-matrix kernels that
work entry by entry: a product is, row by row, K multiply-adds of an (n_f,)
entry with an (M, n_f) row, and a solve is Gaussian elimination with partial
pivoting, each step one vectorized operation over the grid.  The pivot is
the first candidate of largest |re| + |im|, as LAPACK izamax picks it, and
only an exactly zero pivot counts as singular, as in LAPACK getrf: it raises
SingularityError at the first frequency that has one (DecompositionError
for the one inverse of the modal decomposition, T^-1).

The kernels and the line functions keep their temporaries in work arrays.
They are thread-local, so threads share none.  They are bounded: one array
per role, replaced when a call needs another shape.  They never escape a
call: every array a function returns is fresh, and cached PropagationParams
stay read-only.  Reusing them keeps the allocator from returning memory to
the system and faulting it back in at every step of a coupled (L >= 2) run.
For the same reason a product of several terms works a row at a time:
numpy copies a broadcast operand into a buffer of up to 8192 elements per
call, 115 KB for a whole (L, 1, n_f) column at L = 3 on 800 points.

Conventions used throughout the package:

* current-wave reflection: a load Y_L on a line with characteristic
  admittance Y_C reflects with rho_L = Y_C (Y_L + Y_C)^-1 (Y_L - Y_C) Y_C^-1,
  so an open end gives -I and a short gives +I.  It is evaluated as the
  identical I - 2 Y_C (Y_L + Y_C)^-1, one solve per reflection;
* the modal frame of a line is the similarity transform T that diagonalizes
  Y(f) Z(f), where Z = R + j 2 pi f L and Y = G + j 2 pi f C; the modal
  counterpart of a matrix A is A_m = T^-1 A T.  Line functions take their
  far-end reflection in the natural frame and make this change themselves,
  as two products on the decomposition's cached T^-1 and T; the transfer's
  closing Y_C^-1 is likewise its cached Z_C;
* the propagation constant branch satisfies Re(gamma) >= 0 (ties resolved
  with Im(gamma) >= 0) so exp(-gamma * length) is non-expanding.
"""

from __future__ import annotations

import threading
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
    "ctf_line",
]

TWO_PI = 2.0 * np.pi

SPECTRUM_KINDS = ("admittance", "reflection", "ctf", "delta")

# relative tolerance for the off-diagonal residual of T^-1 (YZ) T
DIAGONALIZATION_RTOL = 1e-9


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid f_k = f_start + k * f_step, k = 0 .. n_points-1."""

    f_start: float  # Hz, finite, > 0
    f_step: float   # Hz, finite, > 0
    n_points: int   # >= 2

    def __post_init__(self):
        if not (np.isfinite(self.f_start) and self.f_start > 0.0):
            raise ValidationError(
                "f_start must be finite and positive (grids start above DC)")
        if not (np.isfinite(self.f_step) and self.f_step > 0.0):
            raise ValidationError("f_step must be finite and positive")
        if self.n_points < 2:
            raise ValidationError("a frequency grid needs at least 2 points")

    @cached_property
    def frequencies(self) -> np.ndarray:
        """The grid points, built once per grid and returned read-only."""
        f = self.f_start + self.f_step * np.arange(self.n_points)
        f.flags.writeable = False
        return f


@dataclass(frozen=True, eq=False)
class CableSpec:
    """Per-unit-length parameter model of an L-conductor cable.

    ``rlgc(f)`` maps a 1-D frequency array (n_f,) to the four real symmetric
    matrices R (ohm/m), L (H/m), G (S/m), C (F/m) stacked as (n_f, L, L)
    arrays.  R and G may be zero (lossless limit); L and C must be positive
    definite with strictly positive diagonals.  Frozen and hashed by identity,
    as decompositions are cached per cable object; ``dataclasses.replace``
    makes a changed cable.
    """

    label: str
    n_conductors: int
    rlgc: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    meta: dict | None = None  # parametric description, used by the file layer


@dataclass(frozen=True, eq=False)
class PropagationParams:
    """Per-frequency modal description of one cable on one grid.  Frozen,
    with read-only arrays: one cached instance serves every caller."""

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


# ---------------------------------------------------------------------------
# small-matrix kernels
#
# Inside this module a stack of per-frequency L x M matrices is held as entry
# columns, an (L, M, n_f) array whose entry (i, j) is one contiguous (n_f,)
# column.  A product or an elimination is then a few elementwise operations
# over the grid instead of n_f tiny BLAS or LAPACK calls.  Public functions
# take and return (n_f, L, M) stacks; the stacks they return (and the arrays
# of PropagationParams) are transposed views of entry columns, so handing one
# to the next line function costs no copy.

_pool = threading.local()  # this thread's work arrays, by role


def _cols(a: np.ndarray) -> np.ndarray:
    """(n_f, L, M) stack -> (L, M, n_f) entry columns, copied only when the
    frequency axis is not already contiguous."""
    c = a.transpose(1, 2, 0)
    return c if c.strides[-1] == c.itemsize else np.ascontiguousarray(c)


def _stack(c: np.ndarray) -> np.ndarray:
    """(L, M, n_f) entry columns -> (n_f, L, M) stack (a view)."""
    return c.transpose(2, 0, 1)


def _t(c: np.ndarray) -> np.ndarray:
    """Per-frequency transpose of entry columns (a view)."""
    return c.transpose(1, 0, 2)


def _eye(n: int) -> np.ndarray:
    """Identity as entry columns, broadcasting over the grid."""
    return np.eye(n)[:, :, None]


def _singular(context: str, f: np.ndarray | None, k: int) -> SingularityError:
    return SingularityError(context, frequency_hz=None if f is None else float(f[k]),
                            index=k)


def _work(role: str, shape: tuple, dtype=complex) -> np.ndarray:
    """This thread's work array for ``role``, replaced when a call needs
    another shape or dtype."""
    buf = getattr(_pool, role, None)
    if buf is None or buf.shape != shape or buf.dtype != dtype:
        buf = np.empty(shape, dtype)
        setattr(_pool, role, buf)
    return buf


def _mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-frequency product a b of entry columns (L, K, n_f) x (K, M, n_f),
    into ``out`` (a fresh array when None), which must not overlap a or b.

    Row i of the product is the sum over k of a[i, k] times row k of b,
    accumulated through one product work array.  A row at a time, numpy
    broadcasts an (n_f,) entry, not an (L, 1, n_f) column, so the buffer it
    allocates for that is a row's size, not the product's.  One term (K = 1,
    as at L = 1) is one broadcast product."""
    L, K = a.shape[:2]
    if K == 1:
        return np.multiply(a[:, 0, None], b[None, 0], out=out)
    if out is None:
        n = a.shape[2] if b.shape[2] == 1 else b.shape[2]
        out = np.empty((L, b.shape[1], n), np.promote_types(a.dtype, b.dtype))
    prod = _work("product", out.shape[1:], out.dtype)
    for i in range(L):
        row, a_i = out[i], a[i, :, None]
        np.multiply(a_i[0], b[0], out=row)
        for k in range(1, K):
            np.multiply(a_i[k], b[k], out=prod)
            row += prod
    return out


def _gauss(a: np.ndarray, b: np.ndarray, f: np.ndarray | None, context: str,
           out: np.ndarray | None = None) -> np.ndarray:
    """a^-1 b for entry columns a (L, L, n_f) and b (L, M, n_f), into ``out``
    (a fresh array laid out as b when None).  ``out`` may overlap a or b:
    both are read before it is written.

    Gaussian elimination with partial pivoting, each step vectorized over
    the grid, in an augmented work array.  The pivot of column k is the first
    candidate row of largest |re| + |im| (the LAPACK izamax rule), swapped in
    per frequency with masked copies.  As in LAPACK getrf, only an exactly
    zero pivot is singular: it raises SingularityError at the first frequency
    that has one.  A 1 x 1 system is one division.
    """
    L, M = a.shape[0], b.shape[1]
    if L == 1:
        d = a[0, 0]
        if not d.all():
            raise _singular(context, f, int(np.argmax(d == 0)))
        return np.divide(b, d, out=out)
    n = a.shape[2]
    aug = _work("augmented", (L, L + M, n), np.promote_types(a.dtype, b.dtype))
    np.copyto(aug[:, :L], a)
    np.copyto(aug[:, L:], b)
    row = _work("row", (L + M, n), aug.dtype)  # a row swap or update
    mag = _work("magnitude", (2, L, n), float)
    zero = None
    for k in range(L):
        if k < L - 1:
            col = aug[k:, k]
            m, m_imag = mag[0, :L - k], mag[1, :L - k]
            np.abs(col.real, out=m)
            np.abs(col.imag, out=m_imag)
            m += m_imag
            best = m[0]
            for j in range(1, L - k):
                swap = m[j] > best  # strict: the first largest candidate wins
                if swap.any():
                    np.maximum(best, m[j], out=best)
                    top, other, held = aug[k, k:], aug[k + j, k:], row[:L + M - k]
                    np.copyto(held, top)
                    np.copyto(top, other, where=swap)
                    np.copyto(other, held, where=swap)
        d = aug[k, k]
        if not d.all():
            # every candidate is zero there; a unit pivot lets the other
            # frequencies finish without warnings before the error is raised
            hit = d == 0
            zero = hit if zero is None else zero | hit
            d[hit] = 1.0
        # each row below takes its multiplier in place of its (dead) column-k
        # entry, then subtracts that multiple of the pivot row
        pivot, update = aug[k, k + 1:], row[:L + M - 1 - k]
        for i in range(k + 1, L):
            factor = aug[i, k]
            factor /= d
            np.multiply(factor, pivot, out=update)
            aug[i, k + 1:] -= update
    if zero is not None:
        raise _singular(context, f, int(np.argmax(zero)))
    x = np.empty_like(b, dtype=aug.dtype) if out is None else out
    np.copyto(x, aug[:, L:])
    term = row[:M]
    for i in range(L - 1, -1, -1):
        for j in range(i + 1, L):
            np.multiply(aug[i, j], x[j], out=term)
            x[i] -= term
        x[i] /= aug[i, i]
    return x


def _right(a: np.ndarray, b: np.ndarray, f: np.ndarray | None, context: str,
           out: np.ndarray | None = None) -> np.ndarray:
    """a b^-1 for entry columns: the solve b^T X^T = a^T, with transposes
    taken by swapping indices."""
    return _t(_gauss(_t(b), _t(a), f, context, None if out is None else _t(out)))


# the kernels on (n_f, L, M) stacks, for the decomposition and other modules

def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b per frequency."""
    return _stack(_mul(_cols(a), _cols(b)))


def _solve(a: np.ndarray, b: np.ndarray, f: np.ndarray | None, context: str) -> np.ndarray:
    """a^-1 b per frequency, singularities reported against the grid."""
    return _stack(_gauss(_cols(a), _cols(b), f, context))


def _rdiv(a: np.ndarray, b: np.ndarray, f: np.ndarray | None, context: str) -> np.ndarray:
    """a b^-1 per frequency, singularities reported against the grid."""
    return _stack(_right(_cols(a), _cols(b), f, context))


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
        if not np.all(np.isfinite(m)):
            raise ValidationError(f"cable {cable.label!r}: {name}(f) is not finite")
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
    Re(gamma) >= 0 branch and derives Z_C = Z T Gamma^-1 T^-1 and
    Y_C = Z_C^-1 = T Gamma^-1 T^-1 Y, so T^-1 is the only inverse.

    Mode order is tracked across the sweep so per-mode curves stay
    continuous.  At f_0 the modes are sorted by Im(gamma), then Re(gamma).
    Between neighbouring frequencies, the eigenvector pair of largest
    overlap |v_{k-1}^H v_k| is matched first, then the largest pair among
    the columns left, and so on.  Inside a degenerate cluster (equal gamma)
    any order is equally valid: every response is a T ... T^-1 sandwich
    and does not depend on the basis chosen there.

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
    a = _matmul(y, z)

    w, v = np.linalg.eig(a)
    gamma = np.sqrt(w.astype(complex))
    flip = (gamma.real < 0) | ((gamma.real == 0) & (gamma.imag < 0))
    gamma = np.where(flip, -gamma, gamma)
    t = _cols(_normalize_columns(v))

    n_f, L = gamma.shape
    if L > 1:
        # step[k, i] = j matches raw column i at f_k to raw column j at
        # f_k+1: the pair of largest overlap goes first, then the largest
        # among the rows and columns left, each pass over the whole grid
        overlap = np.abs(_mul(_t(t[:, :, :-1]).conj(), t[:, :, 1:]))
        flat = overlap.reshape(L * L, n_f - 1)
        steps = np.arange(n_f - 1)
        step = np.empty((n_f - 1, L), dtype=np.intp)
        for _ in range(L):
            i, j = np.divmod(np.argmax(flat, axis=0), L)
            step[steps, i] = j
            overlap[i, :, steps] = -1.0
            overlap[:, j, steps] = -1.0
        order = np.empty((n_f, L), dtype=np.intp)
        order[0] = np.lexsort((gamma[0].real, gamma[0].imag))
        for k in range(1, n_f):
            order[k] = step[k - 1, order[k - 1]]
        gamma = np.take_along_axis(gamma, order, axis=1)
        # contiguous entry columns, so no line function copies T on its way in
        t = np.ascontiguousarray(np.take_along_axis(t, order.T[None], axis=1))

    try:
        t_inv = _gauss(t, np.broadcast_to(_eye(L), (L, L, n_f)), f, "")
    except SingularityError as exc:
        raise DecompositionError(
            f"cable {cable.label!r}: eigenvector matrix is singular "
            "(defective propagation operator)", frequency_hz=exc.frequency_hz) from exc

    off = _mul(_mul(t_inv, _cols(a)), t)
    diag = np.arange(L)
    off[diag, diag] = 0.0
    scale = np.linalg.norm(a, axis=(1, 2)) + 1e-300
    rel = np.linalg.norm(off, axis=(0, 1)) / scale
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

    gamma = np.ascontiguousarray(gamma.T)
    root_inv = _mul(t / gamma[None], t_inv)  # T Gamma^-1 T^-1 = (YZ)^-1/2
    zc = _mul(_cols(z), root_inv)
    yc = _mul(root_inv, _cols(y))

    gamma, t, t_inv, yc, zc = gamma.T, *map(_stack, (t, t_inv, yc, zc))
    for arr in (gamma, t, t_inv, yc, zc):
        arr.flags.writeable = False
    return PropagationParams(grid=grid, gamma=gamma, t=t, t_inv=t_inv, yc=yc, zc=zc)


# ---------------------------------------------------------------------------
# reflection coefficients, admittances, transfer

def _propagator(params: PropagationParams, length: float) -> np.ndarray:
    """E = exp(-Gamma length) as (L, n_f) columns, computed in one array."""
    e = -params.gamma.T
    e *= length
    return np.exp(e, out=e)


def _reflection(y: np.ndarray, y_ref: np.ndarray, f: np.ndarray | None,
                singular: str) -> np.ndarray:
    """Y_ref (Y + Y_ref)^-1 (Y - Y_ref) Y_ref^-1, evaluated as the identical
    I - 2 Y_ref (Y + Y_ref)^-1 (write Y - Y_ref = (Y + Y_ref) - 2 Y_ref): one
    solve, and Y_ref itself is never inverted."""
    n, L = y.shape[:2]
    total = _work("intermediate", (L, L, n), np.promote_types(y.dtype, y_ref.dtype))
    np.add(y, y_ref, out=_stack(total))
    x = _right(_cols(y_ref), total, f, singular)
    np.multiply(2.0, x, out=x)
    return _stack(np.subtract(_eye(L), x, out=x))


def load_reflection(y_l: np.ndarray, y_c: np.ndarray,
                    f: np.ndarray | None = None) -> np.ndarray:
    """rho_L = Y_C (Y_L + Y_C)^-1 (Y_L - Y_C) Y_C^-1 (current convention),
    evaluated as I - 2 Y_C (Y_L + Y_C)^-1."""
    return _reflection(y_l, y_c, f, "matched-degenerate load: Y_L + Y_C is singular")


def _modal(a: np.ndarray, params: PropagationParams,
           out: np.ndarray | None = None) -> np.ndarray:
    """T^-1 a T for entry columns a, into ``out`` (fresh when None); T^-1 a
    goes through the "intermediate" work array, which ``out`` must not be."""
    t_inv = _cols(params.t_inv)
    return _mul(_mul(t_inv, a, _work("intermediate", t_inv.shape)), _cols(params.t), out)


def modal_transform(a: np.ndarray, params: PropagationParams) -> np.ndarray:
    """Modal counterpart T^-1 A T of a natural-frame matrix A, from the
    decomposition's cached T and T^-1."""
    return _stack(_modal(_cols(a), params))


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
    t = _cols(params.t)
    w1, w2 = _work("intermediate", t.shape), _work("intermediate2", t.shape)
    p = _modal(_cols(rho_l), params, w2)
    e = _propagator(params, length)
    np.multiply(e[:, None], p, out=p)  # P = E rho^M E, in place
    np.multiply(p, e[None], out=p)
    i = _eye(p.shape[0])
    minus = np.subtract(i, p, out=w1)
    w = _right(np.add(i, p, out=p), minus, f,
               "reflection resonance: I - E rho E is singular", w1)
    return _stack(_mul(_mul(_mul(t, w, w2), _cols(params.t_inv), w1),
                       _cols(params.yc)))


def input_reflection(y_in: np.ndarray, y_r: np.ndarray,
                     f: np.ndarray | None = None) -> np.ndarray:
    """rho_in = Y_R (Y_in + Y_R)^-1 (Y_in - Y_R) Y_R^-1, evaluated as
    I - 2 Y_R (Y_in + Y_R)^-1; a zero source admittance gives I, the limit
    of the form."""
    return _reflection(y_in, y_r, f, "Y_in + Y_R is singular")


def ctf_line(params: PropagationParams, length: float,
             rho_l: np.ndarray) -> np.ndarray:
    """Voltage transfer across one line section terminated by natural-frame
    reflection rho_l:

        H = Y_C^-1 T (I - rho^M) (I - E^2 rho^M)^-1 E T^-1 Y_C

    with rho^M = T^-1 rho_l T and E = exp(-Gamma length).  The middle inverse
    is an exact solve; Y_C^-1 is the decomposition's cached Z_C.
    """
    if length < 0:
        raise ValidationError("line length must be >= 0")
    f = params.grid.frequencies
    t = _cols(params.t)
    w1, w2 = _work("intermediate", t.shape), _work("intermediate2", t.shape)
    rho_m = _modal(_cols(rho_l), params, w2)
    e = _propagator(params, length)
    i = _eye(rho_m.shape[0])
    den = np.multiply((e * e)[:, None], rho_m, out=w1)
    np.subtract(i, den, out=den)
    inner = _right(np.subtract(i, rho_m, out=rho_m), den, f,
                   "transmission resonance: I - E^2 rho is singular", w1)
    np.multiply(inner, e[None], out=inner)
    inner = _mul(_mul(_mul(t, inner, w2), _cols(params.t_inv), w1), _cols(params.yc), w2)
    return _stack(_mul(_cols(params.zc), inner))
