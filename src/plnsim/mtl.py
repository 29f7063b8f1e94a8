"""Multiconductor transmission-line (MTL) primitives on a uniform frequency grid.

Per-frequency L x L matrices are stacked into complex arrays of shape
(n_f, L, L) so every operation is vectorized across the grid.  Each response
has one evaluation route here, built on exact solves; the tests check them
against closed-form, echo-series and chain-parameter forms of their own.

At L >= 2 every matrix product and solve goes through two small-matrix
kernels that work entry by entry: a product is, row by row, K multiply-adds
of an (n_f,) entry with an (M, n_f) row, and a solve is Gaussian elimination
with partial pivoting, each step one vectorized operation over the grid.
The pivot is the first candidate of largest |re| + |im|, as LAPACK izamax
picks it, and only an exactly zero pivot counts as singular, as in LAPACK
getrf: it raises SingularityError at the first frequency that has one
(DecompositionError for the one inverse of the modal decomposition, T^-1).
At L = 1 every per-frequency matrix is a scalar, and the three entry points
the reductions call (``line_responses``, ``_rdiv``, which reflections go
through, and ``_matmul``) compute the same formulas elementwise on (n_f,)
vectors, with no entry columns, work arrays or kernel call; T cancels, so
the line step reads Y_C and Y_L.  Each tests its divisor for an exact zero
first and raises the same SingularityError at the first such frequency, so
no division warns.  There only the decomposition reaches the kernels.

The kernels and the functions built on them keep their temporaries in work
arrays.  They are thread-local, so threads share none.  They are bounded: one
array per role, replaced when a call needs another shape.  They never escape
a call: every array a function returns is fresh, and cached PropagationParams
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
  counterpart of a matrix A is A_m = T^-1 A T.  T is eig's own basis: every
  response is a T ... T^-1 sandwich, so none needs a mode order or phase;
* ``line_responses``, the one line function, takes ``(params, E, Y_L)``:
  the cable's decomposition, the section's propagation factor
  E = exp(-Gamma length) and its far-end admittance in the natural frame.
  Length enters only through E, and ``propagator`` is the one place E is
  evaluated, so a caller that steps the same section again (the ``network``
  reduction keeps E per branch) passes the same read-only array.  No
  reflection is formed: the function reads the load as G = T^-1 Y_L, one
  product on the decomposition's cached T^-1;
* it returns the section's input admittance Y_in and its natural-frame
  voltage transfer H = V(l) when V(0) = I from one elimination of Paul's
  chain-parameter terms.  With W = T^-1 Y_C, the decomposition's cached
  ``t_inv_yc``, the forward and backward modal current amplitudes satisfy
  a + b = W at the input and a' + b' = W H, a' - b' = G H at the load,
  where a' = E a and b = E b'.  Eliminating them gives
  (W + G + E^2 (W - G)) H = 2 E W, and the input current T (a - b) gives
  Y_in = Y_C - T E (W - G) H.  ``input_admittance_line`` and ``ctf_line``
  are its two projections.  They, ``load_reflection`` and
  ``modal_transform`` have no production caller: they stay only because
  perfbench's tracer looks them up by name;
* the propagation constant branch satisfies Re(gamma) >= 0 (ties resolved
  with Im(gamma) >= 0) so exp(-gamma * length) is non-expanding.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import DecompositionError, SingularityError, ValidationError

__all__ = [
    "FrequencyGrid",
    "CableSpec",
    "PropagationParams",
    "MatrixSpectrum",
    "SPECTRUM_KINDS",
    "DELTA_MODELS",
    "line_propagation_params",
    "load_reflection",
    "modal_transform",
    "propagator",
    "input_admittance_line",
    "input_reflection",
    "ctf_line",
    "line_responses",
]

TWO_PI = 2.0 * np.pi

SPECTRUM_KINDS = ("admittance", "reflection", "ctf")
DELTA_MODELS = ("chain", "superposition", "superposition_normalized")

# relative tolerance for the off-diagonal residual of T^-1 (YZ) T
DIAGONALIZATION_RTOL = 1e-9


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform grid f_k = f_start + k * f_step, k = 0 .. n_points-1."""

    f_start: float  # Hz, finite, > 0
    f_step: float   # Hz, finite, > 0
    n_points: int   # an integer >= 2

    def __post_init__(self):
        if not (np.isfinite(self.f_start) and self.f_start > 0.0):
            raise ValidationError(
                "f_start must be finite and positive (grids start above DC)")
        if not (np.isfinite(self.f_step) and self.f_step > 0.0):
            raise ValidationError("f_step must be finite and positive")
        try:
            n = operator.index(self.n_points)  # numpy integers pass, 2.5 and nan do not
        except TypeError:
            n = None
        if n is None or n < 2:
            raise ValidationError("a frequency grid needs an integer n_points >= 2, "
                                  f"got {self.n_points!r}")

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
    # (model, params): the constructor's name in topology files and its
    # arguments but ``label``, as it holds them
    meta: tuple[str, Mapping] | None = None


@dataclass(frozen=True, eq=False)
class PropagationParams:
    """Per-frequency modal description of one cable on one grid.  Frozen,
    with read-only arrays: one cached instance serves every caller.

    Besides the decomposition it holds ``t_inv_yc`` = T^-1 Y_C, the product
    of it that the coupled line step reads.  The modes keep eig's order and
    phase at each frequency; no response needs an order."""

    grid: FrequencyGrid
    gamma: np.ndarray   # (n_f, L) complex, diagonal of the modal propagation matrix, 1/m
    t: np.ndarray       # (n_f, L, L) complex, current eigenvector matrix
    t_inv: np.ndarray   # (n_f, L, L)
    yc: np.ndarray      # (n_f, L, L) characteristic admittance, S
    t_inv_yc: np.ndarray  # (n_f, L, L) T^-1 Y_C, S


@dataclass(eq=False)
class MatrixSpectrum:
    """Frequency-indexed L x L complex matrix signal: a response, or with
    ``model`` set, the anomaly delta of that response under that model."""

    grid: FrequencyGrid
    values: np.ndarray  # (n_points, L, L) complex
    kind: str           # one of SPECTRUM_KINDS
    model: str | None = None  # one of DELTA_MODELS for a delta

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 3 or self.values.shape[1] != self.values.shape[2]:
            raise ValidationError("spectrum values must have shape (n_f, L, L)")
        if self.values.shape[0] != self.grid.n_points:
            raise ValidationError("spectrum length does not match its grid")
        if self.kind not in SPECTRUM_KINDS:
            raise ValidationError(f"unknown spectrum kind {self.kind!r}")
        if self.model is not None and self.model not in DELTA_MODELS:
            raise ValidationError(f"unknown delta model {self.model!r}")
        if not np.isfinite(self.values).all():
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


@cache
def _eye(n: int) -> np.ndarray:
    """Identity as entry columns, broadcasting over the grid: one read-only
    array per n."""
    i = np.eye(n)[:, :, None]
    i.flags.writeable = False
    return i


def _singular(context: str, f: np.ndarray | None, k: int) -> SingularityError:
    return SingularityError(context, frequency_hz=None if f is None else float(f[k]),
                            index=k)


def _check_nonzero(d: np.ndarray, f: np.ndarray | None, context: str) -> None:
    """SingularityError at the first frequency where the scalar divisor d,
    (n_f,) or (n_f, 1, 1), is exactly zero."""
    if not d.all():
        raise _singular(context, f, int(np.argmax(d == 0)))


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
    allocates for that is a row's size, not the product's."""
    L, K = a.shape[:2]
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
    that has one.
    """
    L, M = a.shape[0], b.shape[1]
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


# the kernels on (n_f, L, M) stacks, for the decomposition and other modules;
# a product with one term per entry (K = 1, as at L = 1) and a 1 x 1 divisor
# are elementwise and reach no kernel

def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b per frequency."""
    if a.shape[2] == 1:
        return a * b
    return _stack(_mul(_cols(a), _cols(b)))


def _rdiv(a: np.ndarray, b: np.ndarray, f: np.ndarray | None, context: str) -> np.ndarray:
    """a b^-1 per frequency, singularities reported against the grid."""
    if b.shape[1] == 1:
        _check_nonzero(b, f, context)
        return a / b
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


@lru_cache(maxsize=256)
def line_propagation_params(cable: CableSpec, grid: FrequencyGrid) -> PropagationParams:
    """Modal decomposition of one cable over one grid.

    Diagonalizes Y(f) Z(f) = T Gamma^2 T^-1 per frequency with a
    Re(gamma) >= 0 branch and derives the line functions' product
    T^-1 Y_C = Gamma^-1 T^-1 Y, and from it Y_C = T Gamma^-1 T^-1 Y, so
    T^-1 is the only inverse.

    T is eig's own basis, in its order and phase at each frequency: no
    response needs an order, as each is a T ... T^-1 sandwich.

    Results are cached per (cable, grid) pair; the returned object is shared
    and its arrays are returned read-only.
    """
    f = grid.frequencies
    mats = tuple(np.asarray(m, dtype=float) for m in cable.rlgc(f))
    _validate_rlgc(cable, f, mats)
    r, l, g, c = mats
    with np.errstate(over="ignore", invalid="ignore"):
        jw = 1j * TWO_PI * f[:, None, None]
        z = r + jw * l
        y = g + jw * c
        a = _matmul(y, z)
    finite = np.isfinite(a).all(axis=(1, 2))
    if not finite.all():
        raise DecompositionError(f"cable {cable.label!r}: Y Z overflows",
                                 frequency_hz=float(f[np.argmin(finite)]))

    w, v = np.linalg.eig(a)
    gamma = np.sqrt(w.astype(complex))
    flip = (gamma.real < 0) | ((gamma.real == 0) & (gamma.imag < 0))
    gamma = np.where(flip, -gamma, gamma)
    t = _cols(v)  # contiguous entry columns, so no line function copies T

    n_f, L = gamma.shape
    try:
        t_inv = _gauss(t, np.broadcast_to(_eye(L), (L, L, n_f)), f, "")
    except SingularityError as exc:
        raise DecompositionError(
            f"cable {cable.label!r}: eigenvector matrix is singular "
            "(defective propagation operator)", frequency_hz=exc.frequency_hz) from exc

    off = _mul(_mul(t_inv, _cols(a)), t)
    diag = np.arange(L)
    off[diag, diag] = 0.0
    # each frequency's largest |Y Z| entry above 1 is divided out of both
    # norms (the ratio is unchanged), so squaring entries near 1e200 cannot
    # overflow
    peak = np.maximum(np.max(np.abs(a), axis=(1, 2)), 1.0)
    scale = np.linalg.norm(a / peak[:, None, None], axis=(1, 2)) + 1e-300
    rel = np.linalg.norm(off / peak, axis=(0, 1)) / scale
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
    t_inv_yc = _mul(t_inv / gamma[:, None], _cols(y))  # Gamma^-1 T^-1 Y
    yc = _mul(t, t_inv_yc)

    gamma, t, t_inv, yc, t_inv_yc = gamma.T, *map(_stack, (t, t_inv, yc, t_inv_yc))
    for arr in (gamma, t, t_inv, yc, t_inv_yc):
        arr.flags.writeable = False
    return PropagationParams(grid=grid, gamma=gamma, t=t, t_inv=t_inv, yc=yc,
                             t_inv_yc=t_inv_yc)


# ---------------------------------------------------------------------------
# reflection coefficients, admittances, transfer

def propagator(params: PropagationParams, length: float) -> np.ndarray:
    """Modal propagation factor E = exp(-Gamma length) of a section, the
    diagonal of each per-frequency matrix as (L, n_f) columns, read-only.
    Length enters the line functions only through E."""
    if not 0 <= length < np.inf:  # also false for NaN
        raise ValidationError(f"line length must be >= 0 and finite, got {length!r}")
    e = -params.gamma.T
    e *= length
    np.exp(e, out=e)
    e.flags.writeable = False
    return e


def _reflection(y: np.ndarray, y_ref: np.ndarray, f: np.ndarray | None,
                singular: str) -> np.ndarray:
    """Y_ref (Y + Y_ref)^-1 (Y - Y_ref) Y_ref^-1, evaluated as the identical
    I - 2 Y_ref (Y + Y_ref)^-1 (write Y - Y_ref = (Y + Y_ref) - 2 Y_ref): one
    right division, and Y_ref itself is never inverted."""
    x = _rdiv(y_ref, y + y_ref, f, singular)
    x *= 2.0
    return np.subtract(np.eye(y.shape[1]), x, out=x)


def load_reflection(y_l: np.ndarray, y_c: np.ndarray,
                    f: np.ndarray | None = None) -> np.ndarray:
    """rho_L = Y_C (Y_L + Y_C)^-1 (Y_L - Y_C) Y_C^-1 (current convention),
    evaluated as I - 2 Y_C (Y_L + Y_C)^-1."""
    return _reflection(y_l, y_c, f, "matched-degenerate load: Y_L + Y_C is singular")


def modal_transform(a: np.ndarray, params: PropagationParams) -> np.ndarray:
    """Modal counterpart T^-1 A T of a natural-frame matrix A, from the
    decomposition's cached T and T^-1."""
    t_inv = _cols(params.t_inv)
    return _stack(_mul(_mul(t_inv, _cols(a), _work("intermediate", t_inv.shape)),
                       _cols(params.t)))


def line_responses(params: PropagationParams, e: np.ndarray,
                   y_l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Y_in, H) of one line section with propagation factor
    e = ``propagator(params, length)`` whose far end is loaded by the
    natural-frame admittance y_l: its input admittance and its voltage
    transfer V(l) = H V(0), from one elimination,

        (W + G + E^2 (W - G)) H = 2 E W,   Y_in = Y_C - T E (W - G) H,

    with W = T^-1 Y_C, the decomposition's cached ``t_inv_yc``, and
    G = T^-1 y_l.  The system is solved halved, as
    (W - (I - E^2) / 2 (W - G)) H = E W: no term then exceeds |W| + |G|,
    so nothing overflows before G does.  A near-short load makes H small
    but never forms it as a difference.  At L = 1 T cancels, so the same
    steps run elementwise on (n_f,) vectors with W = Y_C and G = Y_L, and
    H = 1 / (cosh(gamma l) + Z_C Y_L sinh(gamma l)).  Both arrays are fresh.
    """
    f = params.grid.frequencies
    resonance = "reflection resonance: W + G + E^2 (W - G) is singular"
    if params.gamma.shape[1] == 1:  # the steps below, on scalars; T cancels
        yc, e = params.yc[:, 0, 0], e[0]
        d = yc - y_l[:, 0, 0]
        c = np.multiply(e, e)  # Y_C - (1 - E^2) / 2 D
        np.subtract(1.0, c, out=c)
        c *= 0.5
        c *= d
        np.subtract(yc, c, out=c)
        _check_nonzero(c, f, resonance)
        h = np.multiply(e, yc)
        h /= c
        np.multiply(e, d, out=d)
        d *= h
        y_in = np.subtract(yc, d, out=d)
        return y_in[:, None, None], h[:, None, None]
    w = _cols(params.t_inv_yc)
    d = np.empty(w.shape, complex)  # D = W - G, which ends as Y_in
    np.subtract(w, _mul(_cols(params.t_inv), _cols(y_l), d), out=d)
    m = np.multiply(e, e)  # (I - E^2) / 2, a diagonal
    np.subtract(1.0, m, out=m)
    m *= 0.5
    c = np.multiply(m[:, None], d, out=_work("intermediate", w.shape))
    np.subtract(w, c, out=c)
    h = np.empty(w.shape, complex)
    _gauss(c, np.multiply(e[:, None], w, out=h), f, resonance, h)
    np.multiply(e[:, None], d, out=d)  # E D
    _mul(_cols(params.t), _mul(d, h, c), d)
    return _stack(np.subtract(_cols(params.yc), d, out=d)), _stack(h)


def input_admittance_line(params: PropagationParams, e: np.ndarray,
                          y_l: np.ndarray) -> np.ndarray:
    """Y_in of ``line_responses``."""
    return line_responses(params, e, y_l)[0]


def ctf_line(params: PropagationParams, e: np.ndarray,
             y_l: np.ndarray) -> np.ndarray:
    """H of ``line_responses``."""
    return line_responses(params, e, y_l)[1]


def input_reflection(y_in: np.ndarray, y_r: np.ndarray,
                     f: np.ndarray | None = None) -> np.ndarray:
    """rho_in = Y_R (Y_in + Y_R)^-1 (Y_in - Y_R) Y_R^-1, evaluated as
    I - 2 Y_R (Y_in + Y_R)^-1; a zero source admittance gives I, the limit
    of the form."""
    return _reflection(y_in, y_r, f, "Y_in + Y_R is singular")
