"""Verification-only forms, each computing a quantity that ``mtl`` or
``network`` computes another way, so tests can check one against the other:
the modal closed-form input reflection of one section, its truncated echo
series, and two cascaded sections by composed reflections.  Like the ``mtl``
line functions, each takes its far-end reflection in the natural frame.  No
production path calls into this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .mtl import (CableSpec, FrequencyGrid, MatrixSpectrum, PropagationParams,
                  _rdiv, _solve, input_admittance_line, line_propagation_params,
                  load_reflection, modal_transform, propagator)
from .network import AdmittanceSpec, _as_matrix

__all__ = [
    "input_reflection_modal",
    "SeriesApproximation",
    "series_truncated_responses",
    "TwoSectionResponse",
    "two_section_oracle",
]


def _sandwich(e: np.ndarray, a: np.ndarray) -> np.ndarray:
    """diag(e) @ a @ diag(e) for per-frequency diagonals e of shape (n_f, L)."""
    return e[:, :, None] * a * e[:, None, :]


def _eye_like(a: np.ndarray) -> np.ndarray:
    return np.eye(a.shape[-1])


# ---------------------------------------------------------------------------
# closed-form input reflection of one section

def _source_mismatch_modal(params: PropagationParams, y_r: np.ndarray) -> np.ndarray:
    """Modal line/source mismatch T^-1 Y_C (Y_C + Y_R)^-1 (Y_C - Y_R) Y_C^-1 T."""
    f = params.grid.frequencies
    m = _rdiv(y_r, params.yc, f, "characteristic admittance is singular")
    i = _eye_like(m)
    rho_g = _solve(i + m, i - m, f, "Y_C + Y_R is singular")
    return modal_transform(rho_g, params)


def input_reflection_modal(params: PropagationParams, length: float,
                           rho_l: np.ndarray, y_r: np.ndarray) -> np.ndarray:
    """Input reflection of a line section straight from modal quantities.

    Exact closed form equivalent to composing input_admittance_line with
    input_reflection:

        rho_in = Y_R (Y_R + Y_C)^-1 T (I + P rho_G)^-1 (rho_G + P)
                 T^-1 (Y_R + Y_C) Y_R^-1

    with P = E (T^-1 rho_l T) E and rho_G the modal line/source mismatch.
    The operator order matters for coupled conductors; this is the ordering
    that matches the admittance route exactly.
    """
    f = params.grid.frequencies
    e = np.exp(-params.gamma * length)
    p = _sandwich(e, modal_transform(rho_l, params))
    rho_g = _source_mismatch_modal(params, y_r)
    i = _eye_like(p)
    core = _solve(i + p @ rho_g, rho_g + p, f,
                  "reflection resonance: I + P rho_G is singular")
    s = y_r + params.yc
    pre = _rdiv(y_r, s, f, "Y_R + Y_C is singular")
    post = _rdiv(s, y_r, f, "source admittance is singular")
    return pre @ params.t @ core @ params.t_inv @ post


# ---------------------------------------------------------------------------
# truncated echo series

@dataclass(eq=False)
class SeriesApproximation:
    """Truncated echo-series forms of the input responses, plus the spectral
    radius of the round-trip operator E rho_L^M E that governs convergence."""

    n_terms: int
    y_in: np.ndarray            # (n_f, L, L)
    rho_in: np.ndarray          # (n_f, L, L)
    spectral_radius: np.ndarray  # (n_f,), real
    converged: np.ndarray       # (n_f,) bool, radius < 1


def series_truncated_responses(params: PropagationParams, length: float,
                               rho_l: np.ndarray, y_r: np.ndarray,
                               n_terms: int) -> SeriesApproximation:
    """Evaluate the input admittance and reflection as truncated echo series.

    With P = E (T^-1 rho_l T) E and rho_G the modal source mismatch:

        Y_in  ~ T [I + 2 sum_{n=1..k} P^n] T^-1 Y_C
        rho_in ~ pre T [rho_G + sum_{n=0..k-1} (-1)^n P (rho_G P)^n
                        (I - rho_G^2)] T^-1 post

    k = n_terms counts echo terms beyond the leading mismatch term.
    Convergence requires spectral radius < 1; radii >= 1 are flagged, never
    raised.
    """
    if n_terms < 0:
        raise ValidationError("n_terms must be >= 0")
    f = params.grid.frequencies
    e = np.exp(-params.gamma * length)
    p = _sandwich(e, modal_transform(rho_l, params))
    radius = np.max(np.abs(np.linalg.eigvals(p)), axis=-1)

    i = np.broadcast_to(_eye_like(p), p.shape).copy()
    s_y = i.copy()
    p_pow = i.copy()
    for _ in range(n_terms):
        p_pow = p_pow @ p
        s_y = s_y + 2.0 * p_pow
    y_in = params.t @ s_y @ params.t_inv @ params.yc

    rho_g = _source_mismatch_modal(params, y_r)
    s_r = rho_g.copy()
    if n_terms > 0:
        step = rho_g @ p
        q = p.copy()
        acc = q.copy()
        for _ in range(n_terms - 1):
            q = -(q @ step)
            acc = acc + q
        s_r = s_r + acc @ (i - rho_g @ rho_g)
    s = y_r + params.yc
    pre = _rdiv(y_r, s, f, "Y_R + Y_C is singular")
    post = _rdiv(s, y_r, f, "source admittance is singular")
    rho_in = pre @ params.t @ s_r @ params.t_inv @ post

    return SeriesApproximation(n_terms=n_terms, y_in=y_in, rho_in=rho_in,
                               spectral_radius=radius.real,
                               converged=radius.real < 1.0)


# ---------------------------------------------------------------------------
# two-section closed form (independent of the recursive reduction)

@dataclass(eq=False)
class TwoSectionResponse:
    y_in: MatrixSpectrum
    rho_in: MatrixSpectrum


def _admittance_values(obj, f: np.ndarray, n: int) -> np.ndarray:
    if isinstance(obj, AdmittanceSpec):
        return obj.evaluate(f)
    a = np.asarray(obj, dtype=complex)
    if a.shape == (f.size, n, n):
        return a
    return np.broadcast_to(_as_matrix(obj, n), (f.size, n, n)).copy()


def two_section_oracle(cable1: CableSpec, l1: float, cable2: CableSpec,
                       l2: float, y_l, y_r,
                       grid: FrequencyGrid) -> TwoSectionResponse:
    """Closed-form input responses of two cascaded sections with no junction
    load: the far load is reflected to the junction through section 2 (the
    junction mismatch referenced to section 1 plays the source role), and the
    result terminates section 1 directly.

    This composes reflections instead of carrying admittances back, so it is
    an independent cross-check for reduce_to_port / network_input_reflection.
    """
    f = grid.frequencies
    p1 = line_propagation_params(cable1, grid)
    p2 = line_propagation_params(cable2, grid)
    n = cable1.n_conductors
    if cable2.n_conductors != n:
        raise ValidationError("sections must share the conductor count")
    y_l_vals = _admittance_values(y_l, f, n)
    y_r_vals = _admittance_values(y_r, f, n)

    rho_load = load_reflection(y_l_vals, p2.yc, f)
    # junction reflection seen by section 1, via the modal closed form on
    # section 2 with the first section's characteristic admittance as source
    rho_1 = input_reflection_modal(p2, l2, rho_load, p1.yc)
    y_in = input_admittance_line(p1, propagator(p1, l1), rho_1)
    rho_in = input_reflection_modal(p1, l1, rho_1, y_r_vals)
    return TwoSectionResponse(
        y_in=MatrixSpectrum(grid, y_in, "admittance"),
        rho_in=MatrixSpectrum(grid, rho_in, "reflection"),
    )
