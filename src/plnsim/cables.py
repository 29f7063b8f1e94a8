"""Parametric cable models and the built-in cable library.

The stock model is a lossy power-line cable with a skin-effect style series
resistance R(f) = r0 sqrt(f / f_ref) and dielectric loss G(f) proportional
to 2 pi f C.  Conductor coupling enters as a uniform off-diagonal factor on
the L and C matrices.  All defaults are engineering choices, lossy enough to
keep resonances at finite Q.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .mtl import CableSpec, _validate_rlgc

__all__ = [
    "powerline_cable",
    "constant_rlgc_cable",
    "scaled_cable",
    "builtin_cable_library",
    "cable_velocities",
]


def _coupled(diag_value: float, coupling: float, n: int) -> np.ndarray:
    m = np.full((n, n), coupling * diag_value)
    np.fill_diagonal(m, diag_value)
    return m


def powerline_cable(n_conductors: int = 1,
                    r0_ohm_per_m: float = 0.1,
                    l_h_per_m: float = 5e-7,
                    c_f_per_m: float = 1e-10,
                    g_factor: float = 5e-4,
                    coupling: float = 0.3,
                    f_ref_hz: float = 1e6,
                    label: str | None = None) -> CableSpec:
    """Default lossy cable: R(f) = r0 sqrt(f/f_ref) I, constant coupled L and
    C, G(f) = 2 pi f * g_factor * C.  Every parameter is checked here, so a
    bad one is rejected when the cable is built, not at decomposition."""
    if not 0.0 <= coupling < 1.0:
        raise ValidationError("coupling must be in [0, 1) to keep L and C positive definite")
    if not (np.isfinite(n_conductors) and n_conductors >= 1
            and n_conductors == int(n_conductors)):
        raise ValidationError(
            f"n_conductors must be a whole number >= 1, got {n_conductors!r}")
    n = int(n_conductors)
    name = label or f"powerline-{n}c"
    params = {"n_conductors": n, "coupling": float(coupling)}
    for key, value, positive in (("r0_ohm_per_m", r0_ohm_per_m, False),
                                 ("l_h_per_m", l_h_per_m, True),
                                 ("c_f_per_m", c_f_per_m, True),
                                 ("g_factor", g_factor, False),
                                 ("f_ref_hz", f_ref_hz, True)):
        if not (np.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            raise ValidationError(
                f"cable {name!r}: {key} must be finite and "
                f"{'positive' if positive else '>= 0'}, got {value!r}")
        params[key] = float(value)
    params = MappingProxyType(params)
    l_mat = _coupled(params["l_h_per_m"], params["coupling"], n)
    c_mat = _coupled(params["c_f_per_m"], params["coupling"], n)
    eye = np.eye(n)

    def rlgc(f: np.ndarray):
        nf = f.size
        r = (params["r0_ohm_per_m"] * np.sqrt(f / params["f_ref_hz"]))[:, None, None] * eye
        l = np.broadcast_to(l_mat, (nf, n, n)).copy()
        g = (2.0 * np.pi * f * params["g_factor"])[:, None, None] * c_mat
        c = np.broadcast_to(c_mat, (nf, n, n)).copy()
        return r, l, g, c

    return CableSpec(label=name, n_conductors=n, rlgc=rlgc, meta=("powerline", params))


def constant_rlgc_cable(r, l, g, c, label: str | None = None) -> CableSpec:
    """Cable with frequency-independent R, L, G, C.  Scalars describe a
    single-conductor line; full matrices are accepted as nested lists.  The
    matrices are checked here, as the decomposition checks every cable:
    finite and symmetric, R and G diagonals >= 0, L and C positive definite."""
    mats = [np.atleast_2d(np.array(m, dtype=float)) for m in (r, l, g, c)]
    n = mats[1].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValidationError("constant R, L, G, C matrices must share one shape")
        a.flags.writeable = False

    def rlgc(f: np.ndarray):
        nf = f.size
        return tuple(np.broadcast_to(a, (nf, n, n)).copy() for a in mats)

    cable = CableSpec(label=label or "constant-rlgc", n_conductors=n, rlgc=rlgc,
                      meta=("constant_rlgc", MappingProxyType(dict(zip("rlgc", mats)))))
    _validate_rlgc(cable, np.ones(1), tuple(a[None] for a in mats))
    return cable


def scaled_cable(base: CableSpec, r_scale: float = 1.0, l_scale: float = 1.0,
                 g_scale: float = 1.0, c_scale: float = 1.0,
                 label: str | None = None) -> CableSpec:
    """Uniformly scaled copy of a cable, the usual way to model a degraded
    (aged, wet) section, built through the base's own parametric model.
    R and G factors must be >= 0, and L and C factors > 0 to keep those
    matrices positive definite."""
    if not (r_scale >= 0 and g_scale >= 0 and l_scale > 0 and c_scale > 0):
        raise ValidationError(
            "cable scale factors must be >= 0 for R and G and > 0 for L and C")
    name = label or f"{base.label}-degraded"
    model, p = base.meta or (None, None)
    if model == "powerline":
        return powerline_cable(**dict(
            p, r0_ohm_per_m=p["r0_ohm_per_m"] * r_scale,
            l_h_per_m=p["l_h_per_m"] * l_scale, c_f_per_m=p["c_f_per_m"] * c_scale,
            g_factor=p["g_factor"] * g_scale / c_scale), label=name)
    if model == "constant_rlgc":
        scales = (r_scale, l_scale, g_scale, c_scale)
        return constant_rlgc_cable(*(p[k] * s for k, s in zip("rlgc", scales)), label=name)
    raise ValidationError(f"cable {base.label!r} has no parametric form to scale")


def builtin_cable_library() -> dict[str, CableSpec]:
    """Small stock library used by the experiments and as CLI default."""
    return {
        "pl-std": powerline_cable(label="pl-std"),
        "pl-lowloss": powerline_cable(r0_ohm_per_m=0.05, c_f_per_m=8e-11,
                                      label="pl-lowloss"),
        "pl-lossy": powerline_cable(r0_ohm_per_m=0.2, c_f_per_m=1.2e-10,
                                    label="pl-lossy"),
        "pl-2c": powerline_cable(n_conductors=2, label="pl-2c"),
        "fast": powerline_cable(l_h_per_m=2.5e-7, label="fast"),  # v = 2e8 m/s
    }


def cable_velocities(cable: CableSpec, f_hz: float) -> np.ndarray:
    """Per-mode phase velocities 1/sqrt(eig(L C)) from the inductance and
    capacitance matrices at one frequency (dispersion is ignored here; the
    time-domain layer treats velocity as constant per mode)."""
    f = np.asarray([f_hz], dtype=float)
    _, l, _, c = cable.rlgc(f)
    lam = np.linalg.eigvals(l[0] @ c[0]).real
    if np.any(lam <= 0):
        raise ValidationError(f"cable {cable.label!r}: L C has non-positive eigenvalues")
    return np.sort(1.0 / np.sqrt(lam))[::-1]
