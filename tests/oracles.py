"""Reference forms the tests check plnsim against, written on plain numpy so
they share no kernel with the code they check.

The modal forms (the closed-form input reflection of one section, its
truncated echo series, two cascaded sections by composed reflections) read
only the decomposition's gamma, T, T^-1 and Y_C.  The chain-parameter form
reads only the cable's R, L, G and C: it integrates the telegrapher
equations with a matrix exponential and never diagonalizes, so it checks the
modal machinery itself (the chain-parameter solution of Paul, Analysis of
Multiconductor Transmission Lines; Galli & Banwell, IEEE JSAC 2006).
Far-end reflections are in the natural frame, as in plnsim.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg import expm

from plnsim.mtl import MatrixSpectrum, line_propagation_params


def rdiv(a, b):
    """a b^-1 per frequency."""
    return np.linalg.solve(np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2)).swapaxes(-1, -2)


def reflection(y, y_ref):
    """The paper's Y_ref (Y + Y_ref)^-1 (Y - Y_ref) Y_ref^-1."""
    return rdiv(y_ref @ np.linalg.solve(y + y_ref, y - y_ref), y_ref)


def _round_trip(params, length, rho_l):
    """P = E rho^M E with E = exp(-Gamma length), rho^M = T^-1 rho_l T."""
    e = np.exp(-params.gamma * length)
    return e[:, :, None] * (params.t_inv @ rho_l @ params.t) * e[:, None, :]


def _source_terms(params, y_r):
    """The modal source mismatch rho_G = T^-1 (I + M)^-1 (I - M) T with
    M = Y_R Y_C^-1, and the frame change Y_R (Y_R + Y_C)^-1 and its inverse."""
    m = rdiv(y_r, params.yc)
    i = np.eye(m.shape[-1])
    rho_g = params.t_inv @ np.linalg.solve(i + m, i - m) @ params.t
    s = y_r + params.yc
    return rho_g, rdiv(y_r, s), rdiv(s, y_r)


def input_reflection_modal(params, length, rho_l, y_r):
    """rho_in = Y_R (Y_R + Y_C)^-1 T (I + P rho_G)^-1 (rho_G + P) T^-1
    (Y_R + Y_C) Y_R^-1, the input reflection of one section in closed form."""
    p = _round_trip(params, length, rho_l)
    rho_g, pre, post = _source_terms(params, y_r)
    core = np.linalg.solve(np.eye(p.shape[-1]) + p @ rho_g, rho_g + p)
    return pre @ params.t @ core @ params.t_inv @ post


def series_truncated_responses(params, length, rho_l, y_r, n_terms):
    """Input admittance and reflection as echo series cut after ``n_terms``
    echoes, with the spectral radius of P that governs convergence:

        Y_in  ~ T [I + 2 sum_{n=1..k} P^n] T^-1 Y_C
        rho_in ~ pre T [rho_G + sum_{n=0..k-1} (-1)^n P (rho_G P)^n
                        (I - rho_G^2)] T^-1 post
    """
    p = _round_trip(params, length, rho_l)
    rho_g, pre, post = _source_terms(params, y_r)
    i = np.eye(p.shape[-1])
    radius = np.max(np.abs(np.linalg.eigvals(p)), axis=-1)
    s_y, power = i, i
    for _ in range(n_terms):
        power = power @ p
        s_y = s_y + 2.0 * power
    echoes, term = np.zeros_like(p), p
    for _ in range(n_terms):
        echoes = echoes + term
        term = -term @ (rho_g @ p)
    s_r = rho_g + echoes @ (i - rho_g @ rho_g)
    return SimpleNamespace(y_in=params.t @ s_y @ params.t_inv @ params.yc,
                           rho_in=pre @ params.t @ s_r @ params.t_inv @ post,
                           spectral_radius=radius, converged=radius < 1.0)


def two_section_oracle(cable1, l1, cable2, l2, y_l, y_r, grid):
    """Input admittance and reflection of two cascaded sections with no
    junction load, by composed reflections: section 2 carries its load's
    reflection to the junction with section 1's Y_C in the source role, and
    that reflection terminates section 1."""
    f = grid.frequencies
    p1, p2 = line_propagation_params(cable1, grid), line_propagation_params(cable2, grid)
    rho_1 = input_reflection_modal(p2, l2, reflection(y_l.evaluate(f), p2.yc), p1.yc)
    p = _round_trip(p1, l1, rho_1)
    i = np.eye(p.shape[-1])
    y_in = p1.t @ rdiv(i + p, i - p) @ p1.t_inv @ p1.yc
    rho_in = input_reflection_modal(p1, l1, rho_1, y_r.evaluate(f))
    return SimpleNamespace(y_in=MatrixSpectrum(grid, y_in, "admittance"),
                           rho_in=MatrixSpectrum(grid, rho_in, "reflection"))


def chain_matrix(cable, length, f):
    """Blocks A, B, C, D of the chain matrix of a section, from
    [V(0); I(0)] = expm([[0, Z], [Y, 0]] length) [V(l); I(l)]."""
    r, l, g, c = cable.rlgc(f)
    jw = 2j * np.pi * f[:, None, None]
    z, y = r + jw * l, g + jw * c
    zero = np.zeros_like(z)
    phi = expm(np.block([[zero, z], [y, zero]]) * length)
    n = cable.n_conductors
    return phi[:, :n, :n], phi[:, :n, n:], phi[:, n:, :n], phi[:, n:, n:]


def chain_responses(net, port, rx_node, grid):
    """Input admittance and reflection at ``port`` and the voltage transfer
    from the port node to ``rx_node``, from chain matrices alone.  A node's
    admittance seen from the port is its load plus, over its child branches,
    (C + D Y_far)(A + B Y_far)^-1; a branch passes on (A + B Y_far)^-1 of its
    near-end voltage."""
    f = grid.frequencies
    root, n = net.ports[port].node, net.n_conductors
    parent, order = {root: None}, [root]
    for u in order:
        for br, v in net.adjacency[u]:
            if v not in parent:
                parent[v] = br, u
                order.append(v)
    y = {v: net.loads[v].evaluate(f) if v in net.loads
         else np.zeros((f.size, n, n), complex) for v in order}
    chain = {br: chain_matrix(br.cable, br.length_m, f) for br in net.branches}
    for v in reversed(order[1:]):
        br, u = parent[v]
        a, b, c, d = chain[br]
        y[u] = y[u] + rdiv(c + d @ y[v], a + b @ y[v])
    h, v = np.eye(n), rx_node
    while parent[v] is not None:
        br, u = parent[v]
        a, b, _, _ = chain[br]
        h, v = h @ np.linalg.inv(a + b @ y[v]), u
    return y[root], reflection(y[root], net.ports[port].source.evaluate(f)), h


def is_passive(y):
    """The passivity check by ``eigvalsh`` alone: the Hermitian part of each
    Y(f), halved before the sum, is positive semidefinite to 1e-9 of the
    largest |Y(f)| entry."""
    herm = 0.5 * y + 0.5 * np.conj(np.swapaxes(y, -1, -2))
    scale = float(np.max(np.abs(y))) + 1e-300
    return bool(np.min(np.linalg.eigvalsh(herm)) >= -1e-9 * scale)
