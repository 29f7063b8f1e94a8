"""Line-level math: decomposition, reflections, admittances, transfer,
series forms.  Closed-form oracles are evaluated independently in-test."""

import dataclasses
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plnsim import mtl
from plnsim.cables import constant_rlgc_cable, powerline_cable
from plnsim.errors import DecompositionError, SingularityError, ValidationError
from plnsim.experiments import EnsembleConfig, default_grid
from plnsim.mtl import (CableSpec, FrequencyGrid, MatrixSpectrum, PropagationParams,
                        _cols, _eye, _gauss, _matmul, _mul, _rdiv, _right,
                        _singular, _stack, _t, ctf_line, input_admittance_line,
                        input_reflection, line_propagation_params, line_responses,
                        load_reflection, modal_transform, propagator)

from conftest import (FLAT_3C, lossless_cable, random_passive_matrix, rel_err,
                      spectrum_const)
from oracles import input_reflection_modal, reflection, series_truncated_responses

TWO_PI = 2.0 * np.pi


def random_spd_cable(rng, L, label="random-spd"):
    """Cable with random symmetric positive definite L and C, which do not
    commute, so its modes are distinct and Y Z is not symmetric."""
    a, b = rng.normal(size=(2, L, L))
    return constant_rlgc_cable(0.1 * np.eye(L), 5e-7 * (a @ a.T / L + np.eye(L)),
                               1e-6 * np.eye(L), 1e-10 * (b @ b.T / L + np.eye(L)),
                               label=label)


# ---------------------------------------------------------------------------
# propagation parameters

def test_scalar_lossless_closed_form(grid):
    l, c = 5e-7, 1e-10
    p = line_propagation_params(lossless_cable(l, c), grid)
    f = grid.frequencies
    gamma_ref = 1j * TWO_PI * f * np.sqrt(l * c)
    assert rel_err(p.gamma[:, 0], gamma_ref) < 1e-12
    assert rel_err(p.yc[:, 0, 0], np.sqrt(c / l)) < 1e-12


def test_decoupled_identical_conductors(grid):
    # diagonal R, L, G, C: any invertible commuting T is fine; the contract
    # is the diagonalization residual, not a particular T
    cab = constant_rlgc_cable(0.1 * np.eye(2), 5e-7 * np.eye(2),
                              np.zeros((2, 2)), 1e-10 * np.eye(2),
                              label="decoupled")
    p = line_propagation_params(cab, grid)
    _assert_diagonalizes(cab, p, grid)


def test_coupled_diagonalization_residual(grid, coupled_cable):
    p = line_propagation_params(coupled_cable, grid)
    _assert_diagonalizes(coupled_cable, p, grid)


def _assert_diagonalizes(cable, p, grid):
    # direct matrix multiplication oracle
    f = grid.frequencies
    r, l, g, c = cable.rlgc(f)
    jw = 1j * TWO_PI * f[:, None, None]
    a = (g + jw * c) @ (r + jw * l)
    d = p.t_inv @ a @ p.t
    off = d.copy()
    idx = np.arange(d.shape[-1])
    off[:, idx, idx] = 0.0
    assert np.all(np.linalg.norm(off, axis=(1, 2))
                  <= 1e-9 * np.linalg.norm(a, axis=(1, 2)))
    assert np.all(p.gamma.real >= 0)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_characteristic_admittance_non_commuting(grid, L):
    # random L and C do not commute, so Y_C = T Gamma^-1 T^-1 Y must keep its
    # factor order: Y_C Z Y_C = Y, and Y_C is symmetric
    cable = random_spd_cable(np.random.default_rng(L), L)
    p = line_propagation_params(cable, grid)
    f = grid.frequencies
    r, l, g, c = cable.rlgc(f)
    jw = 1j * TWO_PI * f[:, None, None]
    z, y = r + jw * l, g + jw * c
    assert rel_err(p.yc @ z @ p.yc, y) < 1e-10
    assert rel_err(p.yc, np.swapaxes(p.yc, 1, 2)) < 1e-10


def test_cable_validation_errors(grid):
    # constant cables are checked when they are built
    with pytest.raises(ValidationError, match="symmetric"):
        constant_rlgc_cable([[0.1, 0.0], [0.05, 0.1]], 5e-7 * np.eye(2),
                            np.zeros((2, 2)), 1e-10 * np.eye(2))
    with pytest.raises(ValidationError, match="positive"):
        constant_rlgc_cable(0.1, 5e-7, 0.0, -1e-10)
    # any other cable is checked at decomposition
    raw = CableSpec("raw", 1, lambda f: tuple(np.full((f.size, 1, 1), v)
                                              for v in (0.1, 5e-7, 0.0, -1e-10)))
    with pytest.raises(ValidationError, match="'raw': C diagonal must be strictly positive"):
        line_propagation_params(raw, grid)


def test_cable_validation_rejects_non_finite(grid):
    with pytest.raises(ValidationError, match="'no-ref': R"):
        constant_rlgc_cable(np.inf, 5e-7, 0.0, 1e-10, label="no-ref")
    with pytest.raises(ValidationError, match="'nan-l': L"):
        constant_rlgc_cable(0.1, np.nan, 0.0, 1e-10, label="nan-l")


def test_defective_eigenvectors_raise_decomposition_error(grid, monkeypatch):
    # two equal eigenvector columns at one grid index: T is singular there
    eig, k = np.linalg.eig, 7

    def defective(a):
        w, v = eig(a)
        v[k] = [[1.0, 1.0], [0.0, 0.0]]
        return w, v

    monkeypatch.setattr(np.linalg, "eig", defective)
    with pytest.raises(DecompositionError, match="eigenvector matrix is singular") as exc:
        line_propagation_params(powerline_cable(2, label="defective"), grid)
    assert exc.value.frequency_hz == grid.frequencies[k]


def test_cached_params_are_read_only(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    fields = ("gamma", "t", "t_inv", "yc", "t_inv_yc")
    before = [getattr(p, name).copy() for name in fields]
    for name in fields:
        with pytest.raises(ValueError):
            getattr(p, name)[0] = 0.0
    again = line_propagation_params(std_cable, grid)
    for name, b in zip(fields, before):
        np.testing.assert_array_equal(getattr(again, name), b)


def test_cable_and_cached_params_are_frozen(grid):
    # the decomposition cache keys on the cable object, and every caller of
    # it shares one PropagationParams
    cable = powerline_cable(label="frozen")
    p = line_propagation_params(cable, grid)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cable.rlgc = lossless_cable().rlgc
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.yc = p.t_inv_yc
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.t_inv_yc = p.t
    assert line_propagation_params(cable, grid) is p
    lossless = dataclasses.replace(cable, rlgc=lossless_cable().rlgc)
    assert lossless.label == "frozen" and cable.rlgc is not lossless.rlgc
    q = line_propagation_params(lossless, grid)
    assert q is not p and not np.array_equal(q.gamma, p.gamma)
    assert np.array_equal(line_propagation_params(cable, grid).gamma, p.gamma)


# ---------------------------------------------------------------------------
# 1 x 1 systems: the kernel's one-step elimination and _rdiv's elementwise
# division, each to 1e-14 of LAPACK

def _complex_stack(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def entry_rel_err(a, b):
    return np.max(np.abs(a - b) / np.abs(b))


def solve_stack(a, b, f, context):
    """a^-1 b for (n_f, L, M) stacks, by the kernel on entry columns."""
    return _stack(_gauss(_cols(a), _cols(b), f, context))


@pytest.mark.parametrize("width", [1, 3])
def test_scalar_kernel_matches_lapack(grid, width):
    rng = np.random.default_rng(width)
    f = grid.frequencies
    den = _complex_stack(rng, (grid.n_points, 1, 1))
    rows = _complex_stack(rng, (grid.n_points, 1, width))
    ref = np.linalg.solve(den, rows)
    assert entry_rel_err(solve_stack(den, rows, f, "ctx"), ref) < 1e-14
    cols = np.swapaxes(rows, -1, -2)
    ref_r = np.swapaxes(np.linalg.solve(np.swapaxes(den, -1, -2), rows), -1, -2)
    assert entry_rel_err(_rdiv(cols, den, f, "ctx"), ref_r) < 1e-14


@pytest.mark.parametrize("helper", ["solve", "rdiv"])
def test_scalar_kernel_zero_denominator(grid, helper):
    f = grid.frequencies
    den = np.ones((grid.n_points, 1, 1), complex)
    den[[37, 80]] = 0.0
    den[20] = 1e-300  # tiny but nonzero: LAPACK does not raise on it either
    num = np.ones_like(den)
    with pytest.raises(SingularityError, match="ctx") as info:
        if helper == "solve":
            solve_stack(den, num, f, "ctx")
        else:
            _rdiv(num, den, f, "ctx")
    assert info.value.index == 37
    assert info.value.frequency_hz == f[37]


# ---------------------------------------------------------------------------
# L = 1..4 kernels: entry-wise product and pivoted elimination against numpy

def _stack_of(data, shape):
    """Complex stack with entries of random sign and magnitude 1e-3..1e3."""
    mags = 10.0 ** data.draw(st.integers(-3, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return mags * _complex_stack(rng, shape)


def _ill_conditioned(rng, n_f, L, cond):
    """U diag(s) V with unitary U, V and singular values 1 .. 1/cond."""
    u, _ = np.linalg.qr(_complex_stack(rng, (n_f, L, L)))
    v, _ = np.linalg.qr(_complex_stack(rng, (n_f, L, L)))
    s = np.logspace(0.0, -np.log10(cond), L)
    return (u * s[None, None, :]) @ v


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 9))
def test_product_matches_matmul(data, L, K, n_f):
    a = _stack_of(data, (n_f, L, K))
    b = _stack_of(data, (n_f, K, L))
    ref = a @ b
    scale = np.abs(a) @ np.abs(b)  # bound on the cancellation in each entry
    assert np.all(np.abs(_matmul(a, b) - ref) <= 1e-14 * scale)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["random", "ill", "zero-lead", "tiny-lead"]))
def test_solve_matches_lapack(data, L, M, kind):
    n_f = 7
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = np.arange(1.0, n_f + 1.0)
    b = _complex_stack(rng, (n_f, L, M))
    if kind == "ill":
        cond = 10.0 ** data.draw(st.floats(0.0, 12.0))
        a = _ill_conditioned(rng, n_f, L, cond)
    else:
        a = _complex_stack(rng, (n_f, L, L))
        if kind != "random" and L > 1:
            # a zero or 1e-300 leading entry forces a row exchange
            a[:, 0, 0] = 0.0 if kind == "zero-lead" else 1e-300
    x = solve_stack(a, b, f, "ctx")
    # backward error: what a stable solve guarantees whatever the conditioning
    resid = np.linalg.norm(a @ x - b, axis=(1, 2))
    scale = (np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(x, axis=(1, 2))
             + np.linalg.norm(b, axis=(1, 2)))
    assert np.all(resid <= 1e-13 * scale)
    # forward error: within the conditioning of each system of LAPACK's answer
    ref = np.linalg.solve(a, b)
    err = np.linalg.norm(x - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert np.all(err <= 1e-13 * np.linalg.cond(a))
    bt = np.swapaxes(b, -1, -2)
    xr = _rdiv(bt, a, f, "ctx")  # bt a^-1 = (a^-T b)^T
    resid_r = np.linalg.norm(xr @ a - bt, axis=(1, 2))
    assert np.all(resid_r <= 1e-13 * scale)


def test_solve_exact_zero_pivot_reports_first_frequency():
    # a zero column makes a pivot exactly zero: the first column at the first
    # elimination step, the last column at the last step.  The error names the
    # lowest such frequency, whichever step finds it.
    L = 3
    rng = np.random.default_rng(11)
    n_f = 9
    f = 1e5 + 1e5 * np.arange(n_f)
    a = _complex_stack(rng, (n_f, L, L))
    b = _complex_stack(rng, (n_f, L, 2))
    a[5, :, 0] = 0.0
    a[3, :, L - 1] = 0.0
    with pytest.raises(SingularityError, match="ctx") as info:
        solve_stack(a, b, f, "ctx")
    assert info.value.index == 3
    assert info.value.frequency_hz == f[3]
    a[3, :, L - 1] = 1.0
    with pytest.raises(SingularityError, match="ctx") as info:
        _rdiv(np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2), f, "ctx")
    assert info.value.index == 5
    assert info.value.frequency_hz == f[5]


# ---------------------------------------------------------------------------
# work-array kernels: bit for bit the allocation-naive forms they replaced

def _mul_naive(a, b):
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def _gauss_naive(a, b, f, context):
    L = a.shape[0]
    aug = np.concatenate((a, b), axis=1)
    zero = None
    for k in range(L):
        if k < L - 1:
            col = aug[k:, k]
            mag = np.abs(col.real) + np.abs(col.imag)
            best = mag[0]
            for j in range(1, L - k):
                swap = mag[j] > best
                if swap.any():
                    best = np.maximum(best, mag[j])
                    top, other = aug[k, k:], aug[k + j, k:]
                    aug[k, k:], aug[k + j, k:] = (np.where(swap, other, top),
                                                  np.where(swap, top, other))
        d = aug[k, k]
        if not d.all():
            hit = d == 0
            zero = hit if zero is None else zero | hit
            d[hit] = 1.0
        if k < L - 1:
            aug[k + 1:, k + 1:] -= (aug[k + 1:, k] / d)[:, None] * aug[k, None, k + 1:]
    if zero is not None:
        raise _singular(context, f, int(np.argmax(zero)))
    x = aug[:, L:]
    for i in range(L - 1, -1, -1):
        for j in range(i + 1, L):
            x[i] -= aug[i, j] * x[j]
        x[i] /= aug[i, i]
    return x


def _chain(mul, gauss, a, b, c, f):
    """Products and solves in a row, each taking results before it as
    operands: plain, transposed (``_right``'s solve) and broadcast-identity
    ones."""
    def right(x, y):
        return _t(gauss(_t(y), _t(x), f, "ctx"))
    eye = _eye(a.shape[0])
    r = [gauss(a, b, f, "ctx")]      # (L, M)
    r.append(mul(a, r[0]))           # (L, M)
    r.append(right(_t(r[1]), a))     # (M, L)
    r.append(right(c, a))            # (M, L)
    r.append(mul(r[3], eye))         # (M, L)
    r.append(mul(eye, _t(r[4])))     # (L, M)
    r.append(mul(r[5], c))           # (L, L)
    r.append(gauss(a, r[6], f, "ctx"))
    r.append(mul(_t(r[2]), r[3]))    # (L, L)
    return r


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 9),
       st.sampled_from(["random", "zero-lead", "tiny-lead"]))
def test_kernels_match_allocating_forms_bit_for_bit(data, L, M, n_f, kind):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = np.arange(1.0, n_f + 1.0)
    a = _complex_stack(rng, (L, L, n_f))  # entry columns
    if kind != "random" and L > 1:
        # a zero or 1e-300 leading entry forces a row exchange
        a[0, 0] = 0.0 if kind == "zero-lead" else 1e-300
    b = _complex_stack(rng, (L, M, n_f))
    c = _complex_stack(rng, (M, L, n_f))
    new = _chain(_mul, _gauss, a, b, c, f)
    old = _chain(_mul_naive, _gauss_naive, a, b, c, f)
    for x, y in zip(new, old):
        assert x.shape == y.shape
        assert np.array_equal(x, y)
    assert np.array_equal(_right(c, a, f, "ctx"), old[3])
    # every result is a fresh array, never a work array a later call reuses
    for x, y in zip(new, new[1:]):
        assert not np.shares_memory(x, y)


def _in_new_thread(fn):
    """fn() run on a thread of its own, so it starts with no work arrays;
    returns fn's result and that thread's work arrays by role."""
    out = {}

    def run():
        out["result"] = fn()
        out["pool"] = dict(vars(mtl._pool))
    worker = threading.Thread(target=run)
    worker.start()
    worker.join()
    return out["result"], out["pool"]


def test_work_arrays_recover_from_a_singular_solve():
    L, n_f = 3, 9
    rng = np.random.default_rng(12)
    f = 1e5 + 1e5 * np.arange(n_f)
    a = _complex_stack(rng, (n_f, L, L))
    b = _complex_stack(rng, (n_f, L, L))
    bad = a.copy()
    bad[4, :, 1] = 0.0  # stops the elimination at its second step
    with pytest.raises(SingularityError):
        solve_stack(bad, b, f, "ctx")
    x = solve_stack(a, b, f, "ctx")
    assert np.array_equal(x, np.moveaxis(
        _gauss_naive(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1), f, "ctx"), -1, 0))


def test_work_arrays_are_replaced_not_added():
    rng = np.random.default_rng(13)

    def solves():
        for n_f in (7, 800, 9):
            a, b = _complex_stack(rng, (n_f, 3, 3)), _complex_stack(rng, (n_f, 3, 2))
            _matmul(solve_stack(a, b, None, "ctx"), _complex_stack(rng, (n_f, 2, 3)))
    _, pool = _in_new_thread(solves)
    assert set(pool) == {"augmented", "row", "magnitude", "product"}
    assert all(arr.shape[-1] == 9 for arr in pool.values())


def test_threads_keep_their_own_work_arrays():
    # threads solving systems of other sizes at once each get their own
    # answers, bit for bit
    rng = np.random.default_rng(15)
    cases = [(_complex_stack(rng, (L, L, n_f)), _complex_stack(rng, (L, 2, n_f)))
             for L, n_f in ((2, 50), (3, 50), (3, 80), (4, 30), (3, 50), (2, 80))]
    expected = [_gauss_naive(a, b, None, "ctx") for a, b in cases]
    wrong = []

    def solve(case, want):
        for _ in range(30):
            if not np.array_equal(_gauss(*case, None, "ctx"), want):
                wrong.append(case[0].shape)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve, args=(case, want))
                   for case, want in zip(cases, expected)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not wrong


def test_work_arrays_of_coupled_line_functions_stay_small():
    # every line function of an L = 3 cable on the 800-point default grid
    grid = default_grid()
    p = line_propagation_params(powerline_cable(3), grid)
    f = grid.frequencies
    y = spectrum_const(random_passive_matrix(np.random.default_rng(14), 3), grid)

    def line_functions():
        load_reflection(y, p.yc, f)
        input_reflection(input_admittance_line(p, propagator(p, 40.0), y), y, f)
        ctf_line(p, propagator(p, 40.0), y)
        line_responses(p, propagator(p, 40.0), y)
    _, pool = _in_new_thread(line_functions)
    assert sum(arr.nbytes for arr in pool.values()) <= 750_000


# ---------------------------------------------------------------------------
# load reflection

def test_load_reflection_open(grid, coupled_cable):
    p = line_propagation_params(coupled_cable, grid)
    rho = load_reflection(np.zeros_like(p.yc), p.yc)
    assert np.max(np.abs(rho + np.eye(2))) < 1e-12


def test_load_reflection_degenerate_error(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    with pytest.raises(SingularityError, match="matched-degenerate"):
        load_reflection(-p.yc, p.yc)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_reflections_match_paper_form(L, seed):
    # the one-solve I - 2 Y_ref (Y + Y_ref)^-1 against the paper's
    # Y_ref (Y + Y_ref)^-1 (Y - Y_ref) Y_ref^-1, each inverse by LAPACK
    rng = np.random.default_rng(seed)
    y = np.stack([random_passive_matrix(rng, L) for _ in range(5)])
    y_ref = np.stack([random_passive_matrix(rng, L, 0.02) for _ in range(5)])
    want = y_ref @ np.linalg.solve(y + y_ref, y - y_ref) @ np.linalg.inv(y_ref)
    assert rel_err(load_reflection(y, y_ref), want) < 1e-12
    assert rel_err(input_reflection(y, y_ref), want) < 1e-12


# ---------------------------------------------------------------------------
# modal transforms

def modal_frame(t):
    """The cached T and T^-1 of a decomposition, built from a given T."""
    return SimpleNamespace(t=t, t_inv=np.linalg.inv(t))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_modal_round_trip(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    t = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    t += 3.0 * np.eye(3)  # keep well-conditioned
    back = t @ modal_transform(a, modal_frame(t)) @ np.linalg.inv(t)
    assert rel_err(back, a) < 1e-12


@pytest.mark.parametrize("L", [2, 3])
def test_modal_transform_matches_lapack(grid, L):
    # the products on the cached T^-1 and T against a LAPACK solve by T
    p = line_propagation_params(random_spd_cable(np.random.default_rng(L), L), grid)
    a = _complex_stack(np.random.default_rng(10 + L), p.t.shape)
    assert rel_err(modal_transform(a, p), np.linalg.solve(p.t, a @ p.t)) < 1e-12


# ---------------------------------------------------------------------------
# input admittance

@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_zero_length_reproduces_load(seed):
    grid = FrequencyGrid(1e5, 1e5, 8)
    cab = powerline_cable(n_conductors=2)
    p = line_propagation_params(cab, grid)
    rng = np.random.default_rng(seed)
    y_l = spectrum_const(random_passive_matrix(rng, 2), grid)
    y0 = input_admittance_line(p, propagator(p, 0.0), y_l)
    assert rel_err(y0, y_l) < 1e-9


def test_matched_line_any_length(grid, coupled_cable):
    p = line_propagation_params(coupled_cable, grid)
    for length in (0.0, 37.0, 250.0):
        y = input_admittance_line(p, propagator(p, length), p.yc)
        assert rel_err(y, p.yc) < 1e-9


def test_quarter_wave_impedance_transform():
    # lossless 50 ohm line, quarter wave at 10 MHz, 100 ohm load -> 25 ohm in
    l, c = 2.5e-7, 1e-10  # Z_C = 50 ohm, v = 2e8 m/s
    grid = FrequencyGrid(1e7, 1e5, 2)
    cab = lossless_cable(l, c, label="z50")
    p = line_propagation_params(cab, grid)
    length = 2e8 / (4 * 1e7)
    y_l = spectrum_const(1.0 / 100.0, grid)
    y_in = input_admittance_line(p, propagator(p, length), y_l)
    assert abs(y_in[0, 0, 0] - 0.04) / 0.04 < 1e-9


def test_resonance_singularity_error(grid, std_cable):
    # an open quarter-wave section: E = j and Y_L = 0 make
    # W + G + E^2 (W - G) = W (1 + E^2) exactly zero
    p = line_propagation_params(std_cable, grid)
    e = np.full((1, grid.n_points), 1j)
    with pytest.raises(SingularityError, match="reflection resonance"):
        input_admittance_line(p, e, np.zeros_like(p.yc))


# lossless cables, one conductor and three shaped like FLAT_3C, whose modes
# have distinct velocities
LOSSLESS_CABLES = (
    lossless_cable(2.5e-7, 1e-10),
    constant_rlgc_cable(np.zeros((3, 3)), FLAT_3C.meta[1]["l"], np.zeros((3, 3)),
                        FLAT_3C.meta[1]["c"], label="lossless-flat-3c"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(cable=st.sampled_from(LOSSLESS_CABLES), k=st.integers(0, 119),
       mode=st.integers(0, 2), odd=st.integers(0, 20),
       offset=st.floats(-17.0, -8.0), sign=st.sampled_from([-1.0, 1.0]),
       load=st.sampled_from([0.0, 1e12]))
def test_near_quarter_wave_is_finite_or_a_located_singularity(
        grid, cable, k, mode, odd, offset, sign, load):
    # a section within 1e-17 to 1e-8 (relative) of an odd quarter wave of
    # one mode at grid frequency k, open or loaded by 1e12 S: there
    # W + G + E^2 (W - G) is all but singular at that frequency, and the
    # line step either names the frequency or returns finite arrays
    p = line_propagation_params(cable, grid)
    beta = p.gamma[k, mode % cable.n_conductors].imag
    length = (2 * odd + 1) * np.pi / (2 * beta) * (1.0 + sign * 10.0 ** offset)
    y_l = spectrum_const(load, grid, cable.n_conductors)
    try:
        y, h = line_responses(p, propagator(p, length), y_l)
    except SingularityError as exc:
        assert exc.frequency_hz in grid.frequencies
    else:
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(h))


def test_propagator_is_read_only_and_rejects_negative_length(grid, coupled_cable):
    p = line_propagation_params(coupled_cable, grid)
    e = propagator(p, 40.0)
    assert e.shape == (2, grid.n_points)
    with pytest.raises(ValueError):
        e[0, 0] = 0.0
    with pytest.raises(ValidationError, match="length must be >= 0"):
        propagator(p, -1e-9)
    # a NaN length would give an all-NaN E, and on a lossless line an
    # infinite one gives NaN through 0 * inf
    lossless = line_propagation_params(
        constant_rlgc_cable(0.0, 2.5e-7, 0.0, 1e-10, label="lossless"), grid)
    for q, length in ((p, np.nan), (p, np.inf), (lossless, np.inf), (lossless, np.nan)):
        with pytest.raises(ValidationError, match="length must be >= 0"):
            propagator(q, length)


@pytest.mark.parametrize("L", [1, 3])
def test_line_functions_on_propagator_match_inline_exponential(grid, L):
    # E as exp(-gamma l) written out in place, in the (n_f, L) layout of
    # gamma: equal to propagator's bit for bit, and so are both line functions
    p = line_propagation_params(powerline_cable(L), grid)
    y = spectrum_const(random_passive_matrix(np.random.default_rng(L), L), grid)
    for length in (0.0, 37.5, 210.0):
        e, inline = propagator(p, length), np.exp(-p.gamma * length).T
        assert np.array_equal(e, inline)
        for line in (input_admittance_line, ctf_line):
            assert np.array_equal(line(p, e, y), line(p, inline, y))


# on 200 km, E underflows to zero over the top two thirds of the default band
# on the powerline cables, and is subnormal just below
LINE_CASES = pytest.mark.parametrize(
    "cable,length",
    [(cable, length) for cable in [powerline_cable(L) for L in (1, 2, 3, 4)] + [FLAT_3C]
     for length in (10.0, 300.0, 3000.0, 2e5)],
    ids=lambda v: v.label if isinstance(v, CableSpec) else f"{v:g}m")


def _line_case(cable, length):
    grid = default_grid()
    p = line_propagation_params(cable, grid)
    L = cable.n_conductors
    y = spectrum_const(random_passive_matrix(np.random.default_rng(L), L), grid)
    return p, propagator(p, length), y


@LINE_CASES
def test_line_functions_match_their_two_solve_forms(cable, length):
    # the paper's forms on plain numpy, through the load's reflection: Y_in
    # with (I - P)^-1 taken after I + P, H with (I - E^2 rho^M)^-1 E, against
    # the one solve for H from the load admittance
    p, e, y = _line_case(cable, length)
    rho = reflection(y, p.yc)
    i = np.eye(cable.n_conductors)
    E = e.T[:, :, None] * i
    rho_m = p.t_inv @ rho @ p.t
    P = E @ rho_m @ E
    y_ref = p.t @ (i + P) @ np.linalg.inv(i - P) @ p.t_inv @ p.yc
    h_ref = np.linalg.solve(p.yc, p.t @ (i - rho_m) @ np.linalg.solve(i - E @ E @ rho_m, E)
                            @ p.t_inv @ p.yc)
    for got, ref in ((input_admittance_line(p, e, y), y_ref), (ctf_line(p, e, y), h_ref)):
        # per frequency, against its largest entry; where E underflowed both
        # transfers are exactly zero
        scale = np.maximum(np.max(np.abs(ref), axis=(1, 2)), np.finfo(float).tiny)
        assert np.max(np.max(np.abs(got - ref), axis=(1, 2)) / scale) < 1e-12
    if length == 2e5 and cable is not FLAT_3C:
        assert (e == 0).any() and (h_ref == 0).all(axis=(1, 2)).any()


@LINE_CASES
def test_path_step_pair_equals_the_line_functions(cable, length):
    # the projections equal the pair, and the pair's arrays are fresh: they
    # share no memory with each other, the operands or a work array, so the
    # next step (which reuses the work arrays) leaves them as they were
    p, e, y_l = _line_case(cable, length)
    y, h = line_responses(p, e, y_l)
    kept = y.copy(), h.copy()
    assert np.array_equal(y, input_admittance_line(p, e, y_l))
    assert np.array_equal(h, ctf_line(p, e, y_l))
    assert np.array_equal(y, kept[0]) and np.array_equal(h, kept[1])
    assert not np.may_share_memory(y, h)
    for a in (y_l, e, p.t, p.t_inv, p.yc, p.t_inv_yc, *vars(mtl._pool).values()):
        assert not (np.may_share_memory(y, a) or np.may_share_memory(h, a))


@pytest.mark.parametrize("length", [10.0, 150.0])
def test_line_responses_do_not_depend_on_the_modal_basis(length):
    # Y_in and H are T ... T^-1 sandwiches: permuting the modes and turning
    # each column of T by a unit phase, per frequency, moves them by rounding
    p, e, y_l = _line_case(FLAT_3C, length)
    rng = np.random.default_rng(21)
    perm = np.argsort(rng.random(p.gamma.shape), axis=1)
    phase = np.exp(2j * np.pi * rng.random(p.gamma.shape))

    def rows(a):  # rows of D^-1 P^T T^-1 ...
        return np.take_along_axis(a, perm[:, :, None], axis=1) / phase[:, :, None]

    q = PropagationParams(
        grid=p.grid, gamma=np.take_along_axis(p.gamma, perm, axis=1),
        t=np.take_along_axis(p.t, perm[:, None, :], axis=2) * phase[:, None, :],
        t_inv=rows(p.t_inv), yc=p.yc, t_inv_yc=rows(p.t_inv_yc))
    assert not np.array_equal(q.gamma, p.gamma)
    for got, want in zip(line_responses(q, propagator(q, length), y_l),
                         line_responses(p, e, y_l)):
        assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("length", [10.0, 150.0])
def test_scalar_line_step_does_not_depend_on_the_modal_basis(length):
    # at L = 1 T is a scalar that cancels, so a non-unit complex T per
    # frequency, with T^-1 and T^-1 Y_C to match, gives the unit-T responses
    p, e, y_l = _line_case(powerline_cable(1), length)
    rng = np.random.default_rng(31)
    s = (rng.uniform(0.1, 10.0, p.gamma.shape)
         * np.exp(2j * np.pi * rng.random(p.gamma.shape)))[:, :, None]
    q = dataclasses.replace(p, t=s, t_inv=1 / s, t_inv_yc=p.yc / s)
    for got, want in zip(line_responses(q, e, y_l), line_responses(p, e, y_l)):
        assert rel_err(got, want) < 1e-13


def test_scalar_modal_basis_is_exactly_one():
    # so the line step that reads Y_C and Y_L equals the T ... T^-1
    # sandwich bit for bit on every cable of the default sweep
    for cable in EnsembleConfig(n_networks=1).cable_set():
        p = line_propagation_params(cable, default_grid())
        assert (p.t == 1).all() and (p.t_inv == 1).all()
        assert np.array_equal(p.t_inv_yc, p.yc)


def test_coupled_line_functions_make_one_elimination_and_few_products(monkeypatch):
    # on an L = 3 cable: G = T^-1 Y_L takes one product, and Y_in two more,
    # T E (W - G) H; H is the solve's own unknown
    grid = FrequencyGrid(1e5, 1e5, 16)
    p = line_propagation_params(powerline_cable(3), grid)
    y = spectrum_const(random_passive_matrix(np.random.default_rng(3), 3), grid)
    e = propagator(p, 40.0)
    calls = {"_mul": 0, "_gauss": 0}

    def counted(name):
        kernel = getattr(mtl, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(mtl, name, counted(name))
    for line in (input_admittance_line, ctf_line, line_responses):
        calls.update(_mul=0, _gauss=0)
        line(p, e, y)
        assert calls == {"_mul": 3, "_gauss": 1}, line.__name__


def test_identity_is_one_read_only_array_per_size():
    for n in (1, 3):
        i = _eye(n)
        assert _eye(n) is i and np.array_equal(i[:, :, 0], np.eye(n))
        with pytest.raises(ValueError):
            i[0, 0, 0] = 2.0


# ---------------------------------------------------------------------------
# input reflection, both routes

def test_input_reflection_extremes(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    y_r = spectrum_const(0.02, grid)
    assert np.max(np.abs(input_reflection(y_r, y_r))) < 1e-14
    rho = input_reflection(np.zeros_like(y_r), y_r)
    assert np.max(np.abs(rho + np.eye(1))) < 1e-12
    # the one-solve form never inverts Y_R: a zero source gives I, the limit
    # of the paper's form
    zero = np.zeros_like(y_r)
    rho = input_reflection(y_r, zero)
    assert np.array_equal(rho, np.ones_like(rho))


@pytest.mark.parametrize("n_conductors", [1, 2])
def test_dual_route_agreement(grid, n_conductors):
    cab = powerline_cable(n_conductors=n_conductors)
    p = line_propagation_params(cab, grid)
    rng = np.random.default_rng(42 + n_conductors)
    y_l = spectrum_const(random_passive_matrix(rng, n_conductors), grid)
    y_r = spectrum_const(random_passive_matrix(rng, n_conductors), grid)
    via_y = input_reflection(input_admittance_line(p, propagator(p, 83.0), y_l), y_r)
    via_m = input_reflection_modal(p, 83.0, load_reflection(y_l, p.yc), y_r)
    assert rel_err(via_m, via_y) < 1e-9


# ---------------------------------------------------------------------------
# line transfer

def test_ctf_zero_length_identity(grid, coupled_cable):
    p = line_propagation_params(coupled_cable, grid)
    rng = np.random.default_rng(3)
    y_l = spectrum_const(random_passive_matrix(rng, 2), grid)
    h = ctf_line(p, propagator(p, 0.0), y_l)
    assert np.max(np.abs(h - np.eye(2))) < 1e-12


def test_ctf_matched_scalar(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    h = ctf_line(p, propagator(p, 137.0), p.yc)
    assert rel_err(h[:, 0, 0], np.exp(-p.gamma[:, 0] * 137.0)) < 1e-12


def test_ctf_matched_from_modal(grid, coupled_cable):
    # uniform-coupling cables commute with their propagator, so the matched
    # transfer equals the modal exponential brought back to natural frame
    p = line_propagation_params(coupled_cable, grid)
    h = ctf_line(p, propagator(p, 90.0), p.yc)
    e = np.exp(-p.gamma * 90.0)
    ref = p.t @ (e[:, :, None] * np.eye(2)) @ p.t_inv
    assert rel_err(h, ref) < 1e-9


def test_ctf_open_lossless_sech(grid):
    # open end: H = 2 e^{-gl} / (1 + e^{-2gl}) = sech(gl), |H| = 1/|cos(bl)|
    cab = lossless_cable(2.5e-7, 1e-10)
    p = line_propagation_params(cab, grid)
    length = 13.7
    h = ctf_line(p, propagator(p, length), np.zeros((grid.n_points, 1, 1), complex))
    ref = 1.0 / np.cosh(p.gamma[:, 0] * length)
    assert rel_err(h[:, 0, 0], ref) < 1e-9


# ---------------------------------------------------------------------------
# truncated series

def _series_setup(grid, y_l_scale=3.0):
    # lossless line with resistive mismatch: spectral radius |rho| exactly
    cab = lossless_cable()
    p = line_propagation_params(cab, grid)
    y_l = spectrum_const(y_l_scale, grid) * p.yc
    rho = load_reflection(y_l, p.yc)
    y_r = spectrum_const(0.02, grid)
    return p, y_l, rho, y_r


def test_series_leading_terms(grid):
    p, _, rho, y_r = _series_setup(grid)
    res = series_truncated_responses(p, 30.0, rho, y_r, 0)
    assert rel_err(res.y_in, p.yc) < 1e-12
    # leading reflection term: N T rho_G^M T^-1 N^-1
    n = (y_r + p.yc) @ np.linalg.inv(p.yc)
    m = y_r @ np.linalg.inv(p.yc)
    rho_g = np.linalg.solve(np.eye(1) + m, np.eye(1) - m)
    ref = n @ rho_g @ np.linalg.inv(n)
    assert rel_err(res.rho_in, ref) < 1e-12


def test_series_matched_exact(grid, std_cable):
    p = line_propagation_params(std_cable, grid)
    zero = np.zeros((grid.n_points, 1, 1), complex)
    y_r = spectrum_const(0.02, grid)
    exact_y = input_admittance_line(p, propagator(p, 60.0), p.yc)
    exact_r = input_reflection_modal(p, 60.0, zero, y_r)
    for n in (0, 1, 5):
        res = series_truncated_responses(p, 60.0, zero, y_r, n)
        assert rel_err(res.y_in, exact_y) < 1e-12
        assert rel_err(res.rho_in, exact_r) < 1e-12


def test_series_radius_half_converges(grid):
    # |rho_L| = 0.5 on a lossless line: radius 0.5 at every frequency, and
    # the tail bound 2 * 0.5^51 / (1 - 0.5) makes n = 50 far below 1e-6
    p, y_l, rho, y_r = _series_setup(grid, y_l_scale=3.0)
    res = series_truncated_responses(p, 30.0, rho, y_r, 50)
    assert np.allclose(res.spectral_radius, 0.5, atol=1e-12)
    exact_y = input_admittance_line(p, propagator(p, 30.0), y_l)
    exact_r = input_reflection_modal(p, 30.0, rho, y_r)
    assert rel_err(res.y_in, exact_y) < 1e-6
    assert rel_err(res.rho_in, exact_r) < 1e-6


@pytest.mark.parametrize("scale,radius", [(3.0, 0.5), (37 / 3, 0.85)])
def test_series_error_monotone(grid, scale, radius):
    p, y_l, rho, y_r = _series_setup(grid, y_l_scale=scale)
    exact_y = input_admittance_line(p, propagator(p, 30.0), y_l)
    exact_r = input_reflection_modal(p, 30.0, rho, y_r)
    errs_y, errs_r = [], []
    for n in (1, 2, 5, 10, 50):
        res = series_truncated_responses(p, 30.0, rho, y_r, n)
        assert np.max(res.spectral_radius) < 0.9
        assert np.allclose(res.spectral_radius, radius, atol=1e-9)
        errs_y.append(rel_err(res.y_in, exact_y))
        errs_r.append(rel_err(res.rho_in, exact_r))
    assert all(a >= b - 1e-15 for a, b in zip(errs_y, errs_y[1:]))
    assert all(a >= b - 1e-15 for a, b in zip(errs_r, errs_r[1:]))


def test_series_flags_divergence(grid):
    # negative-conductance load pushes |rho_L| above 1 on a lossless line;
    # the series reports radius >= 1 instead of raising
    cab = lossless_cable()
    p = line_propagation_params(cab, grid)
    rho = load_reflection(spectrum_const(-0.001, grid), p.yc)
    res = series_truncated_responses(p, 30.0, rho,
                                     spectrum_const(0.02, grid), 3)
    assert np.all(res.spectral_radius > 1.0)
    assert not np.any(res.converged)


# ---------------------------------------------------------------------------
# spectrum container

def test_matrix_spectrum_validation(grid):
    vals = np.zeros((grid.n_points, 1, 1), complex)
    MatrixSpectrum(grid, vals, "admittance")
    with pytest.raises(ValidationError, match="kind"):
        MatrixSpectrum(grid, vals, "voltage")
    vals2 = vals.copy()
    vals2[3, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        MatrixSpectrum(grid, vals2, "admittance")


def test_frequency_grid_points_built_once():
    grid = FrequencyGrid(1e5, 2e5, 6)
    f = grid.frequencies
    assert grid.frequencies is f
    assert not f.flags.writeable
    assert np.array_equal(f, 1e5 + 2e5 * np.arange(6))
    twin = FrequencyGrid(1e5, 2e5, 6)
    assert twin == grid and hash(twin) == hash(grid)
    assert twin.frequencies is not f


def test_frequency_grid_validation():
    with pytest.raises(ValidationError):
        FrequencyGrid(0.0, 1e5, 10)
    with pytest.raises(ValidationError):
        FrequencyGrid(1e5, 1e5, 1)


@pytest.mark.parametrize("n_points", [2.5, 3.0, np.nan, np.inf, "3", None])
def test_frequency_grid_needs_an_integer_point_count(n_points):
    # 2.5 built 3 frequencies, and every spectrum on that grid failed later
    # with "spectrum length does not match its grid"
    with pytest.raises(ValidationError, match="integer n_points >= 2"):
        FrequencyGrid(1e5, 1e5, n_points)
    grid = FrequencyGrid(1e5, 1e5, np.int64(3))
    assert grid == FrequencyGrid(1e5, 1e5, 3) and grid.frequencies.size == 3


@pytest.mark.parametrize("field", ["f_start", "f_step"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_frequency_grid_rejects_non_finite(field, value):
    kwargs = {"f_start": 1e5, "f_step": 1e5, "n_points": 10, field: value}
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        FrequencyGrid(**kwargs)
