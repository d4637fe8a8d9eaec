"""Time evolution of the single-excitation amplitudes.

Two independent routes are provided:

* the production path `evolve`: in the frame that turns at omega_q the
  evolution matrix is constant; `rotating_amplitudes` chains its one-step
  exponentials along the grid, and `evolve` rotates back (the sweeps take
  the populations straight from the rotating frame);
* the verification path `oracle_integrate`: classical RK4 directly on the
  amplitude equations with their explicit oscillating phase factors.

Both return C-frame amplitudes, so any disagreement exposes an error in the
frame algebra or in either integrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import SystemParams, _field_array, _frame_frequencies, real_generators

__all__ = [
    "AmplitudeState",
    "Trajectory",
    "evolve",
    "oracle_integrate",
    "DEFAULT_INITIAL",
]

# Initial state: one photon, both atoms in the ground state.
DEFAULT_INITIAL = (1.0 + 0.0j, 0.0j, 0.0j, 0.0j)

# Largest infinity norm of a step exponential's argument (22 squarings; 2**22
# eps ~ 1e-9 is the whole norm budget): `_expm_stack` makes a larger one NaN.
_MAX_STEP_NORM = 2.0**21
# Change of the physical norm left to roundoff: `evolve` refuses a larger rise
# relative to the norm at t = 0, and a larger fall at a lossless point; states
# and metrics refuse a norm above 1 + this.
_NORM_SLACK = 1e-9
# Longest RK4 substep of the oracle; its error stays far below the tests' 1e-6
_ORACLE_STEP = 1e-3
# Points x time points of one trajectory slice of `rotating_amplitudes`, which
# keeps its (n, T, 4) amplitudes at a few hundred kB
_BLOCK_SAMPLES = 2**12
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(16))  # 1 / k!, the coefficients of the Taylor core


def _population_sums(z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g = |Z1|^2 + |Z2|^2 + |Z3|^2, s = |Z4|^2 and the physical norm g + 2s (Z4
    stands for both atoms) of (..., 4) amplitudes: one pass for g, two products
    and a sum for s (the bits of a two-term `einsum`, at half its cost on a
    kernel slice), and the norm formed once."""
    v = np.ascontiguousarray(z, dtype=complex).view(float)
    if v.shape[-1] != 8:
        raise ValueError(f"amplitudes need 4 components in their last axis, got shape {np.shape(z)}")
    field, re, im = v[..., :6], v[..., 6], v[..., 7]
    g = np.einsum("...i,...i->...", field, field)
    s = re * re
    s += im * im
    norm = 2.0 * s
    norm += g  # g + 2s, without a second temporary
    return g, s, norm


@dataclass(frozen=True)
class AmplitudeState:
    """C-frame amplitudes (C1, C2, C3, C4) at one instant; C5 is identically C4."""

    t: float
    c: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Amplitudes sampled on a strictly increasing time grid.

    `times` has shape (T,), `amplitudes` has shape (T, 4) with rows
    (C1, C2, C3, C4), or (n, T, 4) for n parameter points evolved together.
    """

    times: np.ndarray
    amplitudes: np.ndarray


def _expm_stack(m: np.ndarray) -> np.ndarray:
    """exp(m) of each matrix of an (n, d, d) stack, real or complex: scaling and
    squaring with a degree-15 Taylor polynomial.  Each matrix is halved until its
    infinity norm is <= 0.5, where the truncation error is below 0.5**16 / 16!
    ~ 7e-19 relative, and squared back by its own count, so its result does not
    depend on the others; one whose norm is not <= _MAX_STEP_NORM (NaN and inf
    too) is exponentiated as 0 and its result made NaN.  The polynomial sum_k
    X^k / k! is evaluated Paterson-Stockmeyer style, Horner in X^4 over blocks
    c_i + c_{i+1} X + c_{i+2} X^2 + c_{i+3} X^3: 6 products, no solve.  It
    holds at most 7 stacks at once: its argument, X if a matrix is halved (else
    X is the argument), X^2, X^3, X^4, the sum and one spare that takes each
    product and term, so that the Horner loop allocates no stack, only (n, d)
    diagonals; only the argument and the sum outlive it into the squarings."""
    norm = np.abs(m).sum(axis=-1).max(axis=-1)
    refused = ~(norm <= _MAX_STEP_NORM)  # NaN too, which `>` would pass
    if refused.any():
        m, norm[refused] = np.where(refused[:, None, None], 0.0, m), 0.0
    squarings = np.ceil(np.log2(np.maximum(norm, 0.5)) + 1.0).astype(int)  # 0 at norm <= 0.5
    if squarings.any():
        m = m / np.ldexp(1.0, squarings)[:, None, None]

    c, diagonal = _TAYLOR, np.arange(m.shape[-1])
    m2 = m @ m
    m3, m4 = m2 @ m, m2 @ m2
    f = c[15] * m3
    spare = np.empty_like(f)  # each product and each c_k X^j term is written here, not to a fresh stack
    for i in (12, 8, 4, 0):  # each block summed from its smallest term up, in place
        if i < 12:
            f, spare = np.matmul(f, m4, out=spare), f
            f += np.multiply(c[i + 3], m3, out=spare)
        f += np.multiply(c[i + 2], m2, out=spare)
        f += np.multiply(c[i + 1], m, out=spare)
        f[:, diagonal, diagonal] += c[i]  # gathered, added and scattered back as one (n, d) array
    del m, m2, m3, m4, spare  # the squarings below hold f and at most two copies of its squared part
    for k in range(squarings.max(initial=0)):  # a round that every matrix takes squares the whole stack, unmasked
        more = squarings > k if k >= squarings.min() else slice(None)
        part = f[more]
        f[more] = part @ part
    f[refused] = np.nan
    return f


def _validated_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("time grid must be a non-empty 1-D sequence")
    if not np.isfinite(t).all():
        raise ValueError("time grid must be finite")
    if t[0] < 0:
        raise ValueError(f"time grid must start at t >= 0, got {t[0]}")
    if not (t[1:] > t[:-1]).all():
        raise ValueError("time grid must be strictly increasing")
    return t


def _initial_vector(initial) -> np.ndarray:
    z0 = np.array(DEFAULT_INITIAL if initial is None else initial, dtype=complex)
    if z0.shape != (4,):
        raise ValueError("initial amplitudes must have exactly 4 components")
    return z0


def _one_run(t: np.ndarray) -> float:
    """The step h of the checked grid `t`, which must be t_k = k h from t_0 = 0
    with at least one step, each point within 4 ulps of its position, as every
    `arange * dt` or `linspace` from 0 is: one vector pass, or a refusal."""
    if t.size < 2 or t[0] != 0.0:
        raise ValueError(f"time grid must start at 0 and take a step, got {t.size} point(s) from t[0] = {t[0].item()!r}")
    h, rest = float(t[1]), t[2:]
    ulp = np.spacing(np.minimum(rest, 2.0**1023))  # math.ulp: the top binade's spacing up to the largest float
    with np.errstate(over="ignore"):  # a position past the grid's floats is off it, as inf
        off = np.abs(rest - np.arange(2, rest.size + 2) * h) > 4.0 * ulp
    if off.any():
        k = 2 + int(off.argmax())
        raise ValueError(f"time grid must be t_k = k h from t_0 = 0, each point within 4 ulps: "
                         f"t[{k}] = {t[k].item()!r} is off the step h = {h!r}")
    return h


def rotating_amplitudes(chunks: Callable[[int], Iterable[np.ndarray]], t_grid, *,
                        initial: Sequence[complex] | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """(n, T, 4) amplitudes Z, in the frame that turns at omega_q, of each slice
    of n points in turn, with their (n, T) population sums g = |Z1|^2 + |Z2|^2 +
    |Z3|^2 and s = |Z4|^2 and the physical norm g + 2s, the one array that the
    norm check below and the metrics' norm guard both read.  `chunks(size)`
    gives the points as (n <= size, 11) `model._field_array` chunks, in order.

    Each point's evolution matrix A is constant there, and the grid must be
    t_k = k h from t_0 = 0 with a step, each point within 4 ulps (`_one_run`,
    which `arange * dt` and `linspace` from 0 pass): Z(t_0) is the initial
    state and Z(t_k) = exp(-i A h) Z(t_{k-1}).  The kernel runs on the real
    form of these maps: Z is the complex view of an (n, T, 8) float array X,
    and a step is X_k = X_{k-1} @ M with the real 8x8 M = exp(h W), W the
    `model.real_generators` form of -i A.  A chunk of at most _BLOCK_SAMPLES //
    16 points builds W and takes the M of every point as one stacked
    exponential, _BLOCK_SAMPLES x 32 B at most (an M takes 512 B): W, h W
    and the up to 7 such stacks its Taylor core holds set a sweep's peak
    memory, not a slice.  A slice of _BLOCK_SAMPLES // max(T, 16) points (at
    least one) holds at most _BLOCK_SAMPLES points x time points, or one
    point of T, and is filled by doubling, X_{1+k+j} = X_{1+j} @ M^k for j <
    k: T steps cost ceil(log2 T) batched fills, one squaring fewer and one
    exponential.
    A slice is refused, after the slices before it are yielded, if one point
    fails: a step exponential that would need more than 22 squarings (its step
    maps are NaN, so the rest of the chunk still runs), and a physical norm
    (|Z_n| = |C_n|) that rises more than 1e-9 (relative) above its t = 0
    value, as the roundoff of many squarings does when T steps compound it,
    or at a lossless point (all rates 0) falls as far below; the check reads g + 2s.
    """
    t = _validated_grid(t_grid)
    z0 = _initial_vector(initial)
    x0 = z0.view(float)[None]
    norm0 = float(_population_sums(z0)[2])
    limit, floor = norm0 * (1.0 + _NORM_SLACK), norm0 * (1.0 - _NORM_SLACK)
    h = _one_run(t)
    steps = t.size - 1
    per_slice = max(1, _BLOCK_SAMPLES // max(t.size, 16))
    per_chunk = max(1, _BLOCK_SAMPLES // 16) // per_slice * per_slice
    for fields in chunks(per_chunk):
        lossless = ~fields[:, 7:].any(axis=1)  # whose norm stays N(0), so that a fall is roundoff too
        with np.errstate(over="ignore", invalid="ignore"):  # a norm that overflows is refused as too large
            w = real_generators(fields)
            exps = _expm_stack(h * w)
        del w  # the slices need only the step maps
        for lo in range(0, len(exps), per_slice):
            if np.isnan(exps[lo:lo + per_slice, 0, 0]).any():  # a point's step map is NaN past the budget
                raise ValueError(f"one-step exponential exp(-i A dt) has no precision left for time step dt = {h:g}: "
                                 "dt times the evolution matrix norm exceeds 2**21")
            x = np.empty((min(per_slice, len(exps) - lo), t.size, 8))
            x[:, 0] = x0
            power, k = exps[lo:lo + len(x)], 1
            x[:, 1:2] = x[:, :1] @ power
            while k < steps:  # x[1 + k + j] = x[1 + j] @ M^k for j < k
                m = min(k, steps - k)
                np.matmul(x[:, 1:1 + m], power, out=x[:, 1 + k:1 + k + m])
                power, k = (power @ power if 2 * k < steps else power), 2 * k
            z = x.view(complex)
            g, s, norm = _population_sums(z)
            peak, low = float(norm.max()), float(norm[lossless[lo:lo + len(x)]].min(initial=floor))
            if not (peak <= limit and low >= floor):
                moved = (f"rose to {peak!r}, more than 1e-9 (relative) above" if not peak <= limit
                         else f"fell to {low!r}, more than 1e-9 (relative) below")
                raise ValueError(f"one-step exponential exp(-i A dt) lost precision over {steps} steps "
                                 f"of dt = {h:g}: the physical norm {moved} its value at t = 0")
            yield z, g, s, norm
        del exps  # before the next chunk takes its own


def evolve(
    p: SystemParams | Sequence[SystemParams],
    t_grid,
    *,
    initial: Sequence[complex] | None = None,
) -> Trajectory:
    """Propagate one parameter point (amplitudes (T, 4)) or a sequence of n
    points advancing together (amplitudes (n, T, 4)) over the grid: the
    `rotating_amplitudes` Z of their one field array, slices joined, with its
    checks and refusals, rotated back to C_n = Z_n exp(+i f_n t) with f the
    frame frequencies of `model._frame_frequencies` (an f_n that overflows is
    an infinite step norm, which the kernel refuses first).
    `initial` (amplitudes at t=0, shared by all points) is a hook for testing only.
    """
    fields = _field_array([p] if isinstance(p, SystemParams) else p)
    if not len(fields):
        raise ValueError("evolve needs at least one parameter point")
    slices = rotating_amplitudes(lambda size: (fields[lo:lo + size] for lo in range(0, len(fields), size)),
                                 t_grid, initial=initial)
    c = np.concatenate([z for z, *_ in slices])  # a fresh array, rotated in place
    t, f = np.asarray(t_grid, dtype=float), _frame_frequencies(fields)
    c *= np.exp(1j * t[:, None] * f[:, None, :])
    return Trajectory(times=t, amplitudes=c[0] if isinstance(p, SystemParams) else c)


def oracle_integrate(
    p: SystemParams,
    t_grid,
    *,
    initial: Sequence[complex] | None = None,
) -> Trajectory:
    """Independent verification path: classical RK4 on the C-frame equations.

    Integrates the amplitude ODEs C' = M(t) C with their explicit oscillating
    factors exp(+i (omega_k - omega_j) t), read off the omegas, left in place
    (no frame rotation), fixed substep <= `_ORACLE_STEP`, landing exactly on
    every grid point: the span t_prev -> t_k takes n = ceil(span /
    `_ORACLE_STEP`) substeps of h = span / n.  With w = omegas - omega_q and
    D(s) = diag(exp(+i w s)), M(s + u) = D(s) M(u) D(s)^-1, and RK4 is built
    from products and sums of M, so the RK4 map of the substep from s is
    D(s) S D(s)^-1 with S the map of the substep from 0 (one RK4 pass over the
    identity, phases at 0, h/2 and h).  The span's n substeps are then exactly
    D(t_k) (D(-h) S)^n D(t_prev)^-1; the powers of all span lengths are taken at
    once by binary powering, and y = D(t)^-1 C is chained span by span and rotated
    back.  Memory is O(T) plus a 4x4 map per distinct span length.
    Deliberately shares no numerical code with `evolve`: only the parameter
    container and the input checks `_validated_grid` and `_initial_vector`.
    """
    t = _validated_grid(t_grid)
    z0 = _initial_vector(initial)

    # interaction picture C_n = psi_n exp(+i omega_n t): the coupling of C_j
    # into C_k carries exp(+i (omega_k - omega_j) t)
    omegas = np.array([p.omega_a, p.omega_b, p.omega_m, p.omega_q])
    g = np.zeros((4, 4))
    g[0, 1] = g[1, 0] = p.g_a
    g[1, 2] = g[2, 1] = p.g_b
    g[0, 3], g[3, 0] = 2.0 * p.lam, p.lam
    decay = np.diag(0.5 * np.array([p.kappa_a, p.kappa_b, p.kappa_m, p.gamma]))

    def m(u):  # M(u), for each u of an (L, 1, 1) array too
        return -1j * g * np.exp(1j * (omegas[:, None] - omegas) * u) - decay

    # one RK4 pass over the identity per distinct span length, longest first, told apart by a set and
    # Python's sort and multiplied by einsums (np.unique and complex matmul page in a few hundred kB cold)
    spans = t - np.concatenate(([0.0], t[:-1]))  # np.diff(t, prepend=0.0), without its cold set-up
    lengths, product = np.array(sorted(set(spans.tolist()), reverse=True)), "...ij,...jk->...ik"
    if not math.isfinite(lengths[0].item() / _ORACLE_STEP):  # before the substep counts overflow
        raise ValueError(f"time span {lengths[0]:g} has more RK4 substeps of {_ORACLE_STEP:g} than a float holds")
    n = np.ceil(lengths / _ORACLE_STEP)
    h = (lengths / np.maximum(n, 1.0))[:, None, None]  # a span of 0, a point at t = 0, takes no substep
    one, k1, mid = np.eye(4), m(0.0), m(0.5 * h)
    k2 = np.einsum(product, mid, one + 0.5 * h * k1)
    k3 = np.einsum(product, mid, one + 0.5 * h * k2)
    k4 = np.einsum(product, m(h), one + h * k3)
    w = omegas - p.omega_q
    steps = np.exp(-1j * w[:, None] * h) * (one + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))  # D(-h) S
    powers = np.eye(4, dtype=complex) * np.ones((len(lengths), 1, 1))  # an identity per length
    # (D(-h) S)^n by binary powering, bits read up front (n / 2^k floors exactly as a float); round k squares
    # and multiplies on the prefix of lengths with n >= 2^k, counted in floats (an int sum pages in 64 kB)
    scaled = n // np.ldexp(1.0, np.arange(int(n.max()).bit_length()))[:, None]
    lives = np.minimum(scaled, 1.0).sum(axis=1).astype(int).tolist()
    for k, (live, odd) in enumerate(zip(lives, scaled % 2 == 1)):
        steps = np.einsum(product, steps[:live], steps[:live]) if k else steps[:live]
        powers[:live] = np.where(odd[:live, None, None], np.einsum(product, steps, powers[:live]), powers[:live])

    out, y, power = np.empty((t.size, 4), dtype=complex), z0, dict(zip(lengths, powers))
    for k, length in enumerate(spans):  # y = D(t)^-1 C, span by span
        out[k] = y = np.einsum("ij,j->i", power[length], y)
    for column, wn in zip(out.T, w):  # C = D(t) y, one column at a time
        column *= np.exp(1j * wn * t)
    return Trajectory(times=t, amplitudes=out)
