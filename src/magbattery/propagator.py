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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .model import SystemParams, _field_array, evolution_matrices

__all__ = [
    "AmplitudeState",
    "Trajectory",
    "physical_norm",
    "evolve",
    "oracle_integrate",
    "DEFAULT_INITIAL",
]

# Initial state: one photon, both atoms in the ground state.
DEFAULT_INITIAL = (1.0 + 0.0j, 0.0j, 0.0j, 0.0j)

# Largest infinity norm of a step exponential's argument (22 squarings; 2**22
# eps ~ 1e-9 is the whole norm budget): `_expm_stack` makes a larger one NaN.
_MAX_STEP_NORM = 2.0**21
# Rise of the physical norm left to roundoff: `evolve` refuses a larger rise
# relative to the norm at t = 0, states and metrics a norm above 1 + this.
_NORM_SLACK = 1e-9
# Longest RK4 substep of the oracle; its error stays far below the tests' 1e-6
_ORACLE_STEP = 1e-3
# Substeps the RK4 oracle evaluates in one batch, and the most substeps of
# one span whose maps it multiplies down to one matrix; a batch's arrays
# then peak below 1 MB
_ORACLE_PIECE = 512
# Points x time points of one trajectory slice of `rotating_amplitudes`, which
# keeps its (n, T, 4) amplitudes at a few hundred kB
_BLOCK_SAMPLES = 2**12


def physical_norm(c: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Survival probability |C1|^2 + |C2|^2 + |C3|^2 + 2|C4|^2 of (..., 4) amplitudes.

    C4 is counted twice because it stands for both degenerate single-atom
    excitations.  Conserved without decay, non-increasing with decay.
    """
    return _population_sums(c)[2]


def _population_sums(z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g = |Z1|^2 + |Z2|^2 + |Z3|^2, s = |Z4|^2 and the physical norm g + 2s of
    (..., 4) amplitudes: one pass for g, two products and a sum for s (the
    bits of a two-term `einsum`, at half its cost on a kernel slice), and the
    norm formed once."""
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
    product and term, so that no stack is allocated inside the Horner loop;
    only the argument and the sum outlive it into the squarings."""
    norm = np.abs(m).sum(axis=-1).max(axis=-1)
    refused = ~(norm <= _MAX_STEP_NORM)  # NaN too, which `>` would pass
    if refused.any():
        m, norm[refused] = np.where(refused[:, None, None], 0.0, m), 0.0
    squarings = np.ceil(np.log2(np.maximum(norm, 0.5)) + 1.0).astype(int)  # 0 at norm <= 0.5
    if squarings.any():
        m = m / np.ldexp(1.0, squarings)[:, None, None]

    c, d = [1.0 / math.factorial(k) for k in range(16)], m.shape[-1]
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
        for j in range(d):  # numpy adds to each diagonal entry unbuffered, to the 2-D diagonal view through a copy
            f[:, j, j] += c[i]
    del m, m2, m3, m4, spare  # the squarings below hold f and two copies of its squared part
    for k in range(squarings.max(initial=0)):
        more = squarings > k
        part = f[more]
        f[more] = part @ part
    f[refused] = np.nan
    return f


def _real_form(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(..., 2d, 2d) real matrices M of the (..., d, d) complex s = re + i im such
    that x @ M is the float view of z @ s.T for rows z with float view x: entry
    s_ij = a + ib is the block [[a, b], [-b, a]] at rows 2j, 2j + 1 and columns
    2i, 2i + 1.  M(s1 @ s2) = M(s2) @ M(s1), and exp(M(s)) = M(exp(s)).  Taking
    the parts lets the kernel pass those of -i A = Im A - i Re A without forming
    it; the four block entries are strided copies into one fresh array."""
    d = re.shape[-1]
    m = np.empty((*re.shape[:-2], d, 2, d, 2))
    m[..., 0, :, 0] = m[..., 1, :, 1] = re.swapaxes(-1, -2)
    m[..., 0, :, 1] = im.swapaxes(-1, -2)
    np.negative(im.swapaxes(-1, -2), out=m[..., 1, :, 0])
    return m.reshape(*re.shape[:-2], 2 * d, 2 * d)


def _validated_grid(t_grid) -> np.ndarray:
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("time grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid must be finite")
    if t[0] < 0:
        raise ValueError(f"time grid must start at t >= 0, got {t[0]}")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("time grid must be strictly increasing")
    return t


def _initial_vector(initial) -> np.ndarray:
    z0 = np.array(DEFAULT_INITIAL if initial is None else initial, dtype=complex)
    if z0.shape != (4,):
        raise ValueError("initial amplitudes must have exactly 4 components")
    return z0


def _runs(t: np.ndarray) -> tuple[list[int], list[float]]:
    """The first index and the step of each run of the checked grid `t`, by the
    position rule of `rotating_amplitudes`.  A grid that is one run, as every
    `arange * dt` or `linspace` from 0 is, is checked in one vector pass; any
    other is split point by point."""
    first = int(t[0] == 0.0)  # a point at t = 0 is the initial state, no step
    if first == t.size:
        return [], []
    origin = t[first - 1] if first else 0.0
    h, rest = t[first] - origin, t[first + 1:]
    ulp = np.spacing(np.minimum(rest, 2.0**1023))  # math.ulp: the top binade's spacing up to the largest float
    with np.errstate(over="ignore"):  # a position past the grid's floats is off the run, as inf
        off = np.abs(rest - (origin + np.arange(2, rest.size + 2) * h)) > 4.0 * ulp
    if not off.any():
        return [first], [float(h)]
    tl, starts, hs = t.tolist(), [], []
    for k in range(first, len(tl)):
        if not hs or abs(tl[k] - (origin + (k - start + 1) * h)) > 4.0 * math.ulp(tl[k]):
            start, origin = k, (tl[k - 1] if k else 0.0)
            h = tl[k] - origin
            starts.append(k)
            hs.append(h)
    return starts, hs


def rotating_amplitudes(chunks: Callable[[int], Iterable[np.ndarray]], t_grid, *,
                        initial: Sequence[complex] | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """(n, T, 4) amplitudes Z, in the frame that turns at omega_q, of each slice
    of n points in turn, with their (n, T) population sums g = |Z1|^2 + |Z2|^2 +
    |Z3|^2 and s = |Z4|^2 and the physical norm g + 2s, the one array that the
    norm check below and the metrics' norm guard both read.  `chunks(size)`
    gives the points as (n <= size, 11) `model._field_array` chunks, in order.

    Each point's evolution matrix A is constant there: Z(t_k) = exp(-i A h)
    Z(t_{k-1}) with h = t_k - t_{k-1} and t_{-1} = 0; a point at t = 0 is the
    initial state.  The grid is checked and split into runs once, by position
    (`_runs`): the run from t_s takes the step h = t_s - t_{s-1} and holds
    every later t_k within 4 ulps of t_{s-1} + (k - s + 1) h.  So rounding
    cannot split `arange * dt` or `linspace`, and a grid that changes its step
    splits.  The kernel runs on the real form of these maps (`_real_form`): Z
    is the complex view of an (n, T, 8) float array X, and a step is
    X_k = X_{k-1} @ M with the real 8x8 M = exp(h W), W the real form of -i A.
    Per chunk, W is built and the M of every run and point are one stacked
    exponential; per slice of about _BLOCK_SAMPLES points x time points, each
    run is filled by doubling, X_{k+j} = X_j @ M^k for j < k, so a run of L
    steps costs ceil(log2 L) batched fills and one squaring fewer, and a
    uniform grid one exponential per point.  An M takes 512 B: for R runs, a
    chunk holds at most _BLOCK_SAMPLES // 16R points, a whole number of slices
    of _BLOCK_SAMPLES // max(T, 16R) points (at least one point), so its
    exponentials take at most _BLOCK_SAMPLES x 32 B, half a slice's
    trajectory, and the at most 7 stacks the Taylor core holds at once, its
    argument included, 7 times that.
    A slice is refused, after the slices before it are yielded, if one point
    fails: a step exponential that would need more than 22 squarings (its step
    maps are NaN, so the rest of the chunk still runs), and a physical norm
    (|Z_n| = |C_n|) that rises more than 1e-9 (relative) above its t = 0
    value, as the roundoff of many squarings does when T steps compound it;
    the check reads g + 2s.
    """
    t = _validated_grid(t_grid)
    z0 = _initial_vector(initial)
    x0 = z0.view(float)[None]
    limit = float(physical_norm(z0)) * (1.0 + _NORM_SLACK)
    starts, hs = _runs(t)
    dt, stepping = max(hs, default=0.0), max(1, len(hs))
    per_slice = max(1, _BLOCK_SAMPLES // max(t.size, 16 * stepping))
    per_chunk = max(1, _BLOCK_SAMPLES // (16 * stepping)) // per_slice * per_slice
    for fields in chunks(per_chunk):
        with np.errstate(over="ignore", invalid="ignore"):  # a norm that overflows is refused as too large
            a = evolution_matrices(fields)[0]
            w = _real_form(a.imag, -a.real)  # of -i A
            del a
            exps = _expm_stack((np.reshape(hs, (-1, 1, 1, 1)) * w).reshape(-1, 8, 8)).reshape(len(hs), len(w), 8, 8)
        del w  # the slices need only the step maps
        fine = ~np.isnan(exps[..., 0, 0]).any(axis=0)  # a point's step maps are NaN past the budget
        for lo in range(0, len(fine), per_slice):
            if not fine[lo:lo + per_slice].all():
                raise ValueError(f"one-step exponential exp(-i A dt) has no precision left for time step dt = {dt:g}: "
                                 "dt times the evolution matrix norm exceeds 2**21")
            x = np.empty((min(per_slice, len(fine) - lo), t.size, 8))
            x[:, 0] = x0  # the state at t = 0, or overwritten by the first step
            for start, end, power in zip(starts, starts[1:] + [t.size], exps[:, lo:lo + len(x)]):
                x[:, start:start + 1] = (x[:, start - 1:start] if start else x0) @ power
                k = 1
                while k < end - start:  # x[start + k + j] = x[start + j] @ M^k for j < k
                    m = min(k, end - start - k)
                    np.matmul(x[:, start:start + m], power, out=x[:, start + k:start + k + m])
                    power, k = (power @ power if 2 * k < end - start else power), 2 * k
            z = x.view(complex)
            g, s, norm = _population_sums(z)
            peak = float(norm.max())
            if not peak <= limit:
                raise ValueError(f"one-step exponential exp(-i A dt) lost precision over {t.size - starts[0]} steps "
                                 f"of dt = {dt:g}: the physical norm rose to {peak!r}, more than 1e-9 (relative) "
                                 "above its value at t = 0")
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
    frame frequencies of `model.evolution_matrices`, which must be finite.
    `initial` (amplitudes at t=0, shared by all points) is a hook for testing only.
    """
    fields = _field_array([p] if isinstance(p, SystemParams) else p)
    if not len(fields):
        raise ValueError("evolve needs at least one parameter point")
    slices = rotating_amplitudes(lambda size: (fields[lo:lo + size] for lo in range(0, len(fields), size)),
                                 t_grid, initial=initial)
    c = np.concatenate([z for z, *_ in slices])  # a fresh array, rotated in place
    with np.errstate(over="ignore"):  # a frame frequency that overflows is refused below, not warned about
        t, f = np.asarray(t_grid, dtype=float), evolution_matrices(fields)[1]
    if not np.isfinite(f).all():
        bad = [f"{w} - omega_q" for w, ok in zip(("omega_a", "omega_b", "omega_m"), np.isfinite(f).all(axis=0)) if not ok]
        raise ValueError(f"frame frequencies must be finite, got an overflow in {' and '.join(bad)}")
    c *= np.exp(1j * t[:, None] * f[:, None, :])
    return Trajectory(times=t, amplitudes=c[0] if isinstance(p, SystemParams) else c)


def oracle_integrate(
    p: SystemParams,
    t_grid,
    *,
    initial: Sequence[complex] | None = None,
) -> Trajectory:
    """Independent verification path: classical RK4 on the C-frame equations.

    Integrates the amplitude ODEs with their explicit oscillating factors
    exp(+i (omega_k - omega_j) t), read off the omegas, left in place (no
    frame rotation), fixed substep <= `_ORACLE_STEP`, landing exactly on
    every grid point.  The equations are linear, so one RK4 pass over the
    columns of the identity, on the four component rows (4 columns x a
    batch's substeps), gives every substep's RK4 map at once; each exp(+i w t)
    is taken once per point of a piece's half-step lattice t_prev + (first +
    k/2) h.  Each piece of at most `_ORACLE_PIECE` substeps of one span is
    multiplied down pairwise, later maps on the left, as real 8x8 maps, to
    one that advances the float view of the amplitudes.  Stage rows, maps
    and tree levels live in two buffers allocated once per call, so memory
    is O(piece + T) and a batch's own arrays stay at tens of kB.
    Deliberately shares no code with `evolve` beyond the parameter container.
    """
    t = _validated_grid(t_grid)
    z0 = _initial_vector(initial)

    # interaction picture C_n = psi_n exp(+i omega_n t): the coupling of
    # C_j into C_k carries exp(+i (omega_k - omega_j) t)
    w_ab, w_bm, w_aq = p.omega_a - p.omega_b, p.omega_b - p.omega_m, p.omega_a - p.omega_q
    ga, gb, lam = p.g_a, p.g_b, p.lam
    ka2, kb2, km2, gq2 = 0.5 * p.kappa_a, 0.5 * p.kappa_b, 0.5 * p.kappa_m, 0.5 * p.gamma

    rates = np.reshape((ka2, kb2, km2, gq2), (4, 1, 1, 1))
    links = ((0, 1), (0, 3), (1, 0), (1, 2), (2, 1), (3, 0))  # (k, j) of the couplings of C_j into C_k

    def deriv(c, y, k) -> None:
        # k = M(t) y on rows (4 columns, pieces, width); c holds the couplings
        # -i g exp(+i (omega_k - omega_j) t) of the links at one stage time
        np.multiply(-rates, y, out=k)
        for (n, m), cnm in zip(links, c):
            k[n] += cnm * y[m]

    # per call: `whole` holds the stage rows y and k, then a batch's real maps; `half` the stage sum, then
    # every second tree level
    whole, half = np.empty((_ORACLE_PIECE, 8, 8)), np.empty((_ORACLE_PIECE // 2, 8, 8))

    def piece_maps(batch: list, width: int) -> np.ndarray:
        # one row of `width` substeps per piece; substep j's stages take lattice points 2j, 2j + 1
        # and 2j + 2; padding substeps take h = 0, whose RK4 map is exactly the identity
        t_prev, h, first, n = (np.array(col)[:, None] for col in list(zip(*batch))[1:])
        tk = t_prev + (first + 0.5 * np.arange(2 * width + 1)) * h
        pa, pb, pq = (np.exp(1j * w * tk) for w in (w_ab, w_bm, w_aq))  # photon/magnon, magnon/phonon, photon/atom
        c = (-1j * ga * pa, -2j * lam * pq, -1j * ga * pa.conj(),
             -1j * gb * pb, -1j * gb * pb.conj(), -1j * lam * pq.conj())
        start, mid, end = ([ck[:, j:j + 2 * width:2] for ck in c] for j in (0, 1, 2))
        h = np.where(np.arange(width) < n, h, 0.0)
        shape, x = (4, 4, *h.shape), np.eye(4)[:, :, None, None]  # component n of identity column c at [n, c]
        y, k = whole.view(complex).reshape(2, -1)[:, :16 * h.size].reshape(2, *shape)
        total = half.view(complex).reshape(-1)[:16 * h.size].reshape(shape)
        deriv(start, x, total)  # stage a; total sums a + 2b + 2f + g
        for coupling, step, weight, last in ((mid, 0.5 * h, 2.0, total), (mid, 0.5 * h, 2.0, k), (end, h, 1.0, k)):
            np.add(x, np.multiply(step, last, out=y), out=y)  # stages b, f, g at I + step x the stage before
            deriv(coupling, y, k)
            total += np.multiply(weight, k, out=y)
        total *= h / 6.0
        total += x  # each substep's map S; in its real form R, with R(S S') = R(S) R(S'), S_nc = p + iq is the
        # block [[p, -q], [q, p]] at rows 2n, 2n + 1 and columns 2c, 2c + 1: as complex rows, conj(S_n), i conj(S_n)
        maps = whole[:h.size].reshape(*h.shape, 8, 8)
        np.conjugate(total.transpose(2, 3, 0, 1), out=maps.view(complex)[..., 0::2, :])
        np.multiply(maps.view(complex)[..., 0::2, :], 1j, out=maps.view(complex)[..., 1::2, :])
        spare = half
        while maps.shape[1] > 1:  # later maps on the left; each level goes to the other buffer
            level = spare[:maps.size // 128].reshape(len(batch), -1, 8, 8)
            maps, spare = np.matmul(maps[:, 1::2], maps[:, 0::2], out=level), maps.base
        return maps[:, 0]

    def pieces():
        # the n substeps of every span as (grid index, t_prev, h, first j, count)
        t_prev = 0.0
        for k, tk in enumerate(t.tolist()):
            span = tk - t_prev
            if span > 0.0:
                n = math.ceil(span / _ORACLE_STEP)
                for j in range(0, n, _ORACLE_PIECE):
                    yield k, t_prev, span / n, j, min(n - j, _ORACLE_PIECE)
            t_prev = tk

    out = np.empty((t.size, 8))  # the float view of the (T, 4) amplitudes
    out[0] = z = z0.view(float)
    # consecutive pieces padded to one power-of-two width share a batch: a
    # dt = 0.01 grid has 10 substeps a span, and one array pass per span
    # would be slower than a scalar loop
    for width, run in itertools.groupby(pieces(), key=lambda q: 1 << (q[-1] - 1).bit_length()):
        while batch := list(itertools.islice(run, _ORACLE_PIECE // width)):
            for (k, *_), m in zip(batch, piece_maps(batch, width)):
                out[k] = z = m @ z
    return Trajectory(times=t, amplitudes=out.view(complex))
