"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense Kronecker-product operators,
explicit DFT matrices, circuits applied gate by gate, exhaustive enumeration.  Slow but obviously correct,
which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gasmld import qcore
from gasmld.channel import circulant_matrix, modulate, snr_db_to_sigma2
from gasmld.circuits import GasCircuitSpec, _band_window, fejer_upper_mass
from gasmld.detect import METHODS
from gasmld.gas import GasResult, _evolve, _prepare
from gasmld.qubo import MldInstance, QuboProblem, bits_of

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def dense_1q(gate: np.ndarray, target: int, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix for a single-qubit gate (qubit 0 = index LSB)."""
    op = np.array([[1.0]], dtype=complex)
    for q in range(n - 1, -1, -1):
        factor = np.asarray(gate, dtype=complex) if q == target else np.eye(2)
        op = np.kron(op, factor)
    return op


def dense_controlled_phase(controls, target: int, theta: float, n: int) -> np.ndarray:
    """Diagonal matrix applying e^{i theta} where target and all controls are 1."""
    dim = 1 << n
    need = (1 << target) | sum(1 << c for c in controls)
    diag = np.ones(dim, dtype=complex)
    idx = np.arange(dim)
    diag[(idx & need) == need] = np.exp(1.0j * theta)
    return np.diag(diag)


def dense_qft(m: int) -> np.ndarray:
    """Unitary DFT with positive exponent: F[j, u] = e^{+2pi i j u / M}/sqrt(M)."""
    M = 1 << m
    j, u = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    return np.exp(2.0j * np.pi * j * u / M) / np.sqrt(M)


def embed_on_register(op_small: np.ndarray, register, n: int) -> np.ndarray:
    """Lift an operator on ``register`` (LSB-first qubit list) to n qubits."""
    regs = list(register)
    m = len(regs)
    dim = 1 << n
    op = np.zeros((dim, dim), dtype=complex)
    others = [q for q in range(n) if q not in regs]
    for x in range(dim):
        xv = sum(((x >> q) & 1) << k for k, q in enumerate(regs))
        rest = x & ~sum(1 << q for q in regs)
        for yv in range(1 << m):
            y = rest | sum(((yv >> k) & 1) << q for k, q in enumerate(regs))
            op[y, x] = op_small[yv, xv]
    del others
    return op


@dataclass
class PhasePolynomial:
    """Binary polynomial sum_i<j quad[i,j] b_i b_j + sum_i lin[i] b_i + const.

    ``quadratic`` must be strictly upper triangular; diagonal quadratic terms
    make no sense over bits (b^2 = b) and belong in ``linear``.
    """

    constant: float
    linear: np.ndarray
    quadratic: np.ndarray

    def __post_init__(self):
        self.linear = np.asarray(self.linear, dtype=float)
        self.quadratic = np.asarray(self.quadratic, dtype=float)
        n = self.linear.shape[0]
        if self.quadratic.shape != (n, n):
            raise ValueError("quadratic must be n x n to match linear")
        if np.any(self.quadratic != np.triu(self.quadratic, k=1)):
            raise ValueError("quadratic must be strictly upper triangular")

    @property
    def n(self) -> int:
        return self.linear.shape[0]

    def evaluate_all(self) -> np.ndarray:
        """Values over every bit pattern, indexed by sum_i b_i 2^i."""
        patterns = bits_of(np.arange(1 << self.n), self.n)
        return (
            np.einsum("ki,ij,kj->k", patterns, self.quadratic, patterns)
            + patterns @ self.linear
            + self.constant
        )


def shifted_cost_polynomial(q: QuboProblem, threshold: float) -> PhasePolynomial:
    """E(b) - threshold as a polynomial read off the QUBO's coefficients."""
    return PhasePolynomial(q.offset - threshold, np.diag(q.Q) + q.c, 2.0 * np.triu(q.Q, k=1))


def spec_of(poly: PhasePolynomial, m: int) -> GasCircuitSpec:
    """The circuit spec whose shifted cost table is the polynomial's values."""
    return GasCircuitSpec(poly.n, m, poly.evaluate_all())


def _monomials(poly: PhasePolynomial):
    """Yield (coefficient, key-qubit list) with zero coefficients dropped."""
    if poly.constant != 0.0:
        yield poly.constant, []
    for i in range(poly.n):
        if poly.linear[i] != 0.0:
            yield float(poly.linear[i]), [i]
    rows, cols = np.nonzero(poly.quadratic)
    for i, j in zip(rows, cols):
        yield float(poly.quadratic[i, j]), [int(i), int(j)]


def apply_value_encoding(state, poly: PhasePolynomial, m: int, invert: bool = False):
    """Write e^{i 2 pi j E(b) / 2^m} onto every |b>|j> branch, gate by gate.

    Expects the value register already in uniform superposition.  Each
    monomial becomes a ladder of m controlled rotations with doubling angles;
    value qubit t (weight 2^t) receives 2^t times the base angle.
    """
    sign = -1.0 if invert else 1.0
    for coeff, keys in _monomials(poly):
        # base angle 2 pi a / 2^m, deliberately not reduced mod 2 pi; the
        # complex exponential in the gate application takes care of that
        base = sign * (2.0 * np.pi * coeff / (1 << m))
        for t in range(m):
            qcore.apply_controlled_phase(state, keys, poly.n + t, base * (1 << t))
    return state


def state_preparation_gates(state, poly: PhasePolynomial, m: int):
    """A from gates: Hadamards everywhere, phase-encode the polynomial, IQFT
    the value register; the reference for ``circuits.apply_state_preparation``."""
    qcore.hadamard_all(state)
    apply_value_encoding(state, poly, m)
    qcore.apply_iqft(state, range(poly.n, poly.n + m))
    return state


def state_preparation_inverse_gates(state, poly: PhasePolynomial, m: int):
    """A^dagger from gates, the exact inverse of state_preparation_gates."""
    qcore.apply_qft(state, range(poly.n, poly.n + m))
    apply_value_encoding(state, poly, m, invert=True)
    qcore.hadamard_all(state)
    return state


def apply_oracle(state, sign_qubit: int):
    """Phase-flip branches whose cost readout is negative.

    In two's complement that is exactly the branches whose sign qubit is 1,
    so a single Z gate does the whole job.
    """
    return qcore.apply_1q(state, qcore.PAULI_Z, sign_qubit)


def apply_diffusion(state):
    """Reflect about |0...0> on the full register: 2|0><0| - I.

    Conjugating with the state preparation (A D A^dagger) turns this into the
    reflection about the prepared state.
    """
    state.amps[1:] *= -1.0
    return state


def grover_power_gates(state, poly: PhasePolynomial, m: int, power: int):
    """(A D A^dagger O)^power gate by gate, rightmost operator first: the
    reference for the reflection form of ``circuits.grover_power``."""
    for _ in range(power):
        apply_oracle(state, poly.n + m - 1)
        state_preparation_inverse_gates(state, poly, m)
        apply_diffusion(state)
        state_preparation_gates(state, poly, m)
    return state


def basis_phase_vector(theta: float, m: int) -> np.ndarray:
    """g(theta) = [1, e^{i theta}, ..., e^{i (M-1) theta}] / sqrt(M)."""
    M = 1 << m
    return np.exp(1.0j * theta * np.arange(M)) / np.sqrt(M)


def value_distribution_reference(theta: float, m: int) -> np.ndarray:
    """Probability over value-register bins l: |<g(2 pi l / M), g(theta)>|^2."""
    M = 1 << m
    g_t = basis_phase_vector(theta, m)
    out = np.empty(M)
    for l in range(M):
        g_l = basis_phase_vector(2.0 * np.pi * l / M, m)
        out[l] = abs(np.vdot(g_l, g_t)) ** 2
    return out


def reference_upper_mass(a: np.ndarray, m: int) -> np.ndarray:
    """``circuits.fejer_upper_mass`` as it was before far keys skipped the
    window: every key, in blocks of 256, runs the 2W + 1 window bins and
    the two Euler-Maclaurin tails, with the same operations in the same
    order as the kernel.  A call of 256 q + 1 keys runs its last key as a
    block of one, whose window ``einsum`` sums in another order, where the
    kernel runs a lone near key as a chunk of two; so compare calls of other
    sizes (a sweep's calls hold S 2^n keys, an even count)."""
    a = np.asarray(a, dtype=float)
    mass = np.empty(a.shape[0])
    for start in range(0, a.shape[0], 256):
        mass[start:start + 256] = _reference_block_mass(a[start:start + 256], m)
    return np.clip(mass, 0.0, 1.0, out=mass)


def _reference_block_mass(key: np.ndarray, m: int) -> np.ndarray:
    M = 1 << m
    j, sin_j, cos_j, (q1, q3, q5, q7), lo, hi = _band_window(m)
    n = np.rint(key)
    delta = key - n
    s = (M // 2 - n.astype(np.int64)) & (M - 1)
    step = delta * (np.pi / M)
    sin_d, cos_d = np.sin(step), np.cos(step)
    pre = np.sin(np.pi * delta) / M
    inside = ((j - s) & (M // 2)) == 0
    sines = np.einsum("j,k->jk", sin_j, cos_d)
    ratio = np.einsum("j,k->jk", cos_j, sin_d)
    sines -= ratio
    np.copyto(ratio, inside)
    np.divide(pre, sines, out=ratio, where=inside & (sines != 0.0))
    window = np.einsum("jk,jk->k", ratio, ratio)
    ends = np.empty((4, key.shape[0]))
    np.maximum(s - 0.5, hi + 0.5, out=ends[0])
    np.minimum(s + (M / 2 - 0.5), M - lo - 0.5, out=ends[1])
    np.maximum(ends[1], ends[0], out=ends[1])
    ends[2] = M + hi + 0.5
    np.maximum(s + (M / 2 - 0.5), M + hi + 0.5, out=ends[3])
    ends -= delta
    ends *= np.pi / M
    cot = np.cos(ends)
    cot /= np.sin(ends)
    sq = cot * cot
    poly = ((q7 * sq + q5) * sq + q3) * sq + q1
    poly *= cot
    tails = (poly[1] - poly[0]) + (poly[3] - poly[2])
    return window + pre * pre * tails


def conditional_value_distributions(state, spec: GasCircuitSpec) -> np.ndarray:
    """(2^n, 2^m) array: row b is the value-register distribution given key b.

    Rows with (numerically) zero key probability are returned as zeros.
    """
    joint = np.abs(state.amps) ** 2
    # index = key + 2^n * value, so a (2^m, 2^n) reshape puts value on axis 0
    table = joint.reshape(1 << spec.m, 1 << spec.n).T.copy()
    totals = table.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    return np.where(totals > 0.0, table / safe, 0.0)


def reference_cost_table(Q: np.ndarray, c: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The (T, 2^n) costs b^T Q b + c^T b + offset of every pattern under
    the T stacked QUBOs (T, n, n), (T, n), (T,), the quadratic form as one
    three-operand einsum over all patterns at once: O(2^n n^2) per QUBO."""
    n = c.shape[-1]
    B = bits_of(np.arange(1 << n), n).astype(float)
    return np.einsum("ki,tij,kj->tk", B, Q, B) + np.einsum("ki,ti->tk", B, c) + offset[:, None]


def brute_force_min(q: QuboProblem) -> tuple[np.ndarray, float]:
    """Exhaustive minimum over the QUBO cost table; ties resolve to the
    smallest bit-pattern integer."""
    costs = reference_cost_table(q.Q[None], q.c[None], np.array([q.offset]))[0]
    v = int(np.argmin(costs))  # argmin returns the first, i.e. smallest, index
    bits = np.array([(v >> i) & 1 for i in range(q.n)], dtype=np.int8)
    return bits, float(costs[v])


def integer_value_qubits(bounds: tuple[float, float]) -> int:
    """The value register that writes every integer shift of costs within
    ``bounds`` by an attained threshold, E(b) - y in [lo - hi, hi - lo], on
    its exact bin without aliasing: the smallest m with
    2^(m-1) >= spread + 1, so that the shifts lie strictly inside the signed
    window [-2^(m-1), 2^(m-1)), as the integer encoding of Gilliam, Woerner
    and Gonciulea (Quantum 5, 428, 2021) needs."""
    lo, hi = bounds
    m = 2
    while 1 << (m - 1) < hi - lo + 1:
        m += 1
    return m


def reference_running_sum(ctx, threshold: float, L: int) -> np.ndarray:
    """The running sum of the context ``ctx``'s key distribution after L
    rotations at ``threshold``, prepared and evolved afresh: on the
    statevector engine by its Grover iterations, on the analytic engine by
    the closed form of the ``gas`` docstring, one search's scalars at a time."""
    shifted = ctx.shifted(threshold)
    _, engine = ctx.settings
    if engine == "statevector":
        return np.cumsum(_evolve(_prepare(shifted, ctx.m), L))
    n_keys = shifted.shape[0]
    w_good = fejer_upper_mass(shifted, ctx.m)
    w_good /= n_keys
    w_bad = np.maximum(1.0 / n_keys - w_good, 0.0)
    p0 = float(np.clip(w_good.sum(), 0.0, 1.0))
    if p0 <= 0.0:
        return np.cumsum(w_good + w_bad)
    if p0 >= 1.0:
        return np.cumsum(w_good)
    angle = (2 * L + 1) * np.arcsin(np.sqrt(p0))
    return np.cumsum(np.sin(angle) ** 2 * w_good / p0 + np.cos(angle) ** 2 * w_bad / (1.0 - p0))


def sample_rotation_count(k: float, rng: np.random.Generator) -> int:
    """Draw L uniformly from the integers in [0, k-1].

    For fractional k the support therefore holds ceil(k-1) values; the top
    count only becomes reachable once k actually exceeds it by a full unit.
    """
    if k < 1.0:
        raise ValueError("rotation schedule parameter must be >= 1")
    top = math.floor(k - 1.0)
    # numpy returns the bound of a one-value range without reading the
    # generator, so k < 2 takes no draw
    return int(rng.integers(0, top + 1)) if top else 0


def grow_k(k: float, growth_factor: float, cap: float) -> float:
    """Schedule update after a non-improving round: min(growth * k, cap),
    with the cap sqrt(2^n) of an n-bit search."""
    return min(growth_factor * k, cap)


def reference_run_gas(ctx, cfg, rng: np.random.Generator, start=None) -> GasResult:
    """One search on ``ctx``, alone, round by round, with numpy's own draws:
    ``start``, or the random start's n bits when it is None, then per round
    L from ``sample_rotation_count`` and one ``random`` draw of the key,
    searched on the running sum of ``reference_running_sum``.  An
    improvement takes the key's cost as the threshold and resets k to 1,
    else k grows by ``grow_k`` to min(lambda k, sqrt(2^n))."""
    n, costs = ctx.n, ctx.costs
    bits = np.asarray(start) if start is not None else rng.integers(0, 2, size=n)
    best = int(bits @ (1 << np.arange(n)))
    threshold = float(costs[best])
    trace = [(0, threshold)]
    k, queries, stall, rounds = 1.0, 0, 0, 0
    while rounds < cfg.max_rounds and stall < cfg.stall_rounds:
        rounds += 1
        L = sample_rotation_count(k, rng)
        cumulative = reference_running_sum(ctx, threshold, L)
        u = rng.random() * cumulative[-1]
        idx = min(int(np.searchsorted(cumulative, u, side="right")), cumulative.shape[0] - 1)
        queries += L
        if costs[idx] < threshold:
            threshold, best, k, stall = float(costs[idx]), idx, 1.0, 0
        else:
            k = grow_k(k, cfg.growth_factor, math.sqrt(2.0 ** n))
            stall += 1
        trace.append((rounds, threshold))
    return GasResult(best_bits=bits_of(best, n), best_cost=threshold, rounds=rounds,
                     oracle_queries=queries, measurements=rounds,
                     stop_reason="stall" if stall >= cfg.stall_rounds else "max_rounds",
                     threshold_trace=trace)


def replayed_rotation_counts(result: GasResult, cfg, n: int, rng: np.random.Generator,
                             start=None) -> list:
    """Each round's L of a search that returned ``result``, replayed with
    numpy's own draws on ``rng``, a twin of the search's generator: the
    random start when ``start`` is None, then per round L and the key's
    uniform, with k reset by every round that lowered the trace's
    threshold and grown by every other."""
    if start is None:
        rng.integers(0, 2, size=n)
    k, draws = 1.0, []
    levels = [y for _, y in result.threshold_trace]
    for before, after in zip(levels, levels[1:]):
        draws.append(sample_rotation_count(k, rng))
        rng.random()
        k = 1.0 if after < before else grow_k(k, cfg.growth_factor, math.sqrt(2.0 ** n))
    return draws


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    from math import erfc, sqrt

    return 0.5 * erfc(x / sqrt(2.0))


def _cn_taps(shape, tap_variance: float, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(tap_variance / 2.0)
    return rng.normal(scale=scale, size=shape) + 1j * rng.normal(scale=scale, size=shape)


def reference_channel(R: int, L_bi: int, L_iu: int, rng: np.random.Generator) -> np.ndarray:
    """One effective response, drawn one tap array at a time: each link's
    real and then imaginary parts, the cascades by row-wise convolution, the
    first taps aligned and the elements summed."""
    L = L_bi + L_iu - 1
    if R == 0:
        return _cn_taps(L, 1.0 / L, rng)
    h_bi = _cn_taps((R, L_bi), 1.0 / L_bi, rng)
    h_iu = _cn_taps((R, L_iu), 1.0 / L_iu, rng)
    cascades = np.zeros((R, L), dtype=complex)
    for k in range(L_bi):
        cascades[:, k : k + L_iu] += h_bi[:, k : k + 1] * h_iu
    first = cascades[:, 0]
    phases = np.exp(-1j * np.where(np.abs(first) == 0.0, 0.0, np.angle(first)))
    return (cascades * phases[:, None]).sum(axis=0)


def reference_stream(key) -> np.random.Generator:
    """The seeding contract's stream of ``key``, from numpy's own per-key
    ``SeedSequence``."""
    return np.random.default_rng(np.random.SeedSequence(key))


def reference_detector_rng(cfg, snr_idx: int, r_idx: int, trial: int, detector: str):
    """A sweep trial's stream for a randomized detector, keyed by the
    detector's index in ``METHODS`` after the trial stream's tag 0."""
    return reference_stream((cfg.master_seed, snr_idx, r_idx, trial, 1 + METHODS.index(detector)))


def reference_trial_instance(cfg, snr_idx: int, r_idx: int, trial: int):
    """A sweep trial's (instance, true bits), built alone from the trial's
    stream: the channel's response, then the payload bits, then the noise."""
    rng = reference_stream((cfg.master_seed, snr_idx, r_idx, trial, 0))
    h = reference_channel(cfg.R_list[r_idx], cfg.L_bi, cfg.L_iu, rng)
    bits = rng.integers(0, 2, size=cfg.N)
    sigma2 = snr_db_to_sigma2(cfg.snr_db_list[snr_idx])
    y = circulant_matrix(h, cfg.N) @ modulate(bits)
    if sigma2 > 0:
        y = y + _cn_taps(cfg.N, sigma2, rng)
    return MldInstance(h=h, y=y, sigma2=sigma2), bits
