"""Search-operator checks: state preparation, oracle, diffusion, iteration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasmld import circuits, qcore
from gasmld.circuits import (
    GasCircuitSpec,
    apply_state_preparation,
    apply_state_preparation_inverse,
    fejer_distribution,
    fejer_upper_mass,
    grover_power,
)
from gasmld.qcore import HADAMARD, zero_state
from gasmld.qubo import bits_of

from oracles import (
    PAULI_X,
    PhasePolynomial,
    apply_diffusion,
    apply_oracle,
    apply_value_encoding,
    conditional_value_distributions,
    dense_1q,
    dense_controlled_phase,
    dense_qft,
    embed_on_register,
    grover_power_gates,
    spec_of,
    state_preparation_gates,
    state_preparation_inverse_gates,
    value_distribution_reference,
)


def poly_const(value, n=1):
    return PhasePolynomial(value, np.zeros(n), np.zeros((n, n)))


def prepared(spec):
    state = zero_state(spec.total_qubits)
    return apply_state_preparation(state, spec)


def test_coefficient_phase_examples():
    # a constant a puts e^{i 2 pi a j / 2^m} on value j of every key branch;
    # index = key + 2 value, so each phase repeats once per key
    m = 3
    j = np.arange(1 << m)
    for a in (1.0, -1.0, 2.5, -4.0):
        state = qcore.hadamard_all(zero_state(1 + m))
        apply_value_encoding(state, poly_const(a), m)
        phases = np.exp(2j * np.pi * a * j / (1 << m))
        expect = np.repeat(phases, 2) / np.sqrt(1 << (1 + m))
        assert np.allclose(state.amps, expect, atol=1e-12)


def test_phase_polynomial_evaluate():
    poly = PhasePolynomial(2.0, np.array([1.0, -3.0]), np.array([[0.0, 4.0], [0.0, 0.0]]))
    values = poly.evaluate_all()
    # index = b0 + 2 b1
    assert values.tolist() == [2.0, 3.0, -1.0, 4.0]


def test_phase_polynomial_rejects_lower_triangle():
    with pytest.raises(ValueError):
        PhasePolynomial(0.0, np.zeros(2), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_phase_polynomial_matches_shifted_cost():
    # reproduces an arbitrary quadratic binary cost within 1e-12
    rng = np.random.default_rng(1)
    n = 4
    quad = np.triu(rng.normal(size=(n, n)), k=1)
    lin = rng.normal(size=n)
    const = rng.normal()
    values = PhasePolynomial(const, lin, quad).evaluate_all()
    for v, bits in enumerate(bits_of(np.arange(1 << n), n)):
        direct = bits @ quad @ bits + lin @ bits + const
        assert abs(values[v] - direct) < 1e-12


def test_value_encoding_zero_polynomial_is_identity():
    state = zero_state(4)
    qcore.hadamard_all(state)
    before = state.amps.copy()
    apply_value_encoding(state, poly_const(0.0), 3)
    assert np.array_equal(state.amps, before)


def test_integer_point_mass_per_branch():
    # E(b) = 2b on one key bit: branch |1> reads 2, branch |0> reads 0
    poly = PhasePolynomial(0.0, np.array([2.0]), np.zeros((1, 1)))
    spec = spec_of(poly, 3)
    cond = conditional_value_distributions(prepared(spec), spec)
    assert cond[0, 0] > 1 - 1e-9
    assert cond[1, 2] > 1 - 1e-9


def test_negative_constant_wraps_twos_complement():
    # constant -1 on m=3 reads 7
    spec = spec_of(poly_const(-1.0), 3)
    cond = conditional_value_distributions(prepared(spec), spec)
    assert cond[0, 7] > 1 - 1e-9
    assert cond[1, 7] > 1 - 1e-9


def test_real_coefficient_fejer_profile():
    # a = 1.5 on m=3: symmetric peaks on bins 1 and 2
    spec = spec_of(poly_const(1.5), 3)
    cond = conditional_value_distributions(prepared(spec), spec)
    reference = value_distribution_reference(2 * np.pi * 1.5 / 8, 3)
    assert np.allclose(cond[0], reference, atol=1e-10)
    assert np.allclose(cond[1], reference, atol=1e-10)
    assert cond[0, 1] == pytest.approx(0.410533474517, abs=1e-10)
    assert cond[0, 2] == pytest.approx(0.410533474517, abs=1e-10)


def test_closed_form_fejer_matches_reference():
    for theta in (0.0, 0.3, -1.7, 2 * np.pi * 5 / 16, 2 * np.pi * 1.5 / 8, -2 * np.pi * 3 / 16):
        for m in (2, 3, 4):
            assert np.allclose(
                fejer_distribution(theta, m),
                value_distribution_reference(theta, m),
                atol=1e-12,
            )


def test_fejer_upper_mass_matches_fejer_rows():
    # the half-band sum against the upper-half sum of each key's Fejer row,
    # on random reals and on every bin the real encoding reaches
    rng = np.random.default_rng(14)
    for m in range(2, 15):
        M = 1 << m
        reach = 1 << (m - 2)
        a = np.concatenate([rng.uniform(-reach, reach, 300),
                            np.arange(-reach, reach + 1, dtype=float)])
        rows = np.array([fejer_distribution(2.0 * np.pi * x / M, m)[M // 2:].sum() for x in a])
        mass = fejer_upper_mass(a, m)
        assert np.max(np.abs(mass - rows)) <= 1e-11, m
        assert np.all((mass >= 0.0) & (mass <= 1.0)), m



@st.composite
def hard_keys(draw):
    """m in 2..14 and keys where the half-band sum is hardest to get right:
    within 1e-3 of a bin, on a bin or half-way between two, and where the
    window of W = 16 bins around the key's pole crosses a band edge or
    misses the band (a = M/2 +- W +- 1/2 and a = +-M/4 +- W +- 1/2, mod M),
    all shifted by up to 4M, beside uniform keys in [-4M, 4M]."""
    m = draw(st.integers(2, 14))
    M = 1 << m
    W = circuits._WINDOW
    bins = st.integers(-4 * M, 4 * M).map(float)
    near_bin = st.tuples(bins, st.floats(-1e-3, 1e-3)).map(sum)
    on_grid = st.tuples(bins, st.sampled_from([0.0, 0.5, -0.5])).map(sum)
    edge = st.tuples(st.sampled_from([M / 2, M / 4, -M / 4]), st.sampled_from([W, -W, W + 1, -W - 1]),
                     st.sampled_from([0.5, -0.5, 0.4999, -0.4999]), st.integers(-4, 3)
                     ).map(lambda t: t[0] + t[1] + t[2] + t[3] * M)
    uniform = st.floats(-4.0 * M, 4.0 * M)
    keys = draw(st.lists(st.one_of(near_bin, on_grid, edge, uniform), min_size=1, max_size=24))
    return m, np.array(keys)


@settings(max_examples=300, deadline=None)
@given(hard_keys())
def test_fejer_upper_mass_on_hard_keys(case):
    # against the Fejer row sums within 1e-11, clipped to [0, 1]; the oracle
    # reads the key reduced exactly into [-M/2, M/2], because its own rounding
    # grows with |a| (about 1e-11 at |a| = 4M, m = 14), and the kernel's
    # exact reduction makes a key and its reduction give the same bits
    m, a = case
    M = 1 << m
    reduced = a - M * np.rint(a / M)
    rows = np.array([fejer_distribution(2.0 * np.pi * x / M, m)[M // 2:].sum() for x in reduced])
    mass = fejer_upper_mass(a, m)
    assert np.array_equal(mass, fejer_upper_mass(reduced, m))
    assert np.max(np.abs(mass - rows)) <= 1e-11
    assert np.all((mass >= 0.0) & (mass <= 1.0))


@pytest.mark.parametrize("m", [12, 14])
def test_fejer_upper_mass_heap_does_not_grow_with_m(m):
    # one call on 4,096 keys stays within 512 KiB of traced heap at any m
    a = np.random.default_rng(m).uniform(-(1 << (m - 2)), 1 << (m - 2), 4096)
    tracemalloc.start()
    try:
        fejer_upper_mass(a, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_quadratic_monomial_touches_only_its_branch():
    # b0*b1 with coefficient 3: only key |11> reads 3, the rest read 0
    quad = np.zeros((2, 2))
    quad[0, 1] = 3.0
    poly = PhasePolynomial(0.0, np.zeros(2), quad)
    spec = spec_of(poly, 4)
    cond = conditional_value_distributions(prepared(spec), spec)
    assert cond[0, 0] > 1 - 1e-9
    assert cond[1, 0] > 1 - 1e-9
    assert cond[2, 0] > 1 - 1e-9
    assert cond[3, 3] > 1 - 1e-9


def test_conditional_distributions_match_reference_across_random_polys():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 6))
        quad = np.triu(rng.uniform(-2, 2, size=(n, n)), k=1)
        poly = PhasePolynomial(rng.uniform(-2, 2), rng.uniform(-2, 2, size=n), quad)
        spec = spec_of(poly, m)
        cond = conditional_value_distributions(prepared(spec), spec)
        for v, value in enumerate(poly.evaluate_all()):
            theta = 2 * np.pi * value / (1 << m)
            assert np.allclose(cond[v], value_distribution_reference(theta, m), atol=1e-9)


def test_oracle_flips_exactly_negative_branches():
    # costs straddle zero: sign-bit branches flip, the rest do not
    poly = PhasePolynomial(-2.0, np.array([3.0]), np.zeros((1, 1)))  # values -2, 1
    spec = spec_of(poly, 3)
    state = prepared(spec)
    before = state.amps.copy()
    apply_oracle(state, spec.n + spec.m - 1)
    signs = state.amps / np.where(before == 0, 1.0, before)
    idx = np.arange(1 << spec.total_qubits)
    msb = (idx >> (spec.total_qubits - 1)) & 1
    nonzero = np.abs(before) > 1e-12
    assert np.allclose(signs[nonzero & (msb == 1)], -1.0, atol=1e-9)
    assert np.allclose(signs[nonzero & (msb == 0)], 1.0, atol=1e-9)


def test_oracle_identity_when_nothing_negative():
    spec = spec_of(poly_const(1.0), 3)
    state = prepared(spec)
    before = state.amps.copy()
    apply_oracle(state, spec.n + spec.m - 1)
    assert np.allclose(state.amps, before, atol=1e-12)


def test_diffusion_reflects_about_zero_state():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = qcore.Statevector(3, amps.copy())
    apply_diffusion(state)
    assert state.amps[0] == amps[0]
    assert np.allclose(state.amps[1:], -amps[1:], atol=0)


def test_conjugated_diffusion_fixes_prepared_state():
    # A D A^dagger has A|0> as its reflection axis, so A|0> is fixed up to
    # phase; A^dagger in closed form, A from gates (the FFT form takes only |0>)
    poly = PhasePolynomial(0.5, np.array([1.0]), np.zeros((1, 1)))
    spec = spec_of(poly, 3)
    state = prepared(spec)
    reference = state.amps.copy()
    apply_state_preparation_inverse(state, spec)
    apply_diffusion(state)
    state_preparation_gates(state, poly, 3)
    ratio = state.amps[np.argmax(np.abs(reference))] / reference[np.argmax(np.abs(reference))]
    assert abs(abs(ratio) - 1.0) < 1e-9
    assert np.allclose(state.amps, ratio * reference, atol=1e-9)


def test_preparation_inverse_roundtrip():
    spec = spec_of(PhasePolynomial(-1.0, np.array([2.0, 1.0]), np.zeros((2, 2))), 4)
    state = prepared(spec)
    apply_state_preparation_inverse(state, spec)
    expect = np.zeros(1 << spec.total_qubits)
    expect[0] = 1.0
    assert np.allclose(state.amps, expect, atol=1e-10)


def plain_grover_success(n, marked, iterations):
    """Textbook search on n qubits with a gate-built marked-state oracle."""
    state = qcore.hadamard_all(zero_state(n))
    zeros = [q for q in range(n) if not (marked >> q) & 1]
    for _ in range(iterations):
        # oracle: phase-flip |marked| via X-conjugated multi-controlled phase
        for q in zeros:
            qcore.apply_1q(state, PAULI_X, q)
        qcore.apply_controlled_phase(state, set(range(n - 1)), n - 1, np.pi)
        for q in zeros:
            qcore.apply_1q(state, PAULI_X, q)
        # A^dagger D A with A = H^n
        qcore.hadamard_all(state)
        apply_diffusion(state)
        qcore.hadamard_all(state)
    return abs(state.amps[marked]) ** 2


def test_plain_grover_single_marked():
    # one marked state among 2^3: classic 25/32 after a single iteration
    assert plain_grover_success(3, marked=5, iterations=1) == pytest.approx(25 / 32, abs=1e-12)
    assert plain_grover_success(3, marked=5, iterations=2) == pytest.approx(121 / 128, abs=1e-12)


def test_plain_grover_follows_amplification_law():
    for n in (2, 3, 4):
        theta = np.arcsin(2.0 ** (-n / 2))
        for L in range(0, 4):
            expect = np.sin((2 * L + 1) * theta) ** 2
            assert plain_grover_success(n, marked=1, iterations=L) == pytest.approx(expect, abs=1e-6)
        # the optimal integer iteration count ~ (pi/4) 2^{n/2} clears 0.5;
        # naive ceiling over-rotates at n=2, so round the law's own optimum
        best = int(np.floor(np.pi / (4 * theta)))
        assert plain_grover_success(n, marked=1, iterations=best) > 0.5


def test_over_rotation_half_marked():
    # marked fraction 1/2: one iteration gives no gain, sin^2(3 pi/4) = 1/2
    poly = PhasePolynomial(-1.0, np.array([2.0]), np.zeros((1, 1)))  # values -1, 1
    spec = spec_of(poly, 3)
    state = prepared(spec)
    grover_power(state, spec, 1)
    p_marked = conditional_key_mass(state, spec, lambda value: value >= 4)
    assert p_marked == pytest.approx(0.5, abs=1e-9)


def conditional_key_mass(state, spec, predicate):
    """Total probability of value-register readouts satisfying ``predicate``."""
    joint = np.abs(state.amps) ** 2
    table = joint.reshape(1 << spec.m, 1 << spec.n)
    values = np.arange(1 << spec.m)
    return float(table[predicate(values)].sum())


def test_grover_power_matches_amplification_law():
    # integer costs, exact marked fraction, probabilities follow sin^2((2L+1)a)
    rng = np.random.default_rng(5)
    for _ in range(5):
        n = 3
        lin = rng.integers(-3, 4, size=n).astype(float)
        quad = np.triu(rng.integers(-2, 3, size=(n, n)), k=1).astype(float)
        const = float(rng.integers(-3, 4))
        poly = PhasePolynomial(const, lin, quad)
        values = poly.evaluate_all()
        shift = float(np.median(values).round())
        poly = PhasePolynomial(const - shift, lin, quad)
        values = poly.evaluate_all()
        m = int(np.ceil(np.log2(np.abs(values).max() + 1))) + 2
        spec = spec_of(poly, m)
        p0 = float((values < 0).sum()) / (1 << n)
        if p0 in (0.0, 1.0):
            continue
        alpha = np.arcsin(np.sqrt(p0))
        for L in (0, 1, 2, 3):
            state = prepared(spec)
            grover_power(state, spec, L)
            marked = conditional_key_mass(state, spec, lambda v: v >= (1 << (m - 1)))
            assert marked == pytest.approx(np.sin((2 * L + 1) * alpha) ** 2, abs=1e-6)


def test_grover_iteration_matches_dense_composition():
    # n=2 keys, m=3 values: G from dense matrices vs the gate implementation
    n, m = 2, 3
    quad = np.zeros((n, n))
    quad[0, 1] = 2.0
    poly = PhasePolynomial(-2.0, np.array([1.0, 2.0]), quad)
    spec = spec_of(poly, m)
    total = n + m
    dim = 1 << total

    h_all = np.eye(dim, dtype=complex)
    for q in range(total):
        h_all = dense_1q(HADAMARD, q, total) @ h_all
    values = poly.evaluate_all()
    phase_diag = np.zeros(dim, dtype=complex)
    for x in range(dim):
        b, j = x & ((1 << n) - 1), x >> n
        phase_diag[x] = np.exp(2j * np.pi * j * values[b] / (1 << m))
    encode = np.diag(phase_diag)
    iqft = embed_on_register(dense_qft(m).conj().T, list(range(spec.n, spec.n + spec.m)), total)
    a_dense = iqft @ encode @ h_all

    oracle_diag = np.ones(dim, dtype=complex)
    oracle_diag[np.arange(dim) >> (total - 1) == 1] = -1.0
    o_dense = np.diag(oracle_diag)
    d_diag = -np.ones(dim, dtype=complex)
    d_diag[0] = 1.0
    d_dense = np.diag(d_diag)
    g_dense = a_dense @ d_dense @ a_dense.conj().T @ o_dense

    state = prepared(spec)
    grover_power(state, spec, 2)
    expect = g_dense @ g_dense @ (a_dense @ np.eye(dim)[:, 0])
    assert np.allclose(state.amps, expect, atol=1e-9)


def random_poly(rng, n, m, integer):
    """Integer coefficients shifted to fit the signed window of m value
    qubits, or real coefficients drawn from (-2, 2)."""
    if not integer:
        quad = np.triu(rng.uniform(-2, 2, size=(n, n)), k=1)
        return PhasePolynomial(rng.uniform(-2, 2), rng.uniform(-2, 2, size=n), quad)
    half = 1 << (m - 1)
    while True:
        quad = np.triu(rng.integers(-2, 3, size=(n, n)), k=1).astype(float)
        lin = rng.integers(-3, 4, size=n).astype(float)
        values = PhasePolynomial(0.0, lin, quad).evaluate_all()
        const = -float(np.round(np.median(values)))
        if values.min() + const >= -half and values.max() + const < half:
            return PhasePolynomial(const, lin, quad)


def test_grover_power_matches_gate_oracle():
    # the reflection about A|0> against A D A^dagger O applied gate by gate
    rng = np.random.default_rng(11)
    for integer in (True, False):
        for n in (1, 2, 3):
            for m in (3, 4, 5, 6):
                poly = random_poly(rng, n, m, integer)
                spec = spec_of(poly, m)
                base = prepared(spec)
                for L in range(5):
                    fast = grover_power(base.copy(), spec, L)
                    slow = grover_power_gates(base.copy(), poly, m, L)
                    assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-12
                # with an explicit axis the input may be any state
                dim = 1 << spec.total_qubits
                amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                start = qcore.Statevector(spec.total_qubits, amps / np.linalg.norm(amps))
                fast = grover_power(start.copy(), spec, 3, axis=base.amps)
                slow = grover_power_gates(start.copy(), poly, m, 3)
                assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-12


def test_grover_power_in_place_and_input_checks():
    spec = spec_of(PhasePolynomial(-1.0, np.array([2.0]), np.zeros((1, 1))), 3)
    state = prepared(spec)
    before = state.amps
    assert grover_power(state, spec, 2) is state
    assert state.amps is before
    with pytest.raises(ValueError, match="non-negative"):
        grover_power(state, spec, -1)
    with pytest.raises(ValueError, match="spec"):
        grover_power(zero_state(spec.total_qubits + 1), spec, 1)
    with pytest.raises(ValueError, match="axis"):
        grover_power(state, spec, 1, axis=np.zeros(4, dtype=complex))
    with pytest.raises(ValueError, match="share memory"):
        grover_power(state, spec, 1, axis=state.amps)


def test_norm_drift_over_full_circuit():
    poly = PhasePolynomial(-3.7, np.array([2.2, -1.1, 0.4]), np.zeros((3, 3)))
    spec = spec_of(poly, 8)
    state = prepared(spec)
    grover_power(state, spec, 3)
    assert abs(np.vdot(state.amps, state.amps) - 1.0) < 1e-8


def test_state_preparation_matches_gate_oracle():
    # A|0> by one FFT against Hadamards, controlled phases and the IQFT
    rng = np.random.default_rng(12)
    for integer in (True, False):
        for n in (1, 2, 3):
            for m in (2, 3, 4, 5, 6):
                poly = random_poly(rng, n, m, integer)
                fast = prepared(spec_of(poly, m))
                slow = state_preparation_gates(zero_state(n + m), poly, m)
                assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-12
    # 15 qubits, real values stretched to |a_b| = 2^{m-2}, the real encoding's reach
    n, m = 3, 12
    poly = random_poly(rng, n, m, False)
    stretch = (1 << (m - 2)) / np.abs(poly.evaluate_all()).max()
    poly = PhasePolynomial(stretch * poly.constant, stretch * poly.linear, stretch * poly.quadratic)
    spec = spec_of(poly, m)
    fast = prepared(spec)
    slow = state_preparation_gates(zero_state(n + m), poly, m)
    assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-12
    # the closed-form inverse acts on any state
    dim = 1 << (n + m)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    start = qcore.Statevector(n + m, amps / np.linalg.norm(amps))
    fast = apply_state_preparation_inverse(start.copy(), spec)
    slow = state_preparation_inverse_gates(start.copy(), poly, m)
    assert np.max(np.abs(fast.amps - slow.amps)) <= 1e-12


def test_state_preparation_input_checks():
    spec = spec_of(poly_const(1.0), 3)
    state = prepared(spec)
    with pytest.raises(ValueError, match="expects the input"):
        apply_state_preparation(state, spec)
    with pytest.raises(ValueError, match="spec"):
        apply_state_preparation(zero_state(spec.total_qubits + 1), spec)
    with pytest.raises(ValueError, match="one shifted cost per key"):
        GasCircuitSpec(1, 3, np.zeros(4))


def test_spec_register_layout():
    spec = spec_of(poly_const(0.0, n=2), 4)
    assert spec.key_register == [0, 1]
    assert spec.total_qubits == 6
