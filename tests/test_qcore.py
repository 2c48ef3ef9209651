"""Statevector engine checks against dense-matrix and DFT references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasmld import qcore
from gasmld.qcore import (
    CapacityError,
    HADAMARD,
    MAX_QUBITS,
    PAULI_Z,
    apply_1q,
    apply_controlled_phase,
    apply_iqft,
    apply_qft,
    apply_swap,
    hadamard_all,
    register_distribution,
    sample_index,
    zero_state,
)

from oracles import (
    PAULI_X,
    dense_1q,
    dense_controlled_phase,
    dense_qft,
    embed_on_register,
)


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return qcore.Statevector(n, amps.astype(complex))


def test_zero_state_basic():
    s = zero_state(1)
    assert np.allclose(s.amps, [1, 0])
    s = zero_state(2)
    assert np.allclose(s.amps, [1, 0, 0, 0])


def test_zero_state_capacity():
    with pytest.raises(CapacityError):
        zero_state(0)
    with pytest.raises(CapacityError):
        zero_state(MAX_QUBITS + 1)  # raises before it allocates


def test_hadamard_all_uniform():
    s = hadamard_all(zero_state(3))
    assert np.allclose(s.amps, np.full(8, 1 / np.sqrt(8)))


def test_apply_1q_examples():
    s = apply_1q(zero_state(1), HADAMARD, 0)
    assert np.allclose(s.amps, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    # X on qubit 0 of |00> gives index 1
    s = apply_1q(zero_state(2), PAULI_X, 0)
    assert np.allclose(s.amps, [0, 1, 0, 0])
    # X on qubit 1 gives index 2
    s = apply_1q(zero_state(2), PAULI_X, 1)
    assert np.allclose(s.amps, [0, 0, 1, 0])


def test_apply_1q_rejects_bad_input():
    s = zero_state(2)
    with pytest.raises(ValueError):
        apply_1q(s, np.array([[1, 0], [0, 2]], dtype=complex), 0)
    with pytest.raises(ValueError):
        apply_1q(s, HADAMARD, 2)


def test_apply_1q_checks_every_gate_but_the_constants():
    # only the two read-only module constants skip the per-call check; an
    # equal-looking or edited copy of them is checked like any other gate
    s = zero_state(2)
    for gate in (HADAMARD, PAULI_Z):
        bent = gate.copy()
        bent[1, 1] *= 1.01
        with pytest.raises(ValueError, match="not unitary"):
            apply_1q(s, bent, 0)
        apply_1q(s, gate.copy(), 1)
    with pytest.raises(ValueError, match="not unitary"):
        apply_1q(s, 2.0 * HADAMARD, 0)
    with pytest.raises(ValueError, match="2x2"):
        apply_1q(s, np.eye(3, dtype=complex), 0)
    assert np.allclose(np.linalg.norm(s.amps), 1.0)


def test_gate_constants_are_read_only():
    for gate in (qcore.HADAMARD, qcore.PAULI_Z):
        before = gate.copy()
        with pytest.raises(ValueError):
            gate[0, 0] = 0.0
        with pytest.raises(ValueError):
            gate *= 2.0
        assert np.array_equal(gate, before)


def test_apply_1q_matches_dense():
    rng = np.random.default_rng(7)
    for n in (1, 2, 4):
        for target in range(n):
            # random unitary via QR
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(a)
            gate = q * (np.diag(r) / np.abs(np.diag(r)))
            s = random_state(n, rng)
            expect = dense_1q(gate, target, n) @ s.amps
            apply_1q(s, gate, target)
            assert np.allclose(s.amps, expect, atol=1e-12)


def test_apply_1q_linearity():
    rng = np.random.default_rng(11)
    n = 3
    s1 = random_state(n, rng)
    s2 = random_state(n, rng)
    a, b = 0.3 - 0.2j, 0.1 + 0.8j
    mix = qcore.Statevector(n, a * s1.amps + b * s2.amps)
    apply_1q(s1, HADAMARD, 1)
    apply_1q(s2, HADAMARD, 1)
    apply_1q(mix, HADAMARD, 1)
    assert np.allclose(mix.amps, a * s1.amps + b * s2.amps, atol=1e-12)


def test_controlled_phase_identity_when_zero_angle():
    rng = np.random.default_rng(3)
    s = random_state(2, rng)
    before = s.amps.copy()
    apply_controlled_phase(s, set(), 0, 0.0)
    assert np.allclose(s.amps, before, atol=0)


def test_controlled_phase_cz():
    s = hadamard_all(zero_state(2))
    apply_controlled_phase(s, {0}, 1, np.pi)
    # only |11> flips sign
    assert np.allclose(s.amps * 2, [1, 1, 1, -1])


def test_controlled_phase_matches_dense():
    rng = np.random.default_rng(5)
    cases = [(set(), 0, 3), ({0}, 2, 3), ({0, 1}, 2, 3), ({1, 3}, 0, 4)]
    for controls, target, n in cases:
        theta = rng.uniform(-np.pi, np.pi)
        s = random_state(n, rng)
        expect = dense_controlled_phase(controls, target, theta, n) @ s.amps
        apply_controlled_phase(s, controls, target, theta)
        assert np.allclose(s.amps, expect, atol=1e-12)


def test_controlled_phase_rejects_overlap():
    s = zero_state(3)
    with pytest.raises(ValueError):
        apply_controlled_phase(s, {1}, 1, 0.1)


def test_qft_matches_dense_matrix():
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        op = dense_qft(m)
        s = random_state(m, rng)
        expect = op @ s.amps
        apply_qft(s, list(range(m)))
        assert np.allclose(s.amps, expect, atol=1e-10)


def test_qft_on_subregister_matches_dense():
    rng = np.random.default_rng(19)
    n = 4
    register = [1, 3]  # LSB first, interleaved with idle qubits
    op = embed_on_register(dense_qft(2), register, n)
    s = random_state(n, rng)
    expect = op @ s.amps
    apply_qft(s, register)
    assert np.allclose(s.amps, expect, atol=1e-10)


def test_iqft_roundtrip_all_basis_states():
    for m in (2, 3, 6):
        for k in range(min(1 << m, 16)):
            s = zero_state(m)
            s.amps[0] = 0.0
            s.amps[k] = 1.0
            apply_qft(s, list(range(m)))
            apply_iqft(s, list(range(m)))
            expect = np.zeros(1 << m)
            expect[k] = 1.0
            assert np.allclose(s.amps, expect, atol=1e-10)


def test_iqft_uniform_to_zero():
    s = hadamard_all(zero_state(2))
    apply_iqft(s, [0, 1])
    assert np.allclose(s.amps, [1, 0, 0, 0], atol=1e-12)


def test_iqft_decodes_linear_phase():
    # phases e^{2 pi i * 3 j / 8} over the register index j decode to value 3
    m = 3
    s = hadamard_all(zero_state(m))
    s.amps *= np.exp(2j * np.pi * 3 * np.arange(8) / 8)
    apply_iqft(s, [0, 1, 2])
    expect = np.zeros(8)
    expect[3] = 1.0
    assert np.allclose(np.abs(s.amps) ** 2, expect, atol=1e-12)


def test_register_distribution_examples():
    # Bell pair from H on both, CZ, H on qubit 1: qubit-0 marginal is uniform
    s = hadamard_all(zero_state(2))
    apply_controlled_phase(s, {0}, 1, np.pi)
    apply_1q(s, HADAMARD, 1)
    assert np.allclose(register_distribution(s, [0]), [0.5, 0.5], atol=1e-12)
    # joint distribution picks out |00> and |11>
    assert np.allclose(register_distribution(s, [0, 1]), [0.5, 0, 0, 0.5], atol=1e-12)


def test_register_distribution_value_ordering():
    # prepare |q1 q0> = |10> (value 2 on register [0, 1])
    s = apply_1q(zero_state(2), PAULI_X, 1)
    assert np.allclose(register_distribution(s, [0, 1]), [0, 0, 1, 0])
    # reversed register ordering swaps the bit weights
    assert np.allclose(register_distribution(s, [1, 0]), [0, 1, 0, 0])


def test_register_distribution_sums_to_one():
    rng = np.random.default_rng(23)
    s = random_state(5, rng)
    for register in ([0], [2, 4], [0, 1, 2, 3, 4]):
        d = register_distribution(s, register)
        assert d.shape == (1 << len(register),)
        assert abs(d.sum() - 1.0) < 1e-12


def test_measure_register_deterministic_and_noncollapsing():
    s = apply_1q(zero_state(2), PAULI_X, 1)
    rng = np.random.default_rng(0)
    before = s.amps.copy()
    cumulative = np.cumsum(register_distribution(s, [0, 1]))
    assert sample_index(np.tile(cumulative, (10, 1)), rng.random(10)).tolist() == [2] * 10
    assert np.array_equal(s.amps, before)


def test_measure_register_frequencies():
    s = hadamard_all(zero_state(2))
    rng = np.random.default_rng(42)
    trials = 100_000
    cumulative = np.cumsum(register_distribution(s, [0, 1]))
    picks = sample_index(np.broadcast_to(cumulative, (trials, 4)), rng.random(trials))
    counts = np.bincount(picks, minlength=4)
    assert np.all(np.abs(counts / trials - 0.25) < 0.01)


def _draw_from_distribution(distribution, rng):
    """The draw rule as it read a distribution: its running sum built on
    every call, then the same uniform, search and clamp."""
    cdf = np.cumsum(distribution)
    u = rng.random() * cdf[-1]
    return int(min(np.searchsorted(cdf, u, side="right"), len(distribution) - 1))


class _Uniforms:
    """A stand-in generator whose ``random`` returns the given values in turn."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.0, 1e-300, 0.1, 0.25, 1.0 / 3.0, 0.5, 2.0]),
                min_size=1, max_size=16).filter(any),
       st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53, 1.0]), min_size=1, max_size=4))
def test_sample_index_reads_the_running_sum(distribution, seed, edges):
    # from equal generator states, the stacked running sums draw what the
    # distribution did one draw at a time, zero-mass entries included, each
    # row with its own uniform and its own total; a uniform of 1.0, which a
    # real generator never returns, lands past the last sum and is clamped
    d = np.array(distribution)
    rows = np.array([d, 3.0 * d, d[::-1]])
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(8):
        picks = sample_index(np.cumsum(rows, axis=1), rng_a.random(3))
        assert picks.tolist() == [_draw_from_distribution(row, rng_b) for row in rows]
        assert np.all(rows[np.arange(3), picks] > 0.0)
    assert rng_a.random() == rng_b.random()
    picks = sample_index(np.tile(np.cumsum(d), (len(edges), 1)), np.array(edges))
    assert picks.tolist() == [_draw_from_distribution(d, _Uniforms([u])) for u in edges]
    if 1.0 in edges:
        assert picks[edges.index(1.0)] == d.shape[0] - 1


def test_norm_preserved_after_gates():
    rng = np.random.default_rng(29)
    s = random_state(4, rng)
    apply_1q(s, HADAMARD, 0)
    apply_controlled_phase(s, {0, 2}, 3, 0.7)
    apply_swap(s, 1, 3)
    apply_qft(s, [0, 1, 2, 3])
    apply_iqft(s, [0, 1, 2, 3])
    assert abs(np.vdot(s.amps, s.amps) - 1.0) < 1e-10


def test_random_circuit_matches_dense_composition():
    # several random circuits on up to 6 qubits against dense linear algebra
    rng = np.random.default_rng(31)
    for n in (3, 5, 6):
        s = random_state(n, rng)
        original = s.amps.copy()
        dense = np.eye(1 << n, dtype=complex)
        for _ in range(12):
            kind = rng.integers(0, 3)
            if kind == 0:
                gate = [HADAMARD, PAULI_X, PAULI_Z, np.diag([1.0, np.exp(0.3j)])][rng.integers(0, 4)]
                t = int(rng.integers(0, n))
                apply_1q(s, gate, t)
                dense = dense_1q(gate, t, n) @ dense
            elif kind == 1:
                qs = rng.choice(n, size=2, replace=False)
                theta = float(rng.uniform(-np.pi, np.pi))
                apply_controlled_phase(s, {int(qs[0])}, int(qs[1]), theta)
                dense = dense_controlled_phase({int(qs[0])}, int(qs[1]), theta, n) @ dense
            else:
                m = int(rng.integers(1, min(n, 3) + 1))
                register = sorted(int(q) for q in rng.choice(n, size=m, replace=False))
                apply_iqft(s, register)
                dense = embed_on_register(dense_qft(m).conj().T, register, n) @ dense
        assert np.allclose(s.amps, dense @ original, atol=1e-9)


def test_dense_oracle_forward_agreement():
    # explicit forward comparison on a fixed circuit, n+m <= 6
    rng = np.random.default_rng(37)
    n = 6
    s = random_state(n, rng)
    original = s.amps.copy()
    dense = np.eye(1 << n, dtype=complex)
    ops = [
        ("h", 2),
        ("cp", {0, 3}, 5, 1.1),
        ("iqft", [1, 2, 4]),
        ("cp", {5}, 0, -2.2),
    ]
    for op in ops:
        if op[0] == "h":
            apply_1q(s, HADAMARD, op[1])
            dense = dense_1q(HADAMARD, op[1], n) @ dense
        elif op[0] == "cp":
            apply_controlled_phase(s, op[1], op[2], op[3])
            dense = dense_controlled_phase(op[1], op[2], op[3], n) @ dense
        else:
            apply_iqft(s, op[1])
            dense = embed_on_register(dense_qft(len(op[1])).conj().T, op[1], n) @ dense
    assert np.allclose(s.amps, dense @ original, atol=1e-9)
