"""Cost-conversion checks: residual -> QUBO, exhaustive cost table."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasmld.qubo
from gasmld.channel import circulant_matrix, demodulate, modulate
from gasmld.qubo import (
    MldInstance,
    QuboProblem,
    bits_of,
    evaluate_all_costs,
    evaluate_cost,
    mld_to_qubo,
)

from oracles import brute_force_min


def random_instance(N, rng, taps=None):
    L = taps or N
    h = rng.normal(size=L) + 1j * rng.normal(size=L)
    y = rng.normal(size=N) + 1j * rng.normal(size=N)
    return MldInstance(h=h, y=y, sigma2=0.5)


def test_scalar_real_example():
    # |3 - x|^2 over the cost table: b = 0 (x = -1) costs 16, b = 1 (x = +1) costs 4
    inst = MldInstance(h=[1.0], y=[3.0], sigma2=0.1)
    assert np.allclose(evaluate_all_costs(mld_to_qubo(inst)), [16.0, 4.0])


def test_scalar_complex_example():
    # |j - j x|^2: Re(H^H H) = 1, Re(H^H y) = 1, ||y||^2 = 1 over x
    inst = MldInstance(h=[1j], y=[1j], sigma2=0.1)
    q = mld_to_qubo(inst)
    assert np.allclose(q.Q, [[4.0]])
    assert np.allclose(q.c, [-8.0])
    assert q.offset == pytest.approx(4.0)
    assert evaluate_cost(q, [1]) == pytest.approx(0.0)
    assert evaluate_cost(q, [0]) == pytest.approx(4.0)


def test_bipolar_matches_residual_exhaustively():
    rng = np.random.default_rng(7)
    inst = random_instance(3, rng)
    q = mld_to_qubo(inst)
    for bits in bits_of(np.arange(8), 3):
        residual = float(np.linalg.norm(inst.y - inst.H @ modulate(bits)) ** 2)
        assert evaluate_cost(q, bits) == pytest.approx(residual, abs=1e-9)


def test_binary_transform_example():
    inst = MldInstance(h=[1.0], y=[3.0], sigma2=0.1)
    q = mld_to_qubo(inst)
    assert np.allclose(q.Q, [[4.0]])
    assert np.allclose(q.c, [-16.0])
    assert q.offset == pytest.approx(16.0)
    assert evaluate_cost(q, [1]) == pytest.approx(4.0)
    assert evaluate_cost(q, [0]) == pytest.approx(16.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
def test_chain_consistency_exhaustive(N, taps, magnitude, seed):
    # every cost-table entry E(b) equals the residual of the mapped symbol
    # vector, on random complex circulant channels; the search takes every
    # cost it compares from this table
    rng = np.random.default_rng(seed)
    taps = min(taps, N)
    h = magnitude * (rng.normal(size=taps) + 1j * rng.normal(size=taps))
    y = magnitude * (rng.normal(size=N) + 1j * rng.normal(size=N))
    inst = MldInstance(h=h, y=y, sigma2=0.5)
    costs = evaluate_all_costs(mld_to_qubo(inst))
    for v, bits in enumerate(bits_of(np.arange(1 << N), N)):
        residual = float(np.linalg.norm(inst.y - inst.H @ modulate(bits)) ** 2)
        assert abs(costs[v] - residual) <= 1e-9 * max(1.0, residual)


def test_brute_force_min_matches_direct_search():
    rng = np.random.default_rng(17)
    for N in (1, 2, 3, 4):
        for _ in range(25):
            inst = random_instance(N, rng, taps=min(N, 3))
            q = mld_to_qubo(inst)
            bits, cost = brute_force_min(q)
            # independent route: enumerate symbol vectors directly
            best = min(
                (float(np.linalg.norm(inst.y - inst.H @ modulate(b)) ** 2) for b in bits_of(np.arange(1 << N), N)),
            )
            assert cost == pytest.approx(best, abs=1e-9)
            assert evaluate_cost(q, bits) == pytest.approx(cost, abs=1e-12)


def test_brute_force_tie_break():
    # flat landscape: every b costs the same, so the all-zeros pattern wins
    q = QuboProblem(Q=np.zeros((3, 3)), c=np.zeros(3), offset=5.0)
    bits, cost = brute_force_min(q)
    assert cost == 5.0
    assert np.array_equal(bits, [0, 0, 0])


def test_brute_force_cap():
    q = QuboProblem(Q=np.zeros((25, 25)), c=np.zeros(25), offset=0.0)
    with pytest.raises(ValueError):
        evaluate_all_costs(q)


def test_instance_validation():
    with pytest.raises(ValueError, match="shorter than the 3-tap response"):
        MldInstance(h=np.ones(3), y=np.zeros(2), sigma2=0.1)
    for h, y in ((np.eye(2), np.zeros(2)), ([1.0], np.zeros((2, 2))), (1.0, np.zeros(2))):
        with pytest.raises(ValueError, match="must be vectors"):
            MldInstance(h=h, y=y, sigma2=0.1)
    with pytest.raises(ValueError, match="at least one tap"):
        MldInstance(h=[], y=np.zeros(2), sigma2=0.1)
    with pytest.raises(ValueError, match="non-negative"):
        MldInstance(h=[1.0], y=np.zeros(2), sigma2=-1.0)
    for h, y, sigma2 in [([1.0], [np.nan, 0.0], 0.1), ([np.inf, 0.0], np.zeros(2), 0.1),
                         ([1.0, np.nan], np.zeros(2), 0.1), ([1.0], [0.0, np.inf], 0.1),
                         ([1.0], np.zeros(2), np.nan)]:
        with pytest.raises(ValueError, match="must be finite"):
            MldInstance(h=h, y=y, sigma2=sigma2)


def test_instance_channel_is_its_response_circulant(monkeypatch):
    # h is stored zero-padded to N, and H is the circulant of h, built once
    rng = np.random.default_rng(23)
    h = rng.normal(size=3) + 1j * rng.normal(size=3)
    inst = MldInstance(h=h, y=rng.normal(size=5), sigma2=0.5)
    assert inst.N == 5
    assert np.array_equal(inst.h, np.concatenate((h, np.zeros(2))))
    built = []

    def counted(*args):
        built.append(args)
        return circulant_matrix(*args)

    monkeypatch.setattr(gasmld.qubo, "circulant_matrix", counted)
    H = inst.H
    mld_to_qubo(inst)  # reads inst.H again
    assert inst.H is H and len(built) == 1
    assert np.array_equal(H, circulant_matrix(inst.h, 5))
    assert np.array_equal(H, circulant_matrix(h, 5))
    assert "H" not in {f.name for f in dataclasses.fields(MldInstance)}


def test_qubo_validation():
    with pytest.raises(ValueError):
        QuboProblem(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), c=np.zeros(2), offset=0.0)
    # non-finite entries are reported as such, not as asymmetry, before they
    # can reach the value-register sizing
    with pytest.raises(ValueError, match="must be finite"):
        QuboProblem(Q=np.eye(3), c=[np.inf, 0.0, 0.0], offset=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        QuboProblem(Q=np.full((2, 2), np.nan), c=np.zeros(2), offset=0.0)
    with pytest.raises(ValueError, match="must be finite"):
        QuboProblem(Q=np.eye(2), c=np.zeros(2), offset=np.inf)


def test_bit_symbol_maps():
    # the bit <-> symbol map the QUBO cost table is indexed by
    assert np.array_equal(modulate([0, 1, 1]), [-1.0, 1.0, 1.0])
    assert np.array_equal(demodulate([-0.3, 0.2, 1.0]), [0, 1, 1])


def test_offset_makes_costs_nonnegative_for_residuals():
    rng = np.random.default_rng(19)
    inst = random_instance(4, rng)
    q = mld_to_qubo(inst)
    assert evaluate_all_costs(q).min() >= -1e-9
