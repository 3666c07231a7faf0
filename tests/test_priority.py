import numpy as np
import pytest

from gate_oracles import IndicatorVector, equal_weight_priority
from greenprior import priority
from greenprior.geocore import ComputationError
from greenprior.priority import (
    PriorityScore,
    compute_weights,
    critic_weights,
    cv_weights,
    entropy_weights,
    priority_summary,
    rank_buildings,
)

HAND_MATRIX = np.array([
    [0.2, 0.4, 0.9, 0.1, 0.55, 0.3],
    [0.8, 0.4, 0.1, 0.5, 0.35, 0.3],
    [0.5, 0.7, 0.3, 0.9, 0.15, 0.6],
])


def test_equal_weight_priority_examples():
    assert equal_weight_priority(IndicatorVector(1, 1, 1, 1, 1, 1)) == 1.0
    assert equal_weight_priority(IndicatorVector(0, 0, 0, 0, 0, 0)) == 0.0
    v = IndicatorVector(0.9, 0.8, 0.5, 0.6, 0.7, 0.9)
    assert equal_weight_priority(v) == pytest.approx(0.733333, abs=1e-6)


def test_equal_weight_priority_properties():
    rng = np.random.default_rng(61)
    for _ in range(200):
        vals = rng.random(6)
        base = equal_weight_priority(IndicatorVector(*vals))
        shuffled = IndicatorVector(*rng.permutation(vals))
        assert equal_weight_priority(shuffled) == pytest.approx(base, abs=1e-12)
        bumped = vals.copy()
        i = rng.integers(6)
        bumped[i] = min(1.0, bumped[i] + rng.random() * (1.0 - bumped[i]))
        assert equal_weight_priority(IndicatorVector(*bumped)) >= base - 1e-12


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_identical_columns_equal_weights():
    col = np.array([0.1, 0.5, 0.9, 0.4])
    m = np.column_stack([col] * 6)
    np.testing.assert_allclose(entropy_weights(m), np.full(6, 1 / 6), atol=1e-9)


def test_entropy_single_informative_column():
    m = np.full((4, 6), 0.3)
    m[:, 2] = [0.0, 1.0, 0.0, 1.0]
    w = entropy_weights(m)
    assert w[2] == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(np.delete(w, 2), 0.0, atol=1e-9)


def test_entropy_hand_oracle():
    expected = [0.143598705072, 0.042477856962, 0.344584043461,
                0.274215207456, 0.129311146291, 0.065813040758]
    np.testing.assert_allclose(entropy_weights(HAND_MATRIX), expected, atol=1e-9)


def test_entropy_all_zero_column_gets_no_weight():
    m = np.column_stack([np.zeros(4), [0.1, 0.9, 0.3, 0.6]])
    w = entropy_weights(m)
    assert w[0] == pytest.approx(0.0, abs=1e-9)
    assert w[1] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# coefficient of variation
# ---------------------------------------------------------------------------

def test_cv_identical_columns_equal_weights():
    col = np.array([0.2, 0.6, 0.7])
    m = np.column_stack([col] * 6)
    np.testing.assert_allclose(cv_weights(m), np.full(6, 1 / 6), atol=1e-12)


def test_cv_constant_column_zero_weight():
    m = np.column_stack([[0.4, 0.4, 0.4], [0.1, 0.5, 0.9]])
    w = cv_weights(m)
    assert w[0] == 0.0
    assert w[1] == 1.0


def test_cv_hand_oracle():
    expected = [0.161654464137, 0.093331248385, 0.258854308967,
                0.215539285517, 0.153956632512, 0.116664060482]
    np.testing.assert_allclose(cv_weights(HAND_MATRIX), expected, atol=1e-9)


def test_cv_all_constant_falls_back_to_equal():
    np.testing.assert_allclose(cv_weights(np.full((3, 4), 0.5)), np.full(4, 0.25))


# ---------------------------------------------------------------------------
# CRITIC
# ---------------------------------------------------------------------------

def test_critic_identical_pair_splits_weight():
    col = np.array([0.1, 0.8, 0.4, 0.6])
    m = np.column_stack([col, col, np.full(4, 0.2), np.full(4, 0.5),
                         np.full(4, 0.7), np.full(4, 0.9)])
    w = critic_weights(m)
    assert w[0] == pytest.approx(0.5, abs=1e-12)
    assert w[1] == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(w[2:], 0.0, atol=1e-12)


def test_critic_uncorrelated_equal_std_equal_weights():
    # Columns built from a Hadamard-style design: pairwise orthogonal after
    # centering, identical spread.
    m = 0.5 + 0.4 * np.array([
        [1, 1, 1],
        [1, -1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
    ], dtype=float)
    w = critic_weights(m)
    np.testing.assert_allclose(w, np.full(3, 1 / 3), atol=1e-12)


def test_critic_hand_oracle():
    m = np.array([
        [0.1, 0.9, 0.3],
        [0.4, 0.2, 0.3],
        [0.7, 0.6, 0.9],
        [1.0, 0.1, 0.5],
    ])
    expected = [0.378673021133, 0.442787444049, 0.178539534818]
    np.testing.assert_allclose(critic_weights(m), expected, atol=1e-9)


# ---------------------------------------------------------------------------
# shared weight properties
# ---------------------------------------------------------------------------

def test_weights_nonnegative_sum_one():
    rng = np.random.default_rng(71)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        m = rng.random((n, 6))
        for scheme in ("equal", "entropy", "cv", "critic"):
            w = compute_weights(m, scheme)
            assert w.shape == (6,)
            assert (w >= -1e-12).all()
            assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_cv_critic_scale_invariant_ranking():
    rng = np.random.default_rng(83)
    for _ in range(20):
        m = rng.random((8, 6)) * 0.9 + 0.05
        for fn in (cv_weights, critic_weights):
            base = fn(m)
            scaled = fn(m * 0.37)
            assert np.argmax(base) == np.argmax(scaled)
            assert (np.argsort(base) == np.argsort(scaled)).all()


def test_compute_weights_unknown_scheme():
    with pytest.raises(ValueError, match="unknown weighting scheme"):
        compute_weights(np.ones((3, 6)) * 0.5, "delphi")


@pytest.mark.parametrize("bad", [
    [0.5, 0.5, 0.5, 0.0, 0.0, 0.0],
    [-0.1, 0.3, 0.2, 0.2, 0.2, 0.2],
    [np.nan, 0.2, 0.2, 0.2, 0.2, 0.2],
])
def test_compute_weights_rejects_its_own_bad_result(monkeypatch, bad):
    monkeypatch.setattr(priority, "cv_weights", lambda matrix: np.array(bad))
    with pytest.raises(ComputationError, match="cv weights must be non-negative and sum to 1"):
        compute_weights(HAND_MATRIX, "cv")


def test_matrix_validation():
    with pytest.raises(ValueError):
        entropy_weights(np.array([[0.5, 0.5]]))  # single row
    with pytest.raises(ValueError):
        cv_weights(np.array([[0.5, 1.5], [0.2, 0.3]]))  # out of range


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def test_rank_buildings_basic():
    scores = rank_buildings({"x": 0.9, "y": 0.5, "z": 0.7})
    assert [(s.building_id, s.rank) for s in scores] == [("x", 1), ("z", 2), ("y", 3)]
    assert [s.percentile for s in scores] == [100.0, 50.0, 0.0]


def test_rank_buildings_tie_by_id():
    scores = rank_buildings({"b": 0.5, "a": 0.5})
    assert [s.building_id for s in scores] == ["a", "b"]
    assert [s.rank for s in scores] == [1, 2]


def test_rank_single_building():
    (s,) = rank_buildings({"only": 0.42})
    assert s.rank == 1
    assert s.percentile == 100.0


def test_priority_score_validation():
    with pytest.raises(ValueError):
        PriorityScore("b", 1.5, 1, 50.0)
    with pytest.raises(ValueError):
        PriorityScore("b", 0.5, 0, 50.0)


def test_priority_summary():
    s = priority_summary([0.9, 0.8, 0.6, 0.3])
    assert s.count == 4
    assert s.percent_above_half == 75.0
    assert s.mean_priority == pytest.approx(0.65)
    assert s.max_priority == pytest.approx(0.9)
