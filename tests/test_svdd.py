import math

import numpy as np
import pytest

from welldesc import (
    BOUNDARY,
    HIGH,
    INSIDE,
    LOW,
    OUTSIDE,
    KernelSpec,
    SvddTrainConfig,
    decide,
    predict,
    radius2_of,
    train,
)
from welldesc.errors import EmptyTrainingSet, InfeasibleCost, NonConvergence
from welldesc.kernels import gram

import oracle
from oracle import OracleScaleExceeded, dual_objective, solve_dual_bruteforce

WIDE = KernelSpec(width=2.0)


def train_simple(X, C=1.0, kernel=WIDE, **kw):
    return train(np.asarray(X, dtype=float), SvddTrainConfig(kernel=kernel, C=C, **kw))


# ------------------------------------------------------------- closed forms

def test_single_point_model():
    m = train_simple([[1.0, 2.0]])
    assert np.array_equal(m.alphas, [1.0])
    assert m.r2 == 0.0


def test_two_point_model_closed_form():
    x1, x2 = [0.0, 0.0], [1.0, 0.0]
    m = train_simple([x1, x2])
    k = math.exp(-0.25)          # squared distance 1, width 2
    assert np.all(np.abs(m.alphas - 0.5) <= 1e-9)
    assert abs(m.r2 - (1.0 - k) / 2.0) <= 1e-9
    assert abs(radius2_of(m, np.array(x1)) - (1.0 - k) / 2.0) <= 1e-9


def test_equilateral_triangle_symmetric_weights():
    X = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]]
    m = train_simple(X)
    assert np.all(np.abs(m.alphas - 1.0 / 3.0) <= 1e-6)


# ----------------------------------------------------------- feasibility

def test_cost_below_one_over_n_rejected():
    X = np.random.default_rng(0).normal(size=(6, 2))
    with pytest.raises(InfeasibleCost):
        train_simple(X, C=0.15)    # 6 * 0.15 < 1


def test_cost_above_one_rejected():
    X = np.random.default_rng(0).normal(size=(4, 2))
    with pytest.raises(InfeasibleCost):
        train_simple(X, C=1.2)


def test_cost_at_one_over_n_is_feasible():
    X = np.random.default_rng(0).normal(size=(4, 2))
    m = train_simple(X, C=0.25)
    # the only feasible point is uniform
    assert np.all(np.abs(m.alphas - 0.25) <= 1e-9)


def test_empty_training_set_rejected():
    with pytest.raises(EmptyTrainingSet):
        train_simple(np.empty((0, 3)))


# ------------------------------------------------------- scoring and labels

def test_score_zero_at_single_training_point():
    m = train_simple([[4.0, -1.0]])
    assert radius2_of(m, np.array([4.0, -1.0])) == 0.0
    assert decide(m, np.array([4.0, -1.0])) == BOUNDARY


def test_far_point_score_saturates():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(8, 2))
    m = train_simple(X, C=1.0)
    far = np.array([500.0, 500.0])   # hundreds of widths away: cross terms vanish
    assert abs(radius2_of(m, far) - (1.0 + m.self_term)) <= 1e-9
    assert decide(m, far) == OUTSIDE
    assert predict(m, far.reshape(1, 2))[0] == HIGH


def test_two_point_training_vector_sits_on_boundary():
    m = train_simple([[0.0, 0.0], [1.0, 0.0]])
    assert decide(m, np.array([0.0, 0.0])) == BOUNDARY


def test_cluster_interior_is_low():
    rng = np.random.default_rng(2)
    X = rng.normal(0.0, 0.3, size=(40, 2))
    m = train_simple(X, C=1.0)
    assert decide(m, np.array([0.0, 0.0])) == INSIDE
    assert predict(m, np.zeros((1, 2)))[0] == LOW


def test_boundary_label_maps_to_majority():
    m = train_simple([[3.0, 3.0]])
    assert predict(m, np.array([[3.0, 3.0]]))[0] == HIGH


# ------------------------------------------------------------- invariants

def random_instance(rng):
    n = int(rng.integers(2, 26))
    d = int(rng.integers(1, 6))
    X = rng.normal(0.0, 1.5, size=(n, d))
    C = float(rng.uniform(1.0 / n, 1.0))
    width = float(rng.uniform(0.5, 3.0))
    return X, C, KernelSpec(width=width)


def test_multiplier_feasibility_on_random_models():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X, C, spec = random_instance(rng)
        m = train(X, SvddTrainConfig(kernel=spec, C=C))
        assert abs(m.alphas.sum() - 1.0) <= 1e-9
        assert np.all(m.alphas >= -1e-12)
        assert np.all(m.alphas <= C + 1e-12)
        assert m.r2 >= 0.0


def test_score_regimes_follow_multipliers():
    """Points with free multipliers share the surface score; clamped ones
    split to either side of it."""
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(20):
        X, C, spec = random_instance(rng)
        m = train(X, SvddTrainConfig(kernel=spec, C=C))
        tol = m.kkt_tol
        scores = np.array([radius2_of(m, x) for x in X])
        free = (m.alphas > tol) & (m.alphas < C - tol)
        if not free.any():
            continue
        ref = float(scores[free].mean())
        band = 1e-4 * max(1.0, ref)
        assert np.all(np.abs(scores[free] - ref) <= band)
        assert np.all(scores[m.alphas <= tol] <= ref + band)
        assert np.all(scores[m.alphas >= C - tol] >= ref - band)
        checked += 1
    assert checked >= 10


def test_no_training_point_outside_at_full_cost():
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = rng.normal(size=(int(rng.integers(2, 15)), 2))
        m = train_simple(X, C=1.0)
        assert all(decide(m, x) != OUTSIDE for x in X)


def test_training_order_does_not_change_the_model():
    # the solver stops at kkt_tol, so r2 may wiggle at that scale between
    # orderings; labels must agree for queries clear of the surface
    rng = np.random.default_rng(6)
    X = rng.normal(size=(18, 3))
    perm = rng.permutation(18)
    m1 = train_simple(X, C=0.3)
    m2 = train_simple(X[perm], C=0.3)
    assert abs(m1.r2 - m2.r2) <= 1e-5 * max(1.0, m1.r2)
    queries = rng.normal(size=(50, 3)) * 2.0
    scores = np.array([radius2_of(m1, q) for q in queries])
    away = np.abs(scores - m1.r2) > 1e-4 * max(1.0, m1.r2)
    assert away.sum() >= 40
    assert np.array_equal(predict(m1, queries)[away], predict(m2, queries)[away])


def test_training_is_deterministic():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(12, 2))
    m1 = train_simple(X, C=0.4)
    m2 = train_simple(X, C=0.4)
    assert np.array_equal(m1.alphas, m2.alphas)
    assert m1.r2 == m2.r2


def test_nonconvergence_reports_violation():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(20, 3))
    with pytest.raises(NonConvergence) as err:
        train(X, SvddTrainConfig(kernel=WIDE, C=0.2, max_passes=1))
    assert err.value.kkt_violation > 0.0


# -------------------------------------------- the solver before welldesc.smo

def _solve_pairwise(G: np.ndarray, C: float, tol: float, max_passes: int):
    """Pairwise coordinate ascent preserving sum(a) = 1.

    Each pass takes the worst uphill coordinate i, pairs it with the donor j
    promising the largest guaranteed objective gain (gap squared over
    curvature; first-order donor choice zigzags badly on near-singular grams),
    moves mass between the two with the analytically optimal step, and clips
    to the box. Ties pick the lowest index. Deterministic for a fixed input.
    """
    n = G.shape[0]
    alpha = np.full(n, 1.0 / n)
    if n == 1:
        return alpha, 0.0
    diag = G.diagonal().copy()
    grad = diag - 2.0 * (G @ alpha)

    viol = np.inf
    for it in range(max_passes):
        up = np.where(alpha < C, grad, -np.inf)    # can receive mass
        dn = np.where(alpha > 0.0, grad, np.inf)   # can give mass
        i = int(np.argmax(up))
        viol = grad[i] - grad[int(np.argmin(dn))]
        if viol <= tol:
            return alpha, float(viol)

        gap = grad[i] - grad
        curv = np.maximum(diag[i] + diag - 2.0 * G[:, i], 1e-12)
        gain = np.where((alpha > 0.0) & (gap > 0.0), gap * gap / curv, -np.inf)
        j = int(np.argmax(gain))

        pair_gap = grad[i] - grad[j]
        room = min(C - alpha[i], alpha[j])
        denom = diag[i] + diag[j] - 2.0 * G[i, j]
        delta = room if denom <= 0.0 else min(room, pair_gap / (2.0 * denom))
        if delta <= 0.0:
            return alpha, float(viol)  # box leaves no feasible motion
        if delta >= room:
            # land exactly on whichever bound binds
            if C - alpha[i] <= alpha[j]:
                alpha[j] -= C - alpha[i]
                alpha[i] = C
            else:
                alpha[i] += alpha[j]
                alpha[j] = 0.0
            delta = room
        else:
            alpha[i] += delta
            alpha[j] -= delta
        grad -= (2.0 * delta) * (G[:, i] - G[:, j])
        if (it + 1) % 1024 == 0:
            grad = diag - 2.0 * (G @ alpha)  # shed incremental rounding

    raise NonConvergence(
        f"pairwise solver still violating KKT by {viol:.3e} after {max_passes} passes",
        kkt_violation=float(viol))


def _reference_fit(X, C, spec, tol=1e-6):
    """alphas, r2 and self_term as train computed them with _solve_pairwise."""
    G = gram(spec, X)
    n = X.shape[0]
    alphas, _ = _solve_pairwise(G, C, tol, 10 * n * n)
    Ka = G @ alphas
    self_term = float(alphas @ Ka)
    r2_each = G.diagonal() - 2.0 * Ka + self_term
    unbounded = (alphas > tol) & (alphas < C - tol)
    if unbounded.any():
        r2 = float(r2_each[unbounded].max())
    else:
        positive = alphas > tol
        r2 = float(r2_each[positive].max()) if positive.any() else 0.0
    return alphas, max(r2, 0.0), self_term


def test_training_is_bit_identical_to_the_pre_smo_solver():
    rng = np.random.default_rng(11)
    families = (KernelSpec(width=1.5), KernelSpec("erbf", width=2.0),
                KernelSpec("polynomial", degree=3, offset=1.0))
    checked = 0
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 60, 100, 150):
        for spec in families:
            X = rng.normal(0.0, 1.0, size=(n, int(rng.integers(1, 6))))
            if n >= 4:  # duplicate rows give zero-curvature pairs
                X[rng.integers(0, n, n // 4)] = X[rng.integers(0, n, n // 4)]
            if spec.family == "polynomial":
                X /= 3.0
            for C in (1.0 / n, float(rng.uniform(1.0 / n, 1.0)), 1.0):
                want_a, want_r2, want_self = _reference_fit(X, C, spec)
                m = train(X, SvddTrainConfig(kernel=spec, C=C))
                assert m.alphas.tobytes() == want_a.tobytes(), (n, spec, C)
                assert m.r2 == want_r2 and m.self_term == want_self, (n, spec, C)
                checked += 1
    assert checked == 99
    # about 1900 passes, past the gradient refresh every 1024
    X = rng.normal(size=(1200, 3))
    want_a, want_r2, want_self = _reference_fit(X, 0.01, families[0])
    m = train(X, SvddTrainConfig(kernel=families[0], C=0.01))
    assert m.alphas.tobytes() == want_a.tobytes()
    assert m.r2 == want_r2 and m.self_term == want_self


# ------------------------------------------------------------------ oracle

def test_oracle_two_point_closed_form():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    a = solve_dual_bruteforce(gram(WIDE, X), 1.0)
    assert np.all(np.abs(a - 0.5) <= 1e-6)


def test_oracle_single_point():
    a = solve_dual_bruteforce(np.array([[1.0]]), 1.0)
    assert np.array_equal(a, [1.0])


def test_oracle_matches_solver_objective():
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = rng.normal(size=(10, 3))
        K = gram(WIDE, X)
        m = train_simple(X, C=0.5)
        a = solve_dual_bruteforce(K, 0.5)
        assert abs(dual_objective(K, m.alphas) - dual_objective(K, a)) <= 1e-5


ORACLE_CASES = {
    "random": lambda rng: (rng.normal(size=(14, 2)), WIDE, 0.11),
    # the box leaves one feasible point, a = C everywhere
    "cost-one-over-n": lambda rng: (rng.normal(size=(14, 2)), WIDE, 1.0 / 14),
    "duplicate-rows": lambda rng: (np.tile(rng.normal(size=(7, 2)), (2, 1)), WIDE, 0.11),
    "n-at-cap": lambda rng: (rng.normal(size=(30, 3)), WIDE, 0.05),
    # 1-d points under a wide kernel: the Gram's bottom eigenvalues are ~1e-16
    "near-singular": lambda rng: (rng.normal(size=(20, 1)), KernelSpec(width=4.0), 0.2),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_oracle_respects_constraints(case):
    X, spec, C = ORACLE_CASES[case](np.random.default_rng(10))
    K = gram(spec, X)
    a = solve_dual_bruteforce(K, C)
    assert abs(a.sum() - 1.0) <= 1e-9
    assert np.all(a >= -1e-12)
    assert np.all(a <= C + 1e-12)
    # and it is the optimum: no worse than the trainer's multipliers
    trained = train(X, SvddTrainConfig(kernel=spec, C=C)).alphas
    assert dual_objective(K, a) >= dual_objective(K, trained) - 1e-9


def test_oracle_raises_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(oracle, "_QP_MAX_ITER", 1)
    X = np.random.default_rng(10).normal(size=(14, 2))
    with pytest.raises(NonConvergence) as err:
        solve_dual_bruteforce(gram(WIDE, X), 0.11)
    assert err.value.kkt_violation > 0.0


def test_oracle_refuses_large_instances():
    with pytest.raises(OracleScaleExceeded):
        solve_dual_bruteforce(np.eye(31), 1.0)
