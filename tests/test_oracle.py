import itertools

import numpy as np
import pytest

from hmgrl import numkit as nk
from hmgrl.numkit.tensor import make_output
from hmgrl.errors import NumericError, ParameterError, PartitionError, ValidationError
from hmgrl.oracle import (
    FdConfig,
    _central_difference,
    gradcheck,
    jacobi_eigh,
    metric_oracle,
    ncut_objective,
    ncut_trace_form,
    spectral_cluster_oracle,
)


def test_fd_quadratic():
    x = np.array([[3.0]])
    fd = _central_difference(lambda: float(x[0, 0] ** 2), x, (0, 0), 1e-5)
    assert abs(fd - 6.0) <= 1e-8 and x[0, 0] == 3.0   # x restored


def test_fd_constant_function():
    x = np.array([[1.0, -2.0]])
    assert [_central_difference(lambda: 5.0, x, idx, 1e-5)
            for idx in np.ndindex(x.shape)] == [0.0, 0.0]


def test_fd_config_rejects_a_sample_count_below_one():
    for count in (0, -1):
        with pytest.raises(ParameterError):
            FdConfig(sample_count=count)


@pytest.mark.parametrize("count,checked", [(79, 79), (80, 80), (100000, 80)])
def test_gradcheck_sweeps_a_tensor_whole_once_the_sample_count_reaches_it(
        count, checked):
    x = nk.parameter(np.linspace(-1.0, 1.0, 80).reshape(8, 10))  # > full_sweep_size
    report = gradcheck(lambda: nk.sum_all(nk.mul(x, x)), {"x": x},
                       FdConfig(sample_count=count))
    assert report["x"]["checked"] == checked and report["x"]["ok"]


def test_gradcheck_raises_on_a_loss_not_finite_beside_a_coordinate():
    # finite at x, NaN once x[0, 1] moves up by h: no coordinate may drop out
    x = nk.parameter(np.array([[0.5, 1.0, -0.3]]))

    def loss():
        square = nk.sum_all(nk.mul(x, x))
        return nk.scale(square, np.nan) if x.data[0, 1] > 1.0 else square

    assert np.isfinite(loss().item())
    with pytest.raises(NumericError, match=r"x: .*\(0, 1\)"):
        gradcheck(loss, {"x": x})


def test_gradcheck_fails_a_non_finite_analytic_gradient():
    x = nk.parameter(np.array([[0.5, 1.0]]))

    def loss():   # sum(x^2), whose analytic gradient reads NaN at x[0, 1]
        def backward(g):
            x.accumulate(g[0, 0] * np.array([[2 * 0.5, np.nan]]))

        return make_output(np.array([[(x.data ** 2).sum()]]), (x,), backward)

    report = gradcheck(loss, {"x": x})["x"]
    assert np.isnan(report["max_rel_err"]) and not report["ok"]


def test_ncut_disconnected_blocks_is_zero():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    assert ncut_objective(a, [0, 0, 1, 1]) == 0.0


def test_ncut_complete_graph_hand_count():
    a = np.ones((4, 4)) - np.eye(4)
    # cut = 4, vol of each side = 6 -> (1/2)(4/6 + 4/6) = 2/3
    assert ncut_objective(a, [0, 0, 1, 1]) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_ncut_nonnegative_and_validates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.random((5, 5))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        labels = rng.integers(0, 2, size=5)
        if len(np.unique(labels)) < 2:
            continue
        assert ncut_objective(a, labels) >= 0.0
    with pytest.raises(ValidationError):
        ncut_objective(np.array([[0.0, 1.0], [0.5, 0.0]]), [0, 1])
    with pytest.raises(PartitionError):
        ncut_objective(np.zeros((2, 2)), [0, 0, 1])


def _all_partitions(n, max_clusters):
    """Every labeling of n nodes into at most max_clusters non-empty clusters."""
    seen = set()
    for labels in itertools.product(range(max_clusters), repeat=n):
        # canonical form: relabel by first appearance so duplicates collapse
        remap, canon = {}, []
        for x in labels:
            remap.setdefault(x, len(remap))
            canon.append(remap[x])
        key = tuple(canon)
        if key not in seen:
            seen.add(key)
            yield np.array(canon)


def test_trace_form_equals_twice_objective_exhaustively():
    rng = np.random.default_rng(11)
    for k in (4, 5, 6):
        a = rng.random((k, k))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        a += 0.05  # keep all degrees positive
        np.fill_diagonal(a, 0.0)
        for labels in _all_partitions(k, 3):
            obj = ncut_objective(a, labels)
            tf = ncut_trace_form(a, labels)
            assert abs(tf - 2.0 * obj) <= 1e-9


def test_jacobi_matches_numpy_eigh():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(8, 8))
    a = (a + a.T) / 2
    vals, vecs = jacobi_eigh(a)
    ref = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.allclose(vals, ref, atol=1e-9)
    assert np.allclose(vecs.T @ vecs, np.eye(8), atol=1e-9)
    assert np.allclose(a @ vecs, vecs * vals, atol=1e-8)


def _block_graph(sizes, rng):
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for s in sizes:
        block = rng.random((s, s)) * 0.5 + 0.5
        block = (block + block.T) / 2
        np.fill_diagonal(block, 0.0)
        a[start:start + s, start:start + s] = block
        start += s
    return a


def test_spectral_oracle_disconnected_blocks():
    rng = np.random.default_rng(17)
    a = _block_graph([3, 3, 2], rng)
    f, eigvals, labels = spectral_cluster_oracle(a, 3)
    assert np.abs(eigvals - 1.0).max() <= 1e-9
    assert np.allclose(f.T @ f, np.eye(3), atol=1e-9)
    truth = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    # recovered blocks match up to relabeling
    mapping = {}
    for t, got in zip(truth, labels):
        mapping.setdefault(t, got)
        assert mapping[t] == got
    assert len(set(mapping.values())) == 3


def test_spectral_oracle_parameter_errors():
    a = np.ones((3, 3)) - np.eye(3)
    with pytest.raises(ParameterError):
        spectral_cluster_oracle(a, 4)
    with pytest.raises(ValidationError):
        spectral_cluster_oracle(np.zeros((3, 3)), 2)


def test_metric_oracle_perfect_separation():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    pos = np.array([True, True, False, False])
    aupr, auc = metric_oracle(scores, pos)
    assert aupr == pytest.approx(1.0, abs=1e-12)
    assert auc == pytest.approx(1.0, abs=1e-12)


def test_metric_oracle_all_equal_scores():
    scores = np.full(10, 0.3)
    pos = np.array([True] * 4 + [False] * 6)
    aupr, auc = metric_oracle(scores, pos)
    assert auc == pytest.approx(0.5, abs=1e-12)   # single diagonal segment
    assert aupr == pytest.approx(0.4, abs=1e-12)  # precision = prevalence
