import json

import numpy as np
import pytest
import scipy.sparse as sp

from dcprox.datasets import (ParseError, gen_logreg, gen_poisson_cs,
                             load_dataset_json, make_rng, poisson_sample,
                             read_libsvm, resample_counts, save_dataset_json,
                             write_libsvm)


# --- text format ---------------------------------------------------------------

def test_libsvm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = sp.random(12, 7, density=0.4, random_state=np.random.RandomState(1),
                  format="csr")
    labels = np.where(rng.random(12) > 0.5, 1.0, -1.0)
    path = tmp_path / "data.txt"
    write_libsvm(path, A, labels)
    A2, labels2 = read_libsvm(path, n_features=7)
    assert np.array_equal(labels, labels2)
    assert np.allclose(A.toarray(), A2.toarray(), rtol=0, atol=0)


def test_libsvm_label_mapping(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0 1:1.0\n2 1:2.0\n-1 1:3.0\n+1 1:4.0\n")
    _, labels = read_libsvm(path)
    assert np.array_equal(labels, [-1.0, 1.0, -1.0, 1.0])


def test_libsvm_duplicate_index_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("1 1:1.0 1:2.0\n")
    with pytest.raises(ParseError) as exc_info:
        read_libsvm(path)
    assert exc_info.value.line == 1


def test_libsvm_malformed_token_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 1:1.0\n1 2:zebra\n")
    with pytest.raises(ParseError) as exc_info:
        read_libsvm(path)
    assert exc_info.value.line == 2


def test_libsvm_nonpositive_index_rejected(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("1 0:1.0\n")
    with pytest.raises(ParseError):
        read_libsvm(path)


def test_libsvm_out_of_order_indices_are_sorted(tmp_path):
    path = tmp_path / "swap.txt"
    path.write_text("1 3:3.0 1:1.0\n")
    A, _ = read_libsvm(path)
    assert np.allclose(A.toarray(), [[1.0, 0.0, 3.0]])


def test_libsvm_width_override_and_blank_lines(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1 2:5.0\n\n-1\n")
    A, labels = read_libsvm(path, n_features=4)
    assert A.shape == (2, 4)
    assert np.allclose(A.toarray()[1], 0.0)  # label-only row is all zeros
    with pytest.raises(ParseError):
        read_libsvm(path, n_features=1)


def test_libsvm_index_above_width_names_its_line(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("1 2:1.0\n\n-1 1:1.0 5:2.0\n1 9:1.0\n")
    with pytest.raises(ParseError, match="index 5 exceeds n_features 3") as exc_info:
        read_libsvm(path, n_features=3)
    assert exc_info.value.line == 3


# --- random generation -----------------------------------------------------------

def test_rng_spec_determinism():
    a = make_rng(3).random(4)
    assert np.array_equal(a, make_rng(3).random(4))
    assert not np.array_equal(a, make_rng(4).random(4))
    assert np.array_equal(make_rng(5).random(3), make_rng(5).random(3))
    gen = np.random.default_rng(1)
    assert make_rng(gen) is gen


@pytest.mark.parametrize("seed", [0, 3, 2**40, np.int64(7)])
def test_int_seed_is_the_philox_generator_bit_for_bit(seed):
    want = np.random.Generator(np.random.Philox(int(seed)))
    assert make_rng(seed).bytes(256) == want.bytes(256)


def test_poisson_sample_edge_cases():
    rng = make_rng(0)
    assert poisson_sample(0.0, rng) == 0
    with pytest.raises(ValueError):
        poisson_sample(-1.0, rng)
    with pytest.raises(ValueError):
        poisson_sample(np.inf, rng)


def test_poisson_sample_small_mean_pmf():
    rng = make_rng(42)
    mean = 1.5
    n = 200000
    draws = np.array([poisson_sample(mean, rng) for _ in range(n)])
    pmf0 = np.exp(-mean)
    for k, pk in ((0, pmf0), (1, pmf0 * 1.5), (2, pmf0 * 1.125)):
        freq = np.mean(draws == k)
        sigma = np.sqrt(pk * (1 - pk) / n)
        assert abs(freq - pk) <= 4.0 * sigma


def test_poisson_sample_large_mean_moments():
    rng = make_rng(7)
    mean = 1e5
    draws = np.array([poisson_sample(mean, rng) for _ in range(30000)])
    assert abs(draws.mean() - mean) <= 4.0 * np.sqrt(mean / 30000)
    assert 0.97 <= draws.var() / mean <= 1.03


def test_poisson_sample_deterministic_per_seed():
    a = [poisson_sample(35.0, make_rng(9))]
    b = [poisson_sample(35.0, make_rng(9))]
    assert a == b


def test_gen_logreg_shapes_and_labels():
    data, w = gen_logreg(50, 20, sparsity_of_truth=0.2, noise_rate=0.0, rng=0)
    assert data.A.shape == (50, 20)
    assert set(np.unique(data.b)) <= {-1.0, 1.0}
    assert np.count_nonzero(w) == 4
    # with no label noise, labels follow the planted margins
    margins = data.A @ w
    assert np.array_equal(data.b, np.where(margins >= 0.0, 1.0, -1.0))


def test_gen_logreg_column_scales_spread():
    data, _ = gen_logreg(200, 30, rng=1, scale_decades=2.0)
    norms = np.linalg.norm(data.A, axis=0)
    assert norms.max() / norms.min() > 5.0


def test_gen_logreg_deterministic():
    a, _ = gen_logreg(20, 5, rng=3)
    b, _ = gen_logreg(20, 5, rng=3)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)


def test_gen_logreg_noise_flips_labels():
    clean, w = gen_logreg(300, 10, noise_rate=0.0, rng=2)
    noisy, _ = gen_logreg(300, 10, noise_rate=0.3, rng=2)
    flips = np.mean(clean.b != noisy.b)
    assert 0.15 < flips < 0.45


def test_gen_poisson_cs_flux_normalization():
    data, x_true = gen_poisson_cs(n=60, m=25, k_nonzeros=4, amp_max=1000.0,
                                  rng=0)
    col_sums = np.asarray(data.A.sum(axis=0)).ravel()
    assert np.allclose(col_sums, 1.0, rtol=0, atol=1e-12)
    assert np.all(data.A >= 0.0)
    assert np.count_nonzero(x_true) == 4
    assert np.all(x_true >= 0.0)
    assert data.b.dtype.kind in "fi"
    assert np.all(data.b >= 0.0)
    assert np.all(data.b == np.round(data.b))


def test_gen_poisson_counts_track_intensity():
    data, x_true = gen_poisson_cs(n=40, m=15, k_nonzeros=3, amp_max=1e4, rng=5)
    intensity = data.A @ x_true + data.bg
    # counts concentrate near the intensity for large means
    big = intensity > 100.0
    assert np.all(np.abs(data.b[big] - intensity[big])
                  <= 6.0 * np.sqrt(intensity[big]))


def test_resample_counts_same_design():
    data, x_true = gen_poisson_cs(n=30, m=10, k_nonzeros=3, amp_max=100.0, rng=1)
    redraw = resample_counts(data, x_true, make_rng(99))
    assert redraw.A is data.A or np.array_equal(redraw.A, data.A)
    assert redraw.lam == data.lam and redraw.bg == data.bg
    assert not np.array_equal(redraw.b, data.b)
    again = resample_counts(data, x_true, make_rng(99))
    assert np.array_equal(redraw.b, again.b)


# --- dataset JSON ---------------------------------------------------------------

def test_dataset_json_round_trip_logreg(tmp_path):
    data, w = gen_logreg(15, 6, rng=0)
    path = tmp_path / "lr.json"
    save_dataset_json(path, "logreg", data, w, params={"note": 1})
    kind, loaded, truth, params = load_dataset_json(path)
    assert kind == "logreg"
    assert np.array_equal(np.asarray(loaded.A), data.A)
    assert np.array_equal(loaded.b, data.b)
    assert loaded.lam == data.lam
    assert np.array_equal(truth, w)
    assert params == {"note": 1}


def test_dataset_json_round_trip_poisson(tmp_path):
    data, x_true = gen_poisson_cs(n=20, m=8, k_nonzeros=2, amp_max=50.0, rng=3)
    path = tmp_path / "po.json"
    save_dataset_json(path, "poisson-cs", data, x_true)
    kind, loaded, truth, _ = load_dataset_json(path)
    assert kind == "poisson-cs"
    assert np.array_equal(np.asarray(loaded.A), np.asarray(data.A))
    assert np.array_equal(loaded.b, data.b)
    assert loaded.bg == data.bg
    assert np.array_equal(truth, x_true)


def test_dataset_json_sparse_logreg_round_trip(tmp_path):
    data, w = gen_logreg(10, 4, rng=1)
    sparse = type(data)(A=sp.csr_matrix(data.A), b=data.b, lam=data.lam)
    path = tmp_path / "sp.json"
    save_dataset_json(path, "logreg", sparse, w)
    _, loaded, _, _ = load_dataset_json(path)
    assert sp.issparse(loaded.A)
    assert np.allclose(loaded.A.toarray(), data.A, rtol=0, atol=0)


_DATASET = {"kind": "logreg", "A": {"format": "dense", "values": [[1.0], [0.5]]},
            "labels": [1.0, -1.0], "lambda": 0.01, "truth": [0.0]}


@pytest.mark.parametrize("payload, named", [
    ([], "must hold an object"),
    (dict(_DATASET, A=5), "'A'"),
    (dict(_DATASET, labels=1.0), "'labels'"),
    (dict(_DATASET, A={"format": "dense", "values": [[1.0], [0.5, 2.0]]}), "'A.values'"),
    (dict(_DATASET, A={"format": "csr", "shape": 3, "values": [], "indices": [],
                       "indptr": [0]}), "'A.shape'"),
    (dict(_DATASET, **{"lambda": "0.01"}), "'lambda'"),
    (dict(_DATASET, truth=[[0.0]]), "'truth'"),
    (dict(_DATASET, params=[]), "'params'"),
], ids=["list-root", "scalar-matrix", "scalar-labels", "ragged-matrix",
        "scalar-csr-shape", "string-lambda", "2-d-truth", "list-params"])
def test_dataset_json_field_of_wrong_type_is_named(tmp_path, payload, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=named):
        load_dataset_json(path)
