"""Dataset input/output and synthetic instance generators.

Covers the plain-text sparse classification format (one sample per line,
``<label> <index>:<value> ...`` with 1-based indices), a self-describing JSON
container for generated instances, seeded counter-based random generation,
and exact Poisson sampling used to synthesize count data.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .logreg import LogRegData, _issparse
from .poisson import PoissonCsData

Array = np.ndarray


class ParseError(ValueError):
    """Malformed dataset file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def make_rng(rng) -> np.random.Generator:
    """A Generator as is; an int seed as the counter-based Philox generator
    of that seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.Generator(np.random.Philox(int(rng)))


# --- sparse classification text format -------------------------------------

def read_libsvm(path, n_features: int | None = None):
    """Parse the sparse text format into a CSR matrix and a label vector.

    Indices are 1-based in the file and 0-based in the returned matrix;
    labels are mapped to {-1, +1} (nonpositive labels, including the 0 of
    0/1-labeled files, become -1).  The feature count is the largest index
    seen unless ``n_features`` overrides it.  Duplicate indices within a line,
    malformed tokens and indices above ``n_features`` raise ParseError with
    the line number.
    """
    import scipy.sparse as sp  # deferred: only sparse inputs need scipy

    cap = None if n_features is None else int(n_features)
    labels = []
    indptr = [0]
    indices = []
    values = []
    max_index = 0
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"bad label {tokens[0]!r}", line_no) from None
            labels.append(1.0 if label > 0.0 else -1.0)
            seen = set()
            pairs = []
            for tok in tokens[1:]:
                idx_s, _, val_s = tok.partition(":")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ParseError(f"bad feature token {tok!r}", line_no) from None
                if idx < 1:
                    raise ParseError(f"feature index {idx} is not positive", line_no)
                if idx in seen:
                    raise ParseError(f"duplicate feature index {idx}", line_no)
                if cap is not None and idx > cap:
                    raise ParseError(f"feature index {idx} exceeds n_features {cap}",
                                     line_no)
                seen.add(idx)
                pairs.append((idx, val))
                max_index = max(max_index, idx)
            pairs.sort()  # column indices sorted within each row
            indices.extend(idx - 1 for idx, _ in pairs)
            values.extend(val for _, val in pairs)
            indptr.append(len(indices))
    A = sp.csr_matrix((np.asarray(values, dtype=float),
                       np.asarray(indices, dtype=np.int32),
                       np.asarray(indptr, dtype=np.int32)),
                      shape=(len(labels), max_index if cap is None else cap))
    return A, np.asarray(labels, dtype=float)


def write_libsvm(path, A, labels) -> None:
    """Write a matrix and {-1,+1} labels in the sparse text format."""
    import scipy.sparse as sp

    A = sp.csr_matrix(A)
    labels = np.asarray(labels)
    with open(path, "w", encoding="ascii") as fh:
        for i in range(A.shape[0]):
            row = A.getrow(i)
            feats = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(row.indices, row.data))
            label = "+1" if labels[i] > 0 else "-1"
            fh.write(f"{label} {feats}".rstrip() + "\n")


# --- exact Poisson sampling -------------------------------------------------

_PTRS_CUTOVER = 30.0


def poisson_sample(mean: float, rng: np.random.Generator) -> int:
    """One exact Poisson variate with the given mean.

    Sequential-search inversion below mean 30; transformed-rejection
    (PTRS-style) above, where inversion would need too many terms.  The
    generator is consumed as a uniform source only.
    """
    if mean < 0.0 or not math.isfinite(mean):
        raise ValueError("mean must be finite and nonnegative")
    if mean == 0.0:
        return 0
    if mean < _PTRS_CUTOVER:
        return _poisson_inversion(mean, rng)
    return _poisson_ptrs(mean, rng)


def _poisson_inversion(mean: float, rng: np.random.Generator) -> int:
    x = 0
    p = math.exp(-mean)
    s = p
    u = rng.random()
    while u > s:
        x += 1
        p *= mean / x
        s += p
    return x


def _poisson_ptrs(mean: float, rng: np.random.Generator) -> int:
    # Hormann's transformed rejection with squeeze; valid for mean >= 10.
    slam = math.sqrt(mean)
    loglam = math.log(mean)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= vr:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                <= k * loglam - mean - math.lgamma(k + 1.0)):
            return int(k)


# --- synthetic instances -----------------------------------------------------

def gen_logreg(m: int, n: int, sparsity_of_truth: float = 0.1,
               noise_rate: float = 0.0, rng=0, *, lam: float = 1e-3,
               scale_decades: float = 2.0) -> tuple[LogRegData, Array]:
    """Synthetic classification data with heterogeneous feature scales.

    Features are Gaussian with per-column scales drawn log-uniformly over
    ``scale_decades`` decades below 1 (badly scaled columns are what makes
    diagonal scaling worthwhile; pass 0 for isotropic columns).  Labels are
    sign(<a_i, w*>) for a sparse planted w*, flipped independently with
    probability ``noise_rate``.  Pure function of its parameters and seed.
    """
    if m < 1 or n < 1:
        raise ValueError("need at least one sample and one feature")
    if not 0.0 <= noise_rate <= 1.0:
        raise ValueError("noise_rate must lie in [0, 1]")
    if not 0.0 < sparsity_of_truth <= 1.0:
        raise ValueError("sparsity_of_truth must lie in (0, 1]")
    gen = make_rng(rng)
    scales = 10.0 ** gen.uniform(-scale_decades, 0.0, size=n)
    A = gen.standard_normal((m, n))
    A *= scales
    k = max(1, round(sparsity_of_truth * n))
    support = gen.choice(n, size=k, replace=False)
    w = np.zeros(n)
    w[support] = gen.standard_normal(k)
    margins = A @ w
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    flips = gen.random(m) < noise_rate
    labels[flips] *= -1.0
    return LogRegData(A=A, b=labels, lam=lam), w


def gen_poisson_cs(n: int = 5000, m: int = 1000, k_nonzeros: int = 20,
                   amp_max: float = 1e5, p: float = 0.9, bg: float = 1e-10,
                   rng=0, *, lam: float = 1e-3) -> tuple[PoissonCsData, Array]:
    """Synthetic photon-count sensing instance with a flux-preserving matrix.

    The sensing matrix starts from Bernoulli(p) entries; every column is then
    divided by its nonzero count (empty columns get one forced entry first),
    so all column sums are exactly 1 and for any x >= 0 both
    (A x)_i <= sum(x) and sum(A x) = sum(x) hold.  The truth has
    ``k_nonzeros`` spikes uniform on [0, amp_max]; counts are exact Poisson
    draws with mean A x_true + bg.  Pure function of its parameters and seed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if k_nonzeros < 0 or k_nonzeros > n:
        raise ValueError("k_nonzeros must lie in [0, n]")
    gen = make_rng(rng)
    mask = gen.random((m, n)) < p
    empty = ~mask.any(axis=0)
    for j in np.nonzero(empty)[0]:
        mask[gen.integers(m), j] = True
    counts = mask.sum(axis=0)
    A = mask / counts
    x_true = np.zeros(n)
    support = gen.choice(n, size=k_nonzeros, replace=False)
    x_true[support] = gen.uniform(0.0, amp_max, size=k_nonzeros)
    mean = A @ x_true + bg
    b = np.array([poisson_sample(mu, gen) for mu in mean], dtype=float)
    return PoissonCsData(A=A, b=b, bg=bg, lam=lam), x_true


def resample_counts(data: PoissonCsData, x_true: Array, rng) -> PoissonCsData:
    """New count realization for the same sensing matrix and truth."""
    gen = make_rng(rng)
    mean = data.A @ x_true + data.bg
    b = np.array([poisson_sample(mu, gen) for mu in mean], dtype=float)
    return PoissonCsData(A=data.A, b=b, bg=data.bg, lam=data.lam)


# --- self-describing JSON container ------------------------------------------

def save_dataset_json(path, kind: str, data, truth: Array,
                      params: dict | None = None) -> None:
    """Serialize a generated instance with enough metadata to rebuild it."""
    payload: dict = {"kind": kind, "params": params or {}}
    if kind == "logreg":
        A = data.A
        if _issparse(A):
            A = A.tocsr()
            payload["A"] = {"format": "csr", "shape": list(A.shape),
                            "indptr": A.indptr.tolist(),
                            "indices": A.indices.tolist(),
                            "values": A.data.tolist()}
        else:
            payload["A"] = {"format": "dense", "values": np.asarray(A).tolist()}
        payload["labels"] = data.b.tolist()
        payload["lambda"] = data.lam
    elif kind == "poisson-cs":
        payload["A"] = {"format": "dense", "values": data.A.tolist()}
        payload["counts"] = data.b.tolist()
        payload["bg"] = data.bg
        payload["lambda"] = data.lam
    else:
        raise ValueError(f"unknown dataset kind: {kind!r}")
    payload["truth"] = np.asarray(truth).tolist()
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)


def _array(value, name: str, ndim: int, dtype=float) -> Array:
    """A JSON list as an ndim-d array, or a ValueError naming the field."""
    try:
        arr = np.asarray(value, dtype=dtype) if isinstance(value, list) else None
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim:
        raise ValueError(f"dataset field {name!r} must be a {ndim}-d list of numbers")
    return arr


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"dataset field {name!r} must be a number")
    return float(value)


def _matrix_from_payload(spec):
    if not isinstance(spec, dict):
        raise ValueError("dataset field 'A' must be an object")
    if spec["format"] == "dense":
        return _array(spec["values"], "A.values", 2)
    if spec["format"] == "csr":
        import scipy.sparse as sp

        return sp.csr_matrix((_array(spec["values"], "A.values", 1),
                              _array(spec["indices"], "A.indices", 1, np.int32),
                              _array(spec["indptr"], "A.indptr", 1, np.int32)),
                             shape=tuple(_array(spec["shape"], "A.shape", 1, int)))
    raise ValueError(f"unknown matrix format: {spec['format']!r}")


def load_dataset_json(path):
    """Inverse of save_dataset_json: returns (kind, data, truth, params).

    A field of the wrong JSON type is a ValueError that names it.
    """
    with open(path, "r", encoding="ascii") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError("dataset JSON must hold an object")
    kind = payload["kind"]
    truth = _array(payload["truth"], "truth", 1)
    params = payload.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("dataset field 'params' must be an object")
    if kind == "logreg":
        data = LogRegData(A=_matrix_from_payload(payload["A"]),
                          b=_array(payload["labels"], "labels", 1),
                          lam=_number(payload["lambda"], "lambda"))
    elif kind == "poisson-cs":
        data = PoissonCsData(A=_matrix_from_payload(payload["A"]),
                             b=_array(payload["counts"], "counts", 1),
                             bg=_number(payload["bg"], "bg"),
                             lam=_number(payload["lambda"], "lambda"))
    else:
        raise ValueError(f"unknown dataset kind: {kind!r}")
    return kind, data, truth, params
