"""Golden trajectories: the matrices of ``regen.py`` rerun to their stored
records.  Iteration counts, stop reasons, first hits and the per-iteration
backtracks, restart and gate flags match exactly; F, L, beta, the reference
values and the final x within ``regen.RTOL`` relative.  Reference iteration
counts and stop reasons match exactly too.  After a change that moves a
trajectory on purpose, ``python tests/golden/regen.py FILE`` rewrites a
file."""

import functools
import json

import numpy as np
import pytest
import regen

from dcprox import RunConfig, make_rng, resample_counts
from dcprox.bench import _setup

STORED = {path: regen.load(path) for path in regen.GOLDEN}
LOGISTIC = STORED[regen.LOGISTIC][0]
POISSON_LABELS = ("a7", "lowflux")  # the configs of poisson.json, in order


@functools.lru_cache(maxsize=None)
def fresh(path, index: int) -> dict:
    """Record ``index`` of ``path``, rerun once per session."""
    return regen.record(regen.GOLDEN[path][index])


def _check_references(new: dict, old: dict) -> None:
    assert [r["seed"] for r in new["references"]] == \
        [r["seed"] for r in old["references"]]
    for a, b in zip(new["references"], old["references"]):
        assert (a["iterations"], a["stop_reason"]) == \
            (b["iterations"], b["stop_reason"]), a["seed"]
        dev = regen.relative_deviation(a["value"], b["value"])
        assert dev <= regen.RTOL, f"seed {a['seed']}: reference deviates by {dev:.3g}"


def _check_cell(new_rec: dict, old_rec: dict, index: int) -> None:
    assert len(new_rec["cells"]) == len(old_rec["cells"])
    new, old = new_rec["cells"][index], old_rec["cells"][index]
    assert (new["solver"], new["seed"]) == (old["solver"], old["seed"])
    for key in regen.EXACT:
        assert new[key] == old[key], key
    for key in regen.CLOSE:
        dev = regen.close_deviation(key, new[key], old[key])
        assert dev <= regen.RTOL, f"{key} deviates by {dev:.3g}"


def test_golden_file_holds_its_config():
    for path, configs in regen.GOLDEN.items():
        assert [rec["config"] for rec in STORED[path]] == \
            json.loads(json.dumps(configs)), path.name


def test_references_match():
    _check_references(fresh(regen.LOGISTIC, 0), LOGISTIC)


@pytest.mark.parametrize("index", range(len(LOGISTIC["cells"])),
                         ids=[f"{c['solver']}-{c['seed']}" for c in LOGISTIC["cells"]])
def test_cell_matches(index):
    _check_cell(fresh(regen.LOGISTIC, 0), LOGISTIC, index)


@pytest.mark.parametrize("record", range(len(POISSON_LABELS)), ids=POISSON_LABELS)
def test_poisson_references_match(record):
    _check_references(fresh(regen.POISSON, record), STORED[regen.POISSON][record])


@pytest.mark.parametrize(
    "record,index",
    [(r, i) for r, rec in enumerate(STORED[regen.POISSON])
     for i in range(len(rec["cells"]))],
    ids=[f"{POISSON_LABELS[r]}-{c['solver']}-{c['seed']}"
         for r, rec in enumerate(STORED[regen.POISSON]) for c in rec["cells"]])
def test_poisson_cell_matches(record, index):
    _check_cell(fresh(regen.POISSON, record), STORED[regen.POISSON][record], index)


def test_poisson_configs_hold_both_count_paths():
    # acceptance 7 has no zero count, the low-flux matrix mostly zero
    # counts, so the file holds the KL value with and without its mask
    zeros = []
    for config in regen.GOLDEN[regen.POISSON]:
        cfg = RunConfig.from_dict(config)
        base = _setup(cfg)[0]
        zeros.append([int(np.sum(resample_counts(base.data, base.truth,
                                                 make_rng(seed)).b == 0.0))
                      for seed in cfg.seeds])
    assert zeros == [[0, 0], [44, 42]]
