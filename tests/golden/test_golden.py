"""Golden trajectories: the matrices of ``regen.py`` rerun to their stored
records.  Iteration counts, stop reasons, first hits and the per-iteration
backtracks, restart and gate flags match exactly; F, L, beta, the reference
values and the final x within ``regen.RTOL`` relative.  Reference iteration
counts and stop reasons match exactly too.  After a change that moves a
trajectory on purpose, ``python tests/golden/regen.py`` rewrites the files."""

import json

import pytest
import regen

GOLDEN = regen.load(regen.LOGISTIC)


@pytest.fixture(scope="module")
def fresh():
    return regen.record(regen.LOGISTIC_CONFIG)


def test_golden_file_holds_its_config():
    assert GOLDEN["config"] == json.loads(json.dumps(regen.LOGISTIC_CONFIG))


def test_references_match(fresh):
    assert [r["seed"] for r in fresh["references"]] == \
        [r["seed"] for r in GOLDEN["references"]]
    for new, old in zip(fresh["references"], GOLDEN["references"]):
        assert (new["iterations"], new["stop_reason"]) == \
            (old["iterations"], old["stop_reason"]), new["seed"]
        dev = regen.relative_deviation(new["value"], old["value"])
        assert dev <= regen.RTOL, f"seed {new['seed']}: reference deviates by {dev:.3g}"


@pytest.mark.parametrize("index", range(len(GOLDEN["cells"])),
                         ids=[f"{c['solver']}-{c['seed']}" for c in GOLDEN["cells"]])
def test_cell_matches(fresh, index):
    assert len(fresh["cells"]) == len(GOLDEN["cells"])
    new, old = fresh["cells"][index], GOLDEN["cells"][index]
    assert (new["solver"], new["seed"]) == (old["solver"], old["seed"])
    for key in regen.EXACT:
        assert new[key] == old[key], key
    for key in regen.CLOSE:
        dev = regen.close_deviation(key, new[key], old[key])
        assert dev <= regen.RTOL, f"{key} deviates by {dev:.3g}"
