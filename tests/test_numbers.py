"""Numbers from outside follow one rule, kept in ``qcore``: an integer is an
int or a numpy integer, never a bool, float or string; a real is finite and
not a bool; no array holds a boolean.  Each site that reads such a number
refuses the same bad values with a ValidationError."""

import math

import numpy as np
import pytest

from wiretap.channels import CqEnsemble, classical_channel
from wiretap.codesim import code_parameters, run_experiment, sample_codebook
from wiretap.measures import dense_coding_advantage, entanglement_of_purification
from wiretap.optimize import OptimizerConfig
from wiretap.qcore import (
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    basis_state,
    complex_matrix_from_json,
    maximally_entangled,
)
from wiretap.rates import classical_embed
from wiretap.scenario import gallery_classical

BELL = maximally_entangled("A", "B", 2)
TINY = OptimizerConfig(seed=1, restarts=1, max_iters=1)
BIT = LabeledSpace.of(("X", 2))
BOOLS = np.array([True])

INTEGERS = [2.5, 2.0, True, "3", None, math.nan, BOOLS]
REALS = [True, "3", None, math.nan, BOOLS]
INTEGER_OR_NONE = INTEGERS[:4] + INTEGERS[5:]  # None means "the default" there


def _code(**kw):
    sc = gallery_classical()
    args = {"n": 2, "epsilon": 0.1, "rate": None} | kw
    return code_parameters(sc.ensemble, sc.channel, sc.resource_state(), **args)


def _codebook(**kw):
    args = {"n": 2, "M": 2, "S": 2, "seed": 1} | kw
    return sample_codebook(gallery_classical().ensemble, **args)


def _experiment(**kw):
    args = {"n_list": [1], "epsilon": 0.1, "trials": 1, "seed": 1, "rate": None} | kw
    return run_experiment(gallery_classical(), **args)


SCALAR_SITES = {
    "LabeledSpace": (lambda v: LabeledSpace.of(("A", v)), INTEGERS),
    "OptimizerConfig.restarts": (lambda v: OptimizerConfig(seed=1, restarts=v), INTEGERS),
    "OptimizerConfig.num_labels_max": (
        lambda v: OptimizerConfig(seed=1, num_labels_max=v), INTEGER_OR_NONE
    ),
    "dim_a_cap": (lambda v: dense_coding_advantage(BELL, v, TINY), INTEGER_OR_NONE),
    "dim_f_cap": (lambda v: entanglement_of_purification(BELL, v, TINY), INTEGER_OR_NONE),
    "code_parameters.n": (lambda v: _code(n=v), INTEGERS),
    "code_parameters.epsilon": (lambda v: _code(epsilon=v), REALS),
    "code_parameters.rate": (lambda v: _code(rate=v), [v for v in REALS if v is not None]),
    "sample_codebook.n": (lambda v: _codebook(n=v), INTEGERS),
    "sample_codebook.seed": (lambda v: _codebook(seed=v), INTEGERS + [-1]),
    "run_experiment.n": (lambda v: _experiment(n_list=[v]), INTEGERS),
    "run_experiment.trials": (lambda v: _experiment(trials=v), INTEGERS),
    "run_experiment.seed": (lambda v: _experiment(seed=v), INTEGERS),
    "run_experiment.epsilon": (lambda v: _experiment(epsilon=v), REALS),
}

# Array sites: a valid argument whose first entry is replaced by each bad
# entry, and the same argument as a numpy bool array, which numpy would
# otherwise read as valid zeros and ones.
ARRAY_SITES = {
    "complex_matrix_from_json": (lambda m: complex_matrix_from_json(m, 1, 1), [[[1.0, 0.0]]]),
    "classical_embed": (classical_embed, [[[1.0]]]),
    "probabilities": (
        lambda p: CqEnsemble([0, 1], p, [basis_state(BIT, [0]), basis_state(BIT, [1])]),
        [1.0, 0.0],
    ),
    "classical_channel": (lambda t: classical_channel(t, BIT, BIT), [[1.0, 0.0], [0.0, 1.0]]),
}


def _label(value) -> str:
    return "bool-array" if isinstance(value, np.ndarray) else repr(value)


def _with_first_entry(template, entry):
    arr = np.array(template, dtype=object)
    arr.flat[0] = entry
    return arr.tolist()


CASES = [
    pytest.param(call, v, id=f"{site}-{_label(v)}")
    for site, (call, values) in SCALAR_SITES.items()
    for v in values
] + [
    pytest.param(call, arg, id=f"{site}-{label}")
    for site, (call, template) in ARRAY_SITES.items()
    for label, arg in [(f"entry-{_label(e)}", _with_first_entry(template, e)) for e in REALS[:4]]
    + [("bool-array", np.array(template, dtype=bool))]
]


@pytest.mark.parametrize("call, value", CASES)
def test_every_site_refuses_numbers_outside_the_rule(call, value):
    with pytest.raises(ValidationError):
        call(value)


def test_integers_are_stored_as_int():
    cfg = OptimizerConfig(seed=np.int64(1), restarts=np.int64(2))
    assert type(cfg.restarts) is int and type(cfg.seed) is int
    assert LabeledSpace.of(("A", np.int32(3))).factors == (("A", 3),)
    assert type(LabeledSpace.of(("A", np.int32(3))).dims[0]) is int


def test_numpy_block_lengths_are_checked_as_ints():
    # 2 ** np.int64(64) wraps to 0, which passed the dimension cap; as an
    # int the block length is refused there, before any byte estimate.
    with pytest.raises(ResourceLimitError, match="dimension cap"):
        run_experiment(gallery_classical(), np.array([64]), 0.1, trials=1, seed=1)
