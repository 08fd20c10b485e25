import pickle

import pytest

from fusecast import errors
from fusecast.explain import ExplainConfig
from fusecast.nn import ModelConfig
from fusecast.series import SynthSpec
from fusecast.train import TrainConfig

ERRORS = sorted((c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.FusecastError)),
                key=lambda c: c.__name__)

# errors whose constructor takes more than a message
CUSTOM = {
    errors.ParseError: lambda: errors.ParseError(4, "could not parse 'x' as a float"),
    errors.NonMonotoneTimestamps: lambda: errors.NonMonotoneTimestamps(4),
    errors.NonFiniteValue: lambda: errors.NonFiniteValue(4),
    errors.ObjectiveFailure: lambda: errors.ObjectiveFailure(
        3, errors.DivergedLoss("non-finite training loss at step 2")),
}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_pickle_round_trip(cls):
    exc = CUSTOM.get(cls, lambda: cls("something went wrong"))()
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for name in ("row", "trial"):
        assert getattr(back, name, None) == getattr(exc, name, None)
    if hasattr(exc, "cause"):
        assert type(back.cause) is type(exc.cause)
        assert str(back.cause) == str(exc.cause)


def test_every_custom_constructor_is_covered():
    custom = {c for c in ERRORS if "__init__" in vars(c)}
    assert custom == set(CUSTOM)


@pytest.mark.parametrize("make", [
    lambda seed: ModelConfig(w=8, seed=seed),
    lambda seed: TrainConfig(seed=seed),
    lambda seed: ExplainConfig(seed=seed),
    lambda seed: SynthSpec(length=20, period=5, seed=seed)],
    ids=["ModelConfig", "TrainConfig", "ExplainConfig", "SynthSpec"])
def test_negative_seed_is_invalid_spec(make):
    # numpy's generators would raise a bare ValueError on first use
    with pytest.raises(errors.InvalidSpec, match=r"seed must be >= 0, got -1"):
        make(-1)
    make(0)
