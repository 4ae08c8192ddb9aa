import numpy as np
import pytest

from oracles import held
from twinbeam import PumpCorrelation, sample_stream
from twinbeam import models


@pytest.fixture(scope="session")
def nominal():
    return models.NOMINAL_PARAMS, models.NOMINAL_SIGNAL, models.NOMINAL_IDLER


@pytest.fixture(scope="session")
def stream_1m(nominal):
    """One million uncorrelated windows at the nominal parameters, drawn once."""
    params, spec_s, spec_i = nominal
    return held(sample_stream(params, spec_s, spec_i,
                              PumpCorrelation(0.0, 10_000), 1_000_000,
                              seed=1234))


def rng(seed=0):
    return np.random.default_rng(seed)
