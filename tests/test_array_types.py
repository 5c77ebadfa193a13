"""Types with array fields compare and hash by identity."""

import numpy as np
import pytest

from cwsep.cirm import NetworkOutput
from cwsep.filterbank import FilterBank
from cwsep.resunet import WeightStore
from cwsep.spectral import MagPhase
from cwsep.wave_io import Waveform

# each builds a new instance from new, equal arrays
BUILDERS = {
    "Waveform": lambda: Waveform(np.full((2, 8), 0.5), 44100),
    "FilterBank": lambda: FilterBank(4, np.full(64, 0.01)),
    "MagPhase": lambda: MagPhase(np.ones((2, 3, 4)), np.ones((2, 3, 4), np.complex64)),
    "NetworkOutput": lambda: NetworkOutput(*(np.zeros((2, 3, 4)) for _ in range(4))),
    "WeightStore": lambda: WeightStore("0", {"w": np.zeros(3, np.float32)}, {}),
}


@pytest.mark.parametrize("make", BUILDERS.values(), ids=BUILDERS.keys())
def test_equality_and_hash_are_identity(make):
    # == and hash never look at the array fields, so neither can raise;
    # contents are compared with np.array_equal
    x, y = make(), make()
    assert x == x and not x != x
    assert x != y and not x == y
    assert hash(x) == hash(x) and hash(x) != hash(y)
    assert x in {x} and y not in {x}
    assert x not in [y]
