import pytest

import dks
from dks import data_io, estimation, kernels, risk, simulation


@pytest.mark.parametrize("module", [estimation, kernels, risk, simulation, data_io], ids=lambda m: m.__name__)
def test_every_public_name_is_exported_by_the_package(module):
    missing = [name for name in module.__all__ if getattr(dks, name, None) is not getattr(module, name)]
    assert not missing, f"{module.__name__} names missing from dks: {missing}"
