"""Energy accounting tests against Table 4 arithmetic."""

import pytest

from repro.common.config import DRAMEnergyConfig
from repro.dram.energy import EnergyAccount


@pytest.fixture
def account():
    return EnergyAccount(
        DRAMEnergyConfig(
            io_pj_per_bit=20.0,
            rw_pj_per_bit=13.0,
            act_pre_nj=15.0,
            background_watts=1.0,
        )
    )


def test_charge_read(account):
    nj = account.charge(64, activations=0, is_write=False)
    # 512 bits * 33 pJ/b = 16.896 nJ
    assert nj == pytest.approx(16.896)
    assert account.read_bytes == 64
    assert account.write_bytes == 0


def test_charge_write_with_activation(account):
    nj = account.charge(64, activations=1, is_write=True)
    assert nj == pytest.approx(16.896 + 15.0)
    assert account.write_bytes == 64
    assert account.activations == 1


def test_charges_accumulate(account):
    account.charge(64, 0, False)
    account.charge(64, 1, True)
    assert account.dynamic_nj == pytest.approx(2 * 16.896 + 15.0)


def test_charge_with_hoisted_energy_matches_computed(account):
    hoisted = account.config.access_nj(64, 1)
    nj = account.charge(64, 1, True, hoisted)
    assert nj == hoisted
    reference = EnergyAccount(account.config)
    reference.charge(64, 1, True)
    assert account.as_dict() == reference.as_dict()


def test_background_energy_watts_times_ns(account):
    # 1 W for 1000 ns = 1000 nJ (W * ns == nJ).
    assert account.background_nj(1000.0) == pytest.approx(1000.0)


def test_total_includes_background(account):
    account.charge(64, 0, False)
    assert account.total_nj(100.0) == pytest.approx(16.896 + 100.0)


def test_as_dict(account):
    account.charge(128, 2, False)
    d = account.as_dict("x_")
    assert d["x_read_bytes"] == 128.0
    assert d["x_activations"] == 2.0
    assert d["x_dynamic_nj"] > 0
