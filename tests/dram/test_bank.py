"""Row-buffer state machine tests."""

import pytest

from repro.common.config import default_system
from repro.dram.bank import BankArray


@pytest.fixture
def banks():
    return BankArray(default_system().in_package)


def test_first_access_is_row_empty(banks):
    latency, activations = banks.access(page_number=0)
    assert activations == 1
    assert latency == pytest.approx(banks.timing.row_empty_ns(64))
    assert banks.row_empties == 1


def test_second_access_same_page_row_hits(banks):
    banks.access(0)
    latency, activations = banks.access(0)
    assert activations == 0
    assert latency == pytest.approx(banks.timing.row_hit_ns(64))
    assert banks.row_hits == 1


def test_conflicting_page_row_misses(banks):
    total = banks.timing.total_banks
    banks.access(0)
    # Same bank, different row.
    latency, activations = banks.access(total)
    assert activations == 1
    assert latency == pytest.approx(banks.timing.row_miss_ns(64))
    assert banks.row_misses == 1


def test_different_banks_do_not_conflict(banks):
    banks.access(0)
    latency, activations = banks.access(1)  # different bank
    assert activations == 1
    assert latency == pytest.approx(banks.timing.row_empty_ns(64))


def test_bank_mapping_is_modulo(banks):
    total = banks.timing.total_banks
    assert banks.bank_of_page(0) == banks.bank_of_page(total)
    assert banks.bank_of_page(1) != banks.bank_of_page(0)


def test_precharge_all_closes_rows(banks):
    banks.access(0)
    banks.precharge_all()
    __, activations = banks.access(0)
    assert activations == 1
    assert banks.row_empties == 2


def test_row_hit_rate(banks):
    assert banks.row_hit_rate() == 0.0
    banks.access(0)
    banks.access(0)
    assert banks.row_hit_rate() == pytest.approx(0.5)


def test_latency_ordering():
    """row hit < row empty < row miss, always."""
    timing = default_system().off_package
    assert timing.row_hit_ns(64) < timing.row_empty_ns(64)
    assert timing.row_empty_ns(64) < timing.row_miss_ns(64)
