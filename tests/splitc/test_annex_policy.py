"""Unit tests for Annex management policies (paper section 3.4)."""

import pytest

from repro.params import AnnexParams
from repro.shell.annex import DtbAnnex, ReadMode
from repro.splitc.annex_policy import MultiAnnexPolicy, SingleAnnexPolicy


@pytest.fixture
def annex():
    return DtbAnnex(AnnexParams(), my_pe=0)


def test_single_conservative_reloads_every_access(annex):
    policy = SingleAnnexPolicy()
    _, c1 = policy.setup(annex, 3)
    _, c2 = policy.setup(annex, 3)
    assert c1 == c2 == pytest.approx(23.0)


def test_single_optimized_skips_unchanged(annex):
    policy = SingleAnnexPolicy(skip_when_unchanged=True)
    index, c1 = policy.setup(annex, 3)
    index2, c2 = policy.setup(annex, 3)
    assert c1 == pytest.approx(23.0)
    assert c2 == 0.0
    assert index == index2 == 1
    _, c3 = policy.setup(annex, 4)
    assert c3 == pytest.approx(23.0)


def test_local_pe_uses_entry_zero_for_free(annex):
    policy = SingleAnnexPolicy()
    index, cycles = policy.setup(annex, 0)
    assert index == 0
    assert cycles == 0.0


def test_single_never_creates_remote_synonyms(annex):
    policy = SingleAnnexPolicy()
    for pe in [1, 2, 3, 2, 1]:
        policy.setup(annex, pe)
    groups = annex.synonym_groups()
    # Unconfigured entries all name PE 0 (local); no *remote* PE is
    # named by two entries.
    assert all(pe == 0 for pe in groups)


def test_single_mode_change_forces_reload(annex):
    policy = SingleAnnexPolicy(skip_when_unchanged=True)
    policy.setup(annex, 3, ReadMode.UNCACHED)
    _, cycles = policy.setup(annex, 3, ReadMode.CACHED)
    assert cycles == pytest.approx(23.0)


def test_multi_hit_pays_only_table_lookup(annex):
    policy = MultiAnnexPolicy(num_registers=4)
    _, miss = policy.setup(annex, 5)
    assert miss == pytest.approx(10.0 + 23.0)
    _, hit = policy.setup(annex, 5)
    assert hit == pytest.approx(10.0)


def test_multi_saving_is_small():
    """The paper's point: a table hit saves only 13 cycles over a
    plain reload (23 - 10)."""
    annex = DtbAnnex(AnnexParams(), my_pe=0)
    policy = MultiAnnexPolicy(num_registers=4)
    _, miss = policy.setup(annex, 5)
    _, hit = policy.setup(annex, 5)
    single = SingleAnnexPolicy()
    _, reload_cost = single.setup(annex, 5)
    assert reload_cost - hit == pytest.approx(13.0)
    # Small next to the 23-cycle reload it avoids (table T2).
    assert reload_cost - hit < 23.0


def test_multi_replacement_cycles_registers(annex):
    policy = MultiAnnexPolicy(num_registers=2)
    i1, _ = policy.setup(annex, 1)
    i2, _ = policy.setup(annex, 2)
    assert {i1, i2} == {1, 2}
    i3, cycles = policy.setup(annex, 3)     # evicts PE 1's register
    assert i3 == i1
    _, again = policy.setup(annex, 1)       # PE 1 must reload
    assert again == pytest.approx(33.0)


def test_multi_flagged_as_synonym_risk():
    assert MultiAnnexPolicy.synonym_risk
    assert not SingleAnnexPolicy.synonym_risk


def test_multi_reset(annex):
    policy = MultiAnnexPolicy()
    policy.setup(annex, 5)
    policy.reset()
    _, cycles = policy.setup(annex, 5)
    assert cycles == pytest.approx(33.0)    # cold again


def test_multi_validates_registers():
    with pytest.raises(ValueError):
        MultiAnnexPolicy(num_registers=0)


def test_os_managed_first_touch_faults_then_free(annex):
    from repro.splitc.annex_policy import OsManagedAnnexPolicy

    policy = OsManagedAnnexPolicy()
    index, fault = policy.setup(annex, 7)
    assert fault == pytest.approx(3_750.0)
    index2, hit = policy.setup(annex, 7)
    assert hit == 0.0 and index2 == index
    assert policy.faults == 1


def test_os_managed_amortizes_but_faults_dominate_scattered(annex):
    """The footnote-2 trade-off in one place: repeated access to a few
    processors is free after the first touch, but touching more
    processors than the Annex holds faults every time."""
    from repro.splitc.annex_policy import OsManagedAnnexPolicy

    few = OsManagedAnnexPolicy(num_registers=4)
    total_few = sum(few.setup(annex, 1 + (i % 2))[1] for i in range(100))
    assert total_few == pytest.approx(2 * 3_750.0)   # two first touches

    scattered = OsManagedAnnexPolicy(num_registers=4)
    total_scattered = sum(scattered.setup(annex, 1 + (i % 8))[1]
                          for i in range(100))
    # Eight live processors round-robin through four slots: every
    # access faults.  Compare: the compiler-managed reload would cost
    # 23 cycles/access.
    assert total_scattered == pytest.approx(100 * 3_750.0)
    assert total_scattered > 100 * 23.0


def test_os_managed_local_pe_never_faults(annex):
    from repro.splitc.annex_policy import OsManagedAnnexPolicy

    policy = OsManagedAnnexPolicy()
    index, cost = policy.setup(annex, annex.my_pe)
    assert (index, cost) == (0, 0.0)
    assert policy.faults == 0


def test_os_managed_reset(annex):
    from repro.splitc.annex_policy import OsManagedAnnexPolicy

    policy = OsManagedAnnexPolicy()
    policy.setup(annex, 5)
    policy.reset()
    _, cost = policy.setup(annex, 5)
    assert cost == pytest.approx(3_750.0)
