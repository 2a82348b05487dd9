"""The shape of the paper's Table 2, rows A1-A4 (single IP) and B, C (GEM).

Each row runs the scenario twice (paper DPM and always-on baseline).  The
bounds encode the *shape* of the paper's results, not its exact
percentages: this is an abstract simulator, not the authors' SystemC
models.  The paper's own figures are in each test's docstring as
saving / temperature reduction / delay.
"""

from repro.experiments import run_comparison


def row(name):
    """One Table 2 row: the paper DPM against the always-on baseline."""
    return run_comparison(name)


def test_table2_row_a1():
    """A1: battery Full, temperature Low (paper: 39 % / 31 % / 30 %)."""
    metrics = row("A1")
    assert 25.0 < metrics.energy_saving_pct < 60.0
    assert metrics.average_delay_overhead_pct < 80.0
    assert metrics.temperature_reduction_pct > 10.0


def test_table2_row_a2():
    """A2: battery Low, temperature Low (paper: 55 % / 21 % / 339 %)."""
    metrics = row("A2")
    assert metrics.energy_saving_pct > 45.0
    assert 250.0 < metrics.average_delay_overhead_pct < 450.0


def test_table2_row_a3():
    """A3: battery Full, temperature High (paper: 39 % / 18 % / 37 %)."""
    metrics = row("A3")
    assert 25.0 < metrics.energy_saving_pct < 60.0
    assert metrics.average_delay_overhead_pct < 120.0


def test_table2_row_a4():
    """A4: battery Low, temperature High (paper: 55 % / 18 % / 339 %)."""
    metrics = row("A4")
    assert metrics.energy_saving_pct > 45.0
    assert 250.0 < metrics.average_delay_overhead_pct < 450.0


def test_table2_low_battery_tradeoff():
    """The headline trade-off of rows A1 vs A2: more saving, much more delay."""
    a1, a2 = row("A1"), row("A2")
    assert a2.energy_saving_pct > a1.energy_saving_pct + 10.0
    assert a2.average_delay_overhead_pct > 5.0 * a1.average_delay_overhead_pct


def test_table2_row_b():
    """B: GEM + 4 IPs, busy high-priority IPs (paper: 65 % / 19 % / 242 %)."""
    metrics = row("B")
    assert metrics.energy_saving_pct > 50.0
    assert 150.0 < metrics.average_delay_overhead_pct < 600.0
    assert len(metrics.per_ip) == 4
    assert all(stats["tasks"] > 0 for stats in metrics.per_ip.values())


def test_table2_row_c():
    """C: GEM + 4 IPs, busy low-priority IPs (paper: 64 % / 18 % / 253 %)."""
    metrics = row("C")
    assert metrics.energy_saving_pct > 50.0
    assert 150.0 < metrics.average_delay_overhead_pct < 600.0


def test_table2_gem_rows_save_more_than_single_ip():
    """B/C reach the largest savings of Table 2 (they combine GEM gating,
    low-battery DVFS and four sleeping IPs)."""
    a1, b, c = row("A1"), row("B"), row("C")
    for metrics in (b, c):
        assert metrics.energy_saving_pct > a1.energy_saving_pct
    assert abs(b.energy_saving_pct - c.energy_saving_pct) < 15.0
