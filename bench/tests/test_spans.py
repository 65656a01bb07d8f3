"""Self-time and count arithmetic on a synthetic span tree."""

import spans

# [name, start, end, parent, error]; times are exact binary fractions
TREE = [
    ["cli.main", 0.0, 10.0, -1, 0],
    ["boolfun.walsh", 1.0, 5.0, 0, 0],
    ["boolfun.fwht", 2.0, 3.0, 1, 0],
    ["gf2n.tables", 3.5, 4.0, 1, 0],
    ["boolfun.walsh", 6.0, 7.0, 0, 1],
    ["vectorial.degree", 7.0, 9.5, 0, 0],
    ["vectorial.degree", 8.0, 9.0, 5, 0],
]


def test_self_time_subtracts_children():
    stats = spans.summarize(TREE)
    assert stats["cli.main"]["self_s"] == 10.0 - 4.0 - 1.0 - 2.5
    assert stats["boolfun.walsh"]["self_s"] == (4.0 - 1.0 - 0.5) + 1.0
    assert stats["boolfun.walsh"]["calls"] == 2
    assert stats["vectorial.degree"]["self_s"] == 2.5


def test_inclusive_time_counts_recursion_once():
    assert spans.summarize(TREE)["vectorial.degree"]["s"] == 2.5


def test_layer_self_times_partition_the_root():
    metrics = spans.layer_metrics(TREE, {})
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == 10.0
    assert metrics["boolfun.self_s"] == 4.5
    assert metrics["gf2n.self_s"] == 0.5
    assert metrics["gf2n.first_call_s"] == 0.5


def test_walsh_computed_and_errors():
    metrics = spans.layer_metrics(TREE, {})
    assert metrics["boolfun.walsh.calls"] == 2
    assert metrics["boolfun.walsh.computed"] == 1
    assert metrics["boolfun.errors"] == 1
    assert metrics["cli.errors"] == 0


def test_overlapping_children_are_covered_once():
    assert spans._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.75)]) == 4.0


def test_unused_component_layer_reports_no_waste():
    metrics = spans.layer_metrics(TREE, {})
    assert metrics["vectorial.component.calls"] == 0
    assert metrics["vectorial.component.useful_ratio"] == 1.0
