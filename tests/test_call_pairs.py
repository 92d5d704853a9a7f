"""The per-call summary of ``scripts/call_pairs.py`` on synthetic rounds."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "call_pairs.py"


@pytest.fixture(scope="module")
def call_pairs():
    spec = importlib.util.spec_from_file_location("call_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rounds(a, b, faults_a=0, faults_b=0):
    """One sample per round: a's and b's (seconds, minor faults)."""
    return [{"a": (x, faults_a), "b": (y, faults_b)} for x, y in zip(a, b)]


def test_ratio_is_the_median_of_b_over_a(call_pairs):
    # per-round ratios 0.5, 0.8, 0.9, 1.2, 2.0: the median is 0.9, not the
    # ratio of the medians (0.9 / 1.0) or of the means
    a = [2.0, 1.0, 1.0, 1.0, 0.5]
    b = [1.0, 0.8, 0.9, 1.2, 1.0]
    out = call_pairs.summarise({"call": rounds(a, b)})["call"]
    assert out["ratio"] == pytest.approx(0.9)
    assert out["rounds"] == 5


def test_wins_count_rounds_b_was_faster_and_ties_for_neither(call_pairs):
    a = [1.0, 1.0, 1.0, 1.0]
    b = [0.9, 1.0, 1.1, 0.5]
    out = call_pairs.summarise({"call": rounds(a, b)})["call"]
    assert out["b_wins"] == 2


def test_faults_are_each_sides_median(call_pairs):
    samples = rounds([1.0] * 3, [1.0] * 3)
    for r, (fa, fb) in zip(samples, [(10, 0), (1000, 2), (30, 1)]):
        r["a"], r["b"] = (1.0, fa), (1.0, fb)
    out = call_pairs.summarise({"call": samples})["call"]
    assert (out["faults_a"], out["faults_b"]) == (30, 1)


def test_one_entry_per_call_in_order(call_pairs):
    samples = {"martin_profile": rounds([1.0], [0.8]),
               "twisted_green_4": rounds([2.0], [1.0])}
    out = call_pairs.summarise(samples)
    assert list(out) == ["martin_profile", "twisted_green_4"]
    assert out["twisted_green_4"]["ratio"] == 0.5
    assert out["martin_profile"]["b_wins"] == 1
