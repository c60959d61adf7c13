"""Tests for metric resolution: the four metrics and their aliases."""

import numpy as np
import pytest

from repro.distances import available_metrics, get_metric
from repro.exceptions import UnknownMetricError


class TestRegistry:
    def test_all_paper_metrics_registered(self):
        assert available_metrics() == ["cosine", "hamming", "l1", "l2"]

    @pytest.mark.parametrize(
        "alias,canonical",
        [("euclidean", "l2"), ("manhattan", "l1"), ("cityblock", "l1"), ("angular", "cosine")],
    )
    def test_aliases(self, alias, canonical):
        assert get_metric(alias).name == canonical

    def test_case_insensitive(self):
        assert get_metric("L2").name == "l2"

    def test_unknown_raises(self):
        with pytest.raises(UnknownMetricError):
            get_metric("chebyshev")
        with pytest.raises(UnknownMetricError, match="known metrics: cosine, hamming, l1, l2"):
            get_metric("jaccard")

    def test_metric_passthrough(self):
        metric = get_metric("l2")
        assert get_metric(metric) is metric

    def test_metric_is_callable(self):
        metric = get_metric("l2")
        assert metric(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_distances_to(self):
        metric = get_metric("l1")
        points = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = metric.distances_to(points, np.array([0.0, 0.0]))
        assert out.tolist() == [0.0, 2.0]
