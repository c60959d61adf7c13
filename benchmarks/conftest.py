"""Shared fixtures for the benchmark harness.

Dataset sizes are laptop-scale (the paper used 60k-581k points; we
default to 12,000 so the full suite regenerates every table and figure
in minutes).  The *shape* conclusions — who wins at which radius, where
the crossover falls, how the %linear-calls curve grows — are scale-free
because both sides of the Algorithm 2 comparison scale linearly in n.

Set the environment variable ``REPRO_BENCH_N`` to run larger instances.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import corel_like, covertype_like, mnist_like, webspam_like

BENCH_N = int(os.environ.get("REPRO_BENCH_N", "12000"))
NUM_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "50"))
NUM_TABLES = int(os.environ.get("REPRO_BENCH_TABLES", "50"))
REPEATS = int(os.environ.get("REPRO_BENCH_REPEATS", "2"))


@pytest.fixture(scope="session")
def webspam_bench():
    return webspam_like(n=BENCH_N, seed=0)


@pytest.fixture(scope="session")
def corel_bench():
    return corel_like(n=BENCH_N, seed=0)


@pytest.fixture(scope="session")
def covertype_bench():
    return covertype_like(n=BENCH_N, seed=0)


@pytest.fixture(scope="session")
def mnist_bench():
    return mnist_like(n=BENCH_N, seed=0)
