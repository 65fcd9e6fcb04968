"""Baseline algorithms the paper compares against, plus the brute-force oracle."""

from .biclique import enumerate_maximal_bicliques, is_biclique
from .bruteforce import enumerate_mbps_bruteforce
from .faplexen import FaPlexenPipeline, InflationStats, enumerate_mbps_inflation
from .imb import IMB, enumerate_mbps_imb
from .kplex import enumerate_maximal_kplexes, is_maximal_kplex
from .quasi_biclique import find_quasi_bicliques_greedy, is_quasi_biclique, quasi_biclique_seed_k

__all__ = [
    "enumerate_mbps_bruteforce",
    "IMB",
    "enumerate_mbps_imb",
    "enumerate_maximal_kplexes",
    "is_maximal_kplex",
    "FaPlexenPipeline",
    "InflationStats",
    "enumerate_mbps_inflation",
    "enumerate_maximal_bicliques",
    "is_biclique",
    "is_quasi_biclique",
    "find_quasi_bicliques_greedy",
    "quasi_biclique_seed_k",
]
