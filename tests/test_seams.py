"""Guards for what the repo benchmark and the import footprint rely on.

``perfbench/`` traces a run by wrapping module attributes and methods of
``repro`` by name (``pbtrace.install``) and records machine facts through
``run.machine_facts``.  A renamed or deleted seam would only surface as a
crashing ``--trace 1`` run; these tests make it fail here instead.  The
import test pins that the package needs nothing beyond the standard
library at import time (numpy would cost every process its memory).
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ITraversal, paper_example_graph
from repro.service import QueryService

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(name: str):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    if name == "run":
        # A private name: "run" is too generic to claim in sys.modules.
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return importlib.import_module(name)


class TestBenchmarkSeams:
    def test_tracer_installs_and_restores_on_the_live_source(self):
        pbtrace = _perfbench_module("pbtrace")
        traversal = importlib.import_module("repro.core.traversal")
        original = traversal.extend_to_maximal
        tracer = pbtrace.Tracer()
        pbtrace.install(tracer)
        try:
            assert traversal.extend_to_maximal is not original
            # jobs=1: the tracer only sees this process.
            ITraversal(paper_example_graph(), 1, jobs=1).enumerate()
            ITraversal(paper_example_graph(), 1, theta_left=2, theta_right=2, jobs=1).enumerate()
            QueryService().normalize({"graph": {"dataset": "divorce"}, "k": 1})
        finally:
            tracer.restore()
        assert traversal.extend_to_maximal is original
        for name in (
            "biplex.extend",
            "biplex.can_add_right",
            "enum_almost_sat",
            "prep.prepare",
            "service.normalize",
        ):
            assert tracer.layer(name).calls > 0, name
        assert tracer.layer("graph.convert").calls == 0

    @pytest.mark.parametrize(
        "module, attr",
        [
            ("repro.core.traversal", "enum_local_solutions"),
            ("repro.core.traversal", "extend_to_maximal"),
            ("repro.core.traversal", "can_add_right_masked"),
            ("repro.core.enum_almost_sat", "can_add_right_masked"),
        ],
    )
    def test_engine_seams_are_called_through_their_module(self, monkeypatch, module, attr):
        # The tracer files both probe seams under one name, so the test
        # above would still pass if only one of them were called.
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
        ITraversal(paper_example_graph(), 1, jobs=1).enumerate()
        assert calls

    def test_machine_facts(self):
        facts = _perfbench_module("run").machine_facts()
        assert facts["backend"] == "bitset"
        assert facts["prep"] in ("off", "core", "core+order")


class TestImportFootprint:
    def test_package_imports_leave_numpy_out(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        probe = (
            "import sys, repro, repro.cli, repro.serve, repro.service.query; "
            "print('numpy' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"
