"""The benchmark harness against the library: the tracer's patches and the
oracle self-check, so a renamed traced function or an oracle that drifts
from the library fails here and not only in a benchmark run."""

import sys
from pathlib import Path

import pomsetblock as pb

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import selfcheck  # noqa: E402
import tracer  # noqa: E402


def test_the_tracer_installs_and_restores_every_attribute():
    spans = tracer.Tracer()
    spans.install(pb)
    try:
        patches = list(spans._patches)
        assert patches
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original in patches)
        pb.Pomset(3, 2, [(1, 2)]).ideals_of_cardinality(2)
        assert spans.stats["pomset.ideals_of_cardinality"][0] == 1
        assert spans.counts["pomset.ideals_enumerated"] == 3  # 2/1, 1/1 1/3, 2/3
    finally:
        spans.uninstall()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patches)


def test_the_benchmark_oracles_agree_with_the_library():
    assert selfcheck.run(ROOT / "src") == []
