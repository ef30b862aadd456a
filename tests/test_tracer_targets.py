"""Every function the layer tracer of ``perfbench/tracer.py`` wraps must
exist, so that renaming or deleting one fails here, in seconds, rather than
only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from deqscores.dequantize import compile_dataset
from deqscores.synth import SynthConfig, generate

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attribute) for _span, module, attribute in tracer.TARGETS]


@pytest.mark.parametrize(
    "module, attribute", _targets() + [("deqscores.qp", "spla.splu")]
)
def test_traced_binding_is_callable(module, attribute):
    value = importlib.import_module(module)
    for name in attribute.split("."):
        value = getattr(value, name)
    assert callable(value)


def test_pair_count_is_the_number_of_ranking_rows():
    # the tracer reports ``qp.n_pairs`` as ``len(problem.pair_constraints)``
    dataset = generate(SynthConfig(num_papers=60, seed=0)).dataset
    problem = compile_dataset(dataset, 0.05).problem(1.0)
    assert len(problem.pair_constraints) == dataset.ranked_reviews.shape[1]
