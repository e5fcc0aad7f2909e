import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture
def tiny_model():
    import tapflow as tf

    text = (BENCH.parent / "fixtures" / "tiny3.json").read_text(encoding="utf-8")
    model = tf.parse_feeder(text)
    return model, tf.taps_to_ratios(model, tf.zero_taps(model))
