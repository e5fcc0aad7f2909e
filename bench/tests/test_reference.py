"""The reference computation that sets the unit of call times."""

from reference import reference, timed_reference


def test_reference_does_the_same_work_every_time():
    assert reference() == reference()
    assert timed_reference() > 0
