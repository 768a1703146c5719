"""Boundary fuzz: one malformed value in one field of a frame, an event
batch or a query row, the other fields valid. The call that receives it
either keeps the exact value (in the package's own type: int64 times and
ids, float32 pixels and positions, int32 pixel coordinates) or raises an
`EvtrackError`; no builtin exception and no warning gets out."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evtrack.errors import EvtrackError
from evtrack.pipeline import TrackSession
from util_fixtures import tiny_model

SENSOR = (32, 32)
QUERY = [0, 0, 10.0, 12.0]  # id, birth time, x, y
EVENTS = {"x": [1, 2, 3], "y": [4, 5, 6], "t": [1000, 2000, 3000], "p": [1, -1, 1]}

# Values that a careless caller passes where a number belongs.
ODD = [None, "3", b"3", True, False, 2.5, -0.5, math.nan, math.inf, -math.inf, 2**63,
       -(2**63) - 1, 2**64, 10**400, 1e19, -1, 0, 3.0, np.float16(7.0), np.float32(3.0),
       np.uint64(2**64 - 1), np.int8(-1), complex(1, 0), [1], (), {}]
VALUES = st.one_of(st.sampled_from(ODD), st.integers(), st.floats())
IMAGES = st.sampled_from([
    np.full((1, *SENSOR), 7.0, dtype=np.float16),
    np.full((1, *SENSOR), 128, dtype=np.uint8),
    np.ones((1, *SENSOR), dtype=bool),
    np.ones((1, *SENSOR), dtype=np.complex64),
    np.full((1, *SENSOR), "0.5"),
    np.full((1, *SENSOR), 0.5, dtype=object),
    np.full(SENSOR, 0.5),
    np.full((2, *SENSOR), 0.5),
    np.full((1, 16, 16), 0.5),
    np.full((1, 2, 2), 0.5),
    np.full((1, 0, 32), 0.5),
    [[[0.5] * 32] * 32],
])
GEOMETRIES = st.one_of(VALUES, st.tuples(VALUES, st.just(32)), st.tuples(st.just(32), VALUES),
                       st.sampled_from([(32,), (32, 32, 1), (64, 64), (70001, 32), "ab"]))

# field -> strategy for its malformed value
FIELDS = {
    "frame.t": VALUES,
    "frame.pixel": st.one_of(st.floats(), st.floats(width=32).map(np.float32),
                             st.floats(width=16).map(np.float16),
                             st.sampled_from([7.0, -0.1, 255.0, 1.0000001, -0.0, 1e39])),
    "frame.image": st.one_of(VALUES, IMAGES),
    "frame": VALUES.filter(lambda v: v is not None),  # None is no frame
    **{f"events.{k}": VALUES for k in EVENTS},
    **{f"events.{k}s": st.one_of(VALUES, st.just(np.ones((3, 1)))) for k in EVENTS},
    "events.geometry": GEOMETRIES,
    "events": VALUES.filter(lambda v: v is not None),  # None is no batch
    "query.id": VALUES,
    "query.t": VALUES,
    "query.x": VALUES,
    "query.y": VALUES,
    "query": st.one_of(VALUES, st.just("abcd"), st.just(QUERY[:3]), st.just(QUERY + [0])),
}
CASES = st.one_of([st.tuples(st.just(name), strategy) for name, strategy in FIELDS.items()])

# Every warning fails the test, except the deprecations that libcst's import
# raises when hypothesis's pytest plugin loads it to write a patch for a
# failing example: raised as errors inside the plugin's report hook, they
# would stop the whole run with INTERNALERROR and hide the failing example.
EVERY_WARNING_FAILS = ("error", "ignore::DeprecationWarning:libcst")


@pytest.fixture(scope="module")
def model():
    return tiny_model(seed=0)


def _frame_image():
    return np.full((1, *SENSOR), 0.5, dtype=np.float32)


def _feed_frame(model, field, value):
    """A session with a valid query is handed a frame with `value` in `field`."""
    t, image = 0, _frame_image()
    if field == "frame.t":
        t = value
    elif field == "frame.pixel":
        image = image.astype(np.result_type(value))  # a float64 image for a Python float
        image[0, 5, 7] = value
    elif field == "frame.image":
        image = value
    frame = value if field == "frame" else (t, image)
    session = TrackSession(model, [QUERY])
    try:
        session.advance(frame=frame)
    except EvtrackError:
        return
    assert list(session._frames) == [t] and int(t) == t
    kept = session._frames[t].image
    assert kept.dtype == np.float32
    assert np.array_equal(kept, np.asarray(image).astype(np.float32))


def _feed_events(model, field, value):
    """A session that holds a frame at 0 is handed an event batch with
    `value` in `field`: one event's x, y, t or p, a whole column, the
    geometry, or the batch itself."""
    cols = {k: list(v) for k, v in EVENTS.items()}
    geometry = SENSOR
    part = field.split(".")[-1]
    if part in cols:
        cols[part][1] = value
    elif part[:-1] in cols:
        cols[part[:-1]] = value
    elif part == "geometry":
        geometry = value
    batch = value if field == "events" else (cols["x"], cols["y"], cols["t"], cols["p"], geometry)
    session = TrackSession(model, [QUERY])
    session.advance(frame=(0, _frame_image()))
    try:
        session.advance(events=batch)
    except EvtrackError:
        return
    kept = session._chunks[-1]
    assert kept.geometry == SENSOR
    for k, column in zip("xytp", (kept.xs, kept.ys, kept.ts, kept.ps)):
        assert np.array_equal(column, np.asarray(cols[k]))


def _make_session(model, field, value):
    """A session is made with one query row that holds `value` in `field`."""
    row = list(QUERY)
    if field != "query":
        row[["query.id", "query.t", "query.x", "query.y"].index(field)] = value
    try:
        session = TrackSession(model, [value if field == "query" else row])
    except EvtrackError:
        return
    assert (session.query_ids, session.t_birth.tolist()) == ([row[0]], [row[1]])
    assert all(isinstance(v, int) for v in (session.query_ids[0], session.t_birth.tolist()[0]))
    assert session.p_init.tolist() == [[np.float32(row[2]), np.float32(row[3])]]


@pytest.mark.filterwarnings(*EVERY_WARNING_FAILS)
@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
@example(case=("frame.pixel", 7.0))
@example(case=("frame.pixel", -0.1))
@example(case=("frame.pixel", 255.0))
@example(case=("frame.pixel", np.float16(7.0)))
@example(case=("frame.image", np.full((1, *SENSOR), 128, dtype=np.uint8)))
@example(case=("frame.t", 2.5))
@example(case=("events.t", 2**63))
@example(case=("events.x", 32))
@example(case=("events.p", 0))
@example(case=("query.x", math.nan))
@example(case=("query.id", True))
@example(case=("query", None))
def test_one_malformed_field_is_kept_exactly_or_rejected(model, case):
    field, value = case
    kind = field.split(".")[0]
    {"frame": _feed_frame, "events": _feed_events, "query": _make_session}[kind](model, field, value)


def test_a_failing_example_is_reported_and_the_run_goes_on(pytester):
    """Under the fuzz test's warning filters, a hypothesis test that fails
    (here by a warning of its own) prints its failing example, and the
    tests after it run."""
    pytester.makepyfile(f"""
        import warnings

        import pytest
        from hypothesis import given, strategies as st

        @pytest.mark.filterwarnings(*{EVERY_WARNING_FAILS!r})
        @given(st.integers())
        def test_fails(n):
            if n >= 5:
                warnings.warn("n is 5 or more", DeprecationWarning)

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example: test_fails(*", "*n=5*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
