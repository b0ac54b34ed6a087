"""The two readers' line walkers, on files beyond the numpy paths' grammar: each
refusal names its place, and np.loadtxt, kept here as an oracle, agrees with
each walker on what it reads."""
import io
import re
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from dphawkes import ingest_timestamps, read_events_csv
from dphawkes import events as events_module
from dphawkes import ingest as ingest_module

from .test_events_reader import events_texts
from .test_ingest import raw_logs

# The sequence checks name the file; the parsers name the row or the lines.
SEQUENCE_CHECKS = ("timestamps must lie in [0, horizon]",
                   "timestamps must be strictly increasing",
                   "horizon must be nonnegative and finite", "tree_id must be nonnegative",
                   "parent_idx must be -1 or an earlier index",
                   "parent and child must share tree_id", "the timestamps span ")
PLACES = re.compile(r"expected header |row [1-9]\d* |row [1-9]\d*: |no timestamps found$|"
                    r"unparsable or non-finite timestamps at lines [1-9]\d*(, [1-9]\d*)*"
                    r"( \(\+[1-9]\d* more\))?$")


@st.composite
def beyond_grammar(draw, texts):
    """A drawn text with up to three insertions: a \\r anywhere (a lone one unless a
    \\n follows it), or a run of 17 to 20 digits that starts a field or a line."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + "\r" + text[at:]
        else:
            starts = [0] + [i + 1 for i, c in enumerate(text) if c in ",\n"]
            at = draw(st.sampled_from(starts))
            text = text[:at] + str(draw(st.integers(10**16, 10**20 - 1))) + text[at:]
    return text


def _assert_names_its_place(path, exc):
    assert isinstance(exc, ValueError), exc
    message = str(exc)
    assert message.startswith(f"{path}: "), message
    rest = message[len(f"{path}: "):]
    assert PLACES.match(rest) or rest.startswith(SEQUENCE_CHECKS), message


@settings(max_examples=300, deadline=None)
@given(st.one_of(beyond_grammar(events_texts()).map(lambda text: ("events", text)),
                 beyond_grammar(raw_logs()).map(lambda text: ("raw", text))))
def test_every_refusal_names_its_place(tmp_path_factory, drawn):
    reader, text = drawn
    path = tmp_path_factory.mktemp("walk") / "in.csv"
    path.write_bytes(text.encode())
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            read_events_csv(path) if reader == "events" else ingest_timestamps(path)
    except ValueError as exc:
        _assert_names_its_place(path, exc)


# --- np.loadtxt as the oracle -------------------------------------------------

def _loadtxt(body: bytes, **args) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(io.BytesIO(body), delimiter=",", comments=None, ndmin=1, **args)


def _loadtxt_rows(data: bytes):
    """(t, g, p, labeled) as the events reader read a file by np.loadtxt, with each
    empty id field turned into -1 first."""
    body = data.partition(b"\n")[2]
    empty_tree_rows = body.count(b",,")
    for empty, filled in ((b",,", b",-1,"), (b",\r\n", b",-1\r\n"), (b",\n", b",-1\n")):
        body = body.replace(empty, filled)
    if body.endswith(b","):
        body += b"-1"
    rows = _loadtxt(body, dtype=[("t", "f8"), ("g", "i8"), ("p", "i8")])
    return rows["t"], rows["g"], rows["p"], empty_tree_rows < rows.size


def _loadtxt_first_fields(data: bytes) -> np.ndarray:
    raw = _loadtxt(data, usecols=0)
    if not np.isfinite(raw).all():
        raise ValueError("non-finite timestamp")
    return raw


def _outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(beyond_grammar(events_texts()))
def test_events_walker_reads_as_loadtxt(text):
    data = text.encode()
    got = _outcome(events_module._walk_rows, "in.csv", data)
    # The walker reads a last lone \r as a cut \r\n; so does loadtxt, except after an
    # empty field, which the -1 rewrite above misses.
    want = _outcome(_loadtxt_rows, data + b"\n" if data.endswith(b",\r") else data)
    if isinstance(want, ValueError):
        _assert_names_its_place("in.csv", got)
        return
    t, g, p, labeled = want
    assert got[0].tobytes() == t.tobytes()
    assert (got[1] is not None) == labeled
    if labeled:
        assert got[1].tobytes() == g.tobytes() and got[2].tobytes() == p.tobytes()


@settings(max_examples=300, deadline=None)
@given(beyond_grammar(raw_logs()))
def test_ingest_walker_reads_as_loadtxt(text):
    data = text.encode()
    first, _, rest = data.partition(b"\n")
    first_line = 1
    try:
        float(first.split(b",", 1)[0])
    except ValueError:
        data, first_line = rest, 2
    want = _outcome(_loadtxt_first_fields, data)
    got = _outcome(ingest_module._walk_first_fields, "raw.csv", data, first_line)
    if isinstance(want, ValueError):
        _assert_names_its_place("raw.csv", got)
    else:
        assert got.tobytes() == want.tobytes()
