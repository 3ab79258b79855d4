"""Property-based fuzzing of each document reader on its own: on any JSON
value built from the readers' keys, a reader returns or raises a
DutchbookError, never another exception."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dutchbook import serialize  # noqa: E402
from dutchbook.errors import DutchbookError  # noqa: E402

# Each reader with the keys of its top-level object.
READERS = {
    "environment_from_doc": ("states", "contingencies", "eta"),
    "beliefs_from_doc": ("beliefs",),
    "gambles_from_doc": ("gambles",),
    "lcps_from_doc": ("levels",),
    "cps_from_doc": ("conditionals",),
    "violation_links": ("cycle", "product"),
}
# Keys the readers look up at any depth, and state, contingency and
# rational strings, valid or not.
KEYS = sorted({k for keys in READERS.values() for k in keys}
              | {"id", "parent", "h", "from", "to", "value", "a", "b", "a,b", "g"})
STRINGS = ["a", "b", "a,b", "b,a", "a,a", "g", "h", "1", "0", "1/2", "-1/2", "1/0", "0.5", ""]

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from(STRINGS) | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                        children, max_size=4)),
    max_leaves=24,
)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_raises_only_dutchbook_errors(reader):
    read = getattr(serialize, reader)
    documents = st.fixed_dictionaries({k: json_values for k in READERS[reader]}) | json_values

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(documents)
    def check(doc):
        try:
            read(doc)
        except DutchbookError:
            pass

    check()
