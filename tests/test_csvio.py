import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from catchain.csvio import lines, read_rows, table

# the fields catchain writes: integers, floats (non-finite ones included) and names
_FIELD = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(alphabet="abcxyz_019", min_size=1, max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_FIELD, min_size=2, max_size=5), max_size=6))
def test_table_is_what_csv_writer_writes(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value"])
    writer.writerows([[repr(f) if isinstance(f, float) else f for f in row] for row in rows])
    assert table(["name", "value"], rows) == buf.getvalue()


def test_lines_ends_every_line():
    assert lines([]) == ""
    assert lines([["a"], ["b", "c"]]) == "a\nb,c\n"
    assert lines(iter([("1", "2")])) == "1,2\n"


def test_table_writes_its_text_only_to_a_given_destination(tmp_path):
    dest = tmp_path / "t.csv"
    text = table(["n", "bound"], [(1, 0.5), (2, 0.25)])
    assert text == "n,bound\n1,0.5\n2,0.25\n"
    assert not dest.exists()
    assert table(["n", "bound"], [(1, 0.5), (2, 0.25)], dest) == text
    assert dest.read_bytes() == text.encode()


def test_read_rows_takes_a_path_or_an_open_text(tmp_path):
    text = "m,value\n0,1.0\r\n\n1,0.5\n"
    path = tmp_path / "b.csv"
    path.write_bytes(text.encode())
    rows = [["m", "value"], ["0", "1.0"], [], ["1", "0.5"]]
    assert read_rows(path) == read_rows(str(path)) == read_rows(io.StringIO(text)) == rows
