"""Property: an ETL load lands and charges what a per-row load does.

``ETLPipeline._load`` lands a job's rows with one checked
``TableStorage.append_rows`` and falls back to per-row inserts when the
batch raises. Whatever the batch holds, the outcome must equal the
statement-at-a-time reference loop below: the same stored rows (value
types included), the same exception type and message, the same rows
landed before it, and the clock at exactly the same float.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.dialects import get_dialect
from repro.engine.database import Database
from repro.net import Network, SimClock, costs
from repro.warehouse.etl import ETLJob, ETLPipeline

#: the target: a key, a NOT NULL number, a short VARCHAR and two nullables
DDL = (
    "CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE NOT NULL, "
    "tag VARCHAR(4), note TEXT, n INTEGER)"
)
NAMES = ["id", "x", "tag", "note", "n"]

#: values already of the column's type, which the batch check passes
CLEAN = {
    "x": st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    "tag": st.one_of(st.text(max_size=4), st.none()),
    "note": st.one_of(st.text(max_size=5), st.none()),
    "n": st.one_of(st.integers(min_value=-3, max_value=3), st.none()),
}
#: values that need coercion or fail it: NULL in NOT NULL, text that will
#: not coerce, an over-long VARCHAR, a key that repeats
AWKWARD = {
    "id": st.one_of(st.integers(min_value=0, max_value=6), st.sampled_from(["3", "x1"])),
    "x": st.one_of(
        st.integers(min_value=-5, max_value=5), st.sampled_from([None, "2.5", "abc", " 7 "])
    ),
    "tag": st.one_of(st.text(min_size=5, max_size=6), st.integers(min_value=0, max_value=99999)),
    "note": st.floats(allow_nan=False, allow_infinity=False),
    "n": st.sampled_from(["4", "four", True, 2.0]),
}


@st.composite
def loads(draw):
    """(column list, rows) of one load. Each column is clean or mixes in
    awkward values, so a batch that lands whole is common."""
    shape = draw(
        st.sampled_from(["table order", "table order", "upper case", "permuted", "partial"])
    )
    if shape == "table order":
        names = list(NAMES)
    elif shape == "upper case":
        names = [n.upper() for n in NAMES]
    elif shape == "permuted":
        names = draw(st.permutations(NAMES))
    else:
        names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    # fresh keys count up from a base that may overlap the stored 0..6
    base = draw(st.integers(min_value=0, max_value=12))
    cells = {}
    for name in NAMES:
        clean = st.none() if name == "id" else CLEAN[name]
        cells[name] = st.one_of(clean, AWKWARD[name]) if draw(st.integers(0, 3)) == 0 else clean
    ragged_rows = draw(st.integers(0, 4)) == 0
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=7))):
        row = []
        for name in names:
            value = draw(cells[name.lower()])
            row.append(base + i if name.lower() == "id" and value is None else value)
        ragged = draw(st.sampled_from([0, 0, 0, -1, 1])) if ragged_rows else 0
        if ragged < 0:
            row = row[:-1]
        elif ragged > 0:
            row.append(None)
        rows.append(draw(st.sampled_from([tuple, list]))(row))
    return names, rows


def per_row_load(pipeline: ETLPipeline, columns, rows, job: ETLJob) -> None:
    """The reference: one INSERT per row, charged as it goes."""
    dialect = get_dialect(pipeline.target.vendor)
    pipeline.clock.advance_ms(costs.STREAM_OPEN_CLOSE_MS)
    target_columns = list(job.target_columns or columns)
    storage = pipeline.target.catalog.get_table(job.target_table)
    per_row = (
        costs.LOAD_MARSHAL_MS
        + costs.LOAD_RTT_MS
        + dialect.cost.per_statement_ms
        + dialect.cost.per_row_insert_ms
    )
    if pipeline.autocommit:
        per_row += dialect.cost.commit_ms + costs.AUTOCOMMIT_FLUSH_MS
    pending = 0
    for row in rows:
        pipeline.clock.advance_ms(per_row)
        storage.insert(row, target_columns)
        pending += 1
        if not pipeline.autocommit and pending >= costs.WAREHOUSE_COMMIT_EVERY:
            pipeline.clock.advance_ms(dialect.cost.commit_ms)
            pending = 0
    if pending and not pipeline.autocommit:
        pipeline.clock.advance_ms(dialect.cost.commit_ms)


def outcome(load, *args):
    """None, or the (type, message) of what ``load(*args)`` raised."""
    try:
        load(*args)
        return None
    except Exception as exc:  # compared below, type and message
        return type(exc), str(exc)


def twin(vendor: str, autocommit: bool, start_ms: float) -> ETLPipeline:
    target = Database("target", vendor)
    target.execute(DDL)
    clock = SimClock()
    clock.advance_ms(start_ms)
    return ETLPipeline(Network(), clock, target, "etlhost", autocommit=autocommit)


@settings(max_examples=300, deadline=None)
@given(
    vendor=st.sampled_from(["mysql", "mssql", "oracle", "sqlite"]),
    autocommit=st.booleans(),
    commit_every=st.sampled_from([1, 2, 3, 100]),
    start_ms=st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    stored=st.lists(st.integers(min_value=0, max_value=6), max_size=3, unique=True),
    batches=st.lists(loads(), min_size=1, max_size=3),
    job_names=st.booleans(),
)
def test_batch_load_equals_per_row_load(
    vendor, autocommit, commit_every, start_ms, stored, batches, job_names
):
    batched = twin(vendor, autocommit, start_ms)
    reference = twin(vendor, autocommit, start_ms)
    for pipeline in (batched, reference):
        pipeline.target.catalog.get_table("t").append_rows(
            [(k, 1.5, "s", None, k) for k in stored]
        )
    with mock.patch.object(costs, "WAREHOUSE_COMMIT_EVERY", commit_every):
        for names, rows in batches:
            # the column list comes from the job, or from the extract
            job = ETLJob(None, "src", "SELECT 1", "t", target_columns=names if job_names else None)
            got = outcome(batched._load, names, rows, job)
            want = outcome(per_row_load, reference, names, rows, job)
            assert got == want
            # repr tells 1, 1.0, True and '1' apart
            assert repr(batched.target.catalog.get_table("t").rows) == repr(
                reference.target.catalog.get_table("t").rows
            )
            assert batched.clock.now_ms == reference.clock.now_ms
