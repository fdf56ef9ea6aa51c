"""The tier-1 suite.

`page_of` and `record_bytes` build and read log pages from the
tests' side: ``repro`` itself keeps a record as bytes from the SLB on.
"""

from repro.common.types import NULL_LSN
from repro.wal import records
from repro.wal.log_disk import ARCHIVE_SEGMENT, LogPage


def page_of(partition, logged, embedded_directory=None, lsn=NULL_LSN) -> LogPage:
    """A page holding the records ``logged``: compact on a dedicated page,
    full form on a mixed archive page."""
    compact = partition.segment != ARCHIVE_SEGMENT
    body = b"".join(record.encode(compact) for record in logged)
    return LogPage(partition, body, embedded_directory, lsn)


def record_bytes(body: bytes, full: bool = False) -> list[bytes]:
    """Each record of a compact (or ``full``-form) body, as its bytes."""
    return [body[start:end] for start, end in records._spans(body, full)]


def refuse_records(monkeypatch) -> None:
    """Make building a REDO record object fail for the rest of the test."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__} object")

    for cls in records._REGISTRY.values():
        monkeypatch.setattr(cls, "__init__", refuse)
