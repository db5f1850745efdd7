"""Seeded mutation fuzz of the binary table snapshot.

Snapshots of the bundled fixture and of random tables (tests/oracles.py) are
truncated, have single bytes flipped, and have header counts set to huge or
inconsistent values. A mutated file must load as the original table or fail
with the module's documented errors, and `namecohort pf --table` on it must
exit 0 or 1, never with a traceback. Mutations whose checksum is resealed get
past the checksum to the whole-column invariant checks; they may load as
another table, which must then hold every invariant, checked name by name,
and survive its own round trip.
"""

from __future__ import annotations

import os
import random
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import namecohort as nc
from namecohort.cli import main
from namecohort.ssa import SNAPSHOT_MAGIC, DuplicateEntryError, SnapshotFormatError
from oracles import SNAPSHOT_HEADER, random_counts

HEADER_AT = len(SNAPSHOT_MAGIC) + 1
BODY_AT = HEADER_AT + SNAPSHOT_HEADER.size
HUGE = (2**64 - 1, 2**63, 2**32, 2**32 - 1)


def tables() -> list[nc.NameYearTable]:
    rng = random.Random(20)
    return [nc.load_fixture(), nc.build_table([])] + [
        nc.NameYearTable(random_counts(rng, max_names=n)) for n in (1, 3, 20)]


def reseal(data: bytes) -> bytes:
    """The snapshot with its header's checksum recomputed over its body."""
    if len(data) < BODY_AT:
        return data
    fields = list(SNAPSHOT_HEADER.unpack_from(data, HEADER_AT))
    fields[3] = zlib.crc32(data[BODY_AT:])
    return data[:HEADER_AT] + SNAPSHOT_HEADER.pack(*fields) + data[BODY_AT:]


def mutations(data: bytes, rng: random.Random, flips: int):
    """(label, mutated bytes) pairs: every truncation point in the magic line
    and header plus sampled ones after it, single-byte flips, and header
    counts set to huge values or moved by one."""
    cuts = set(range(BODY_AT + 1)) | {rng.randrange(len(data)) for _ in range(20)}
    for cut in sorted(cuts - {len(data)}):
        yield f"truncate@{cut}", data[:cut]
    for _ in range(flips):
        at = rng.randrange(len(data))
        flipped = data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1:]
        yield f"flip@{at}", flipped
    for field in range(3):
        fields = list(SNAPSHOT_HEADER.unpack_from(data, HEADER_AT))
        original = fields[field]
        for value in (*HUGE, original + 1, max(0, original - 1)):
            if value == original:
                continue
            fields[field] = value
            yield (f"header[{field}]={value}",
                   data[:HEADER_AT] + SNAPSHOT_HEADER.pack(*fields) + data[BODY_AT:])


def load(path: Path):
    """The table read from path, or None when it was rejected with a
    documented error; any other exception escapes and fails the test."""
    try:
        return nc.read_snapshot(path)
    except (SnapshotFormatError, DuplicateEntryError):
        return None


def assert_invariants(table: nc.NameYearTable) -> None:
    """What every table holds, checked name by name: sorted, unique,
    non-empty normalized names, each with years strictly ascending and no
    0/0 entry."""
    names = table.names()
    assert list(names) == sorted(set(names))
    for name in names:
        assert name and nc.normalize_name(name) == name and "\n" not in name
        lo, hi = table.key_span(name)
        years = list(table.years[lo:hi])
        assert years and all(a < b for a, b in zip(years, years[1:])), name
        assert all(f or m for f, m in zip(table.females[lo:hi], table.males[lo:hi])), name


def test_mutated_snapshots_load_unchanged_or_fail_with_documented_errors(tmp_path):
    rng = random.Random(4242)
    path = tmp_path / "mutated.bin"
    checked = 0
    for i, table in enumerate(tables()):
        original = tmp_path / f"table{i}.bin"
        nc.write_snapshot(table, original)
        for label, data in mutations(original.read_bytes(), rng, flips=150):
            path.write_bytes(data)
            loaded = load(path)
            assert loaded is None or loaded == table, label
            checked += 1
    assert checked > 900


def test_resealed_mutations_pass_the_invariant_checks_or_fail_with_documented_errors(
        tmp_path):
    rng = random.Random(777)
    path, again = tmp_path / "mutated.bin", tmp_path / "again.bin"
    loaded_other = rejected = 0
    for i, table in enumerate(tables()):
        original = tmp_path / f"table{i}.bin"
        nc.write_snapshot(table, original)
        for label, data in mutations(original.read_bytes(), rng, flips=150):
            path.write_bytes(reseal(data))
            loaded = load(path)
            if loaded is None:
                rejected += 1
                continue
            assert_invariants(loaded)
            nc.write_snapshot(loaded, again)
            assert nc.read_snapshot(again) == loaded, label
            loaded_other += loaded != table
    # Flips in the counts load as other valid tables; flips elsewhere break
    # an invariant.
    assert loaded_other > 0 and rejected > 0


def test_pf_on_mutated_snapshots_exits_0_or_1(tmp_path, capsys):
    rng = random.Random(99)
    original = tmp_path / "table.bin"
    nc.write_snapshot(nc.load_fixture(), original)
    path = tmp_path / "mutated.bin"
    codes = set()
    for label, data in mutations(original.read_bytes(), rng, flips=60):
        for mutated in (data, reseal(data)):
            path.write_bytes(mutated)
            codes.add(main(["pf", "Mary", "--year", "1950", "--table", str(path)]))
            capsys.readouterr()
    assert codes == {0, 1}


@pytest.mark.parametrize("cut", [0, BODY_AT - 1, -1])
def test_pf_subprocess_on_truncated_snapshot_reports_error_without_traceback(tmp_path, cut):
    original = tmp_path / "table.bin"
    nc.write_snapshot(nc.load_fixture(), original)
    path = tmp_path / "truncated.bin"
    path.write_bytes(original.read_bytes()[:cut])
    proc = subprocess.run(
        [sys.executable, "-m", "namecohort.cli", "pf", "Mary", "--year", "1950",
         "--table", str(path)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(nc.__file__).parent.parent)))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_reseal_reproduces_the_written_checksum(tmp_path):
    path = tmp_path / "table.bin"
    nc.write_snapshot(nc.load_fixture(), path)
    data = path.read_bytes()
    assert reseal(data) == data
    assert struct.unpack_from("<I", data, BODY_AT - 4)[0] == zlib.crc32(data[BODY_AT:])
