"""The namecohort command ends its process without the interpreter's teardown.

Each command line runs twice in a subprocess: through ``python -m
namecohort.cli``, which ends with ``os._exit`` once its output is flushed,
and through ``sys.exit(main())``, the exit with the teardown. Exit code,
stdout, stderr (logged warnings included), the ``--out`` file and its
manifest must be the same bytes. A stdout of more than 64 KiB arrives whole
through a pipe, and a pipe whose reader is gone ends the run with an error
line and exit code 1, never a traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import namecohort as nc

SRC = str(Path(nc.__file__).parent.parent)
FIXTURE_DIR = str(resources.files("namecohort") / "data" / "ssa_fixture")
WITH_TEARDOWN = "import sys\nfrom namecohort.cli import main\nsys.exit(main(sys.argv[1:]))\n"
# Runs buffer their stdout, as a plain run does, unless a test says otherwise.
BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}

# {in} is the directory of inputs; output paths are relative to the run's own
# directory, so that both runs' manifests name the same paths.
COMMANDS = {
    "ingest": ["ingest", FIXTURE_DIR, "--out", "table.bin"],
    "pf": ["pf", "Leslie", "--year", "1950", "--table", "{in}/table.bin"],
    "pf out": ["pf", "Madison", "--pub-year", "2020", "--out", "pf.json"],
    "shifts": ["shifts", "--from", "1925", "--to", "1975", "--top", "4", "--weighted"],
    "shifts skipping": ["shifts", "--from", "1880", "--to", "2023", "--unstable"],
    "sample": ["sample", "--ids-file", "{in}/ids.txt", "--seed", "7"],
    "analyze": ["analyze", "--corpus", "{in}/c.csv", "--overrides", "{in}/l.csv",
                "--table", "{in}/table.bin"],
    "analyze out": ["analyze", "--corpus", "{in}/c.xml", "--format", "json", "--out", "s.json"],
    "bias-report": ["bias-report", "--corpus", "{in}/c.csv", "--reference-year", "2000"],
    "usage error": ["pf", "Leslie"],
    "failure": ["pf", "Leslie", "--year", "1950", "--table", "{in}/missing.bin"],
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("inputs")
    nc.write_snapshot(nc.load_fixture(), directory / "table.bin")
    (directory / "ids.txt").write_text("".join(f"id{i:06d}\n" for i in range(100_000)))
    (directory / "c.csv").write_text("record_id,venue,year,authors\n"
                                     "a1,X,1980,Mary A|Leslie B\na2,X,19x0,Ann C\n")
    (directory / "c.xml").write_text('<dblp><article key="a"><author>Mary A</author>'
                                     "<year>1980</year></article></dblp>")
    (directory / "l.csv").write_text("key,gender,year_from,year_to,venue,source_note\n"
                                     "mary a,F,,,,bio\nzoe q,M,,,,obit\n")
    return directory


def cli(prefix: list[str], argv: list[str], cwd: Path, env: dict = BUFFERED,
        **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *prefix, *argv], cwd=cwd, **kwargs,
                          env=dict(env, PYTHONPATH=SRC))


def outcome(prefix: list[str], argv: list[str], cwd: Path) -> tuple:
    """The run's exit code, stdout and stderr, then every file it wrote."""
    cwd.mkdir()
    proc = cli(prefix, argv, cwd, capture_output=True)
    files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_gives_what_it_gives_with_the_teardown(tmp_path, inputs, command):
    argv = [arg.replace("{in}", str(inputs)) for arg in COMMANDS[command]]
    fast = outcome(["-m", "namecohort.cli"], argv, tmp_path / "fast")
    assert fast == outcome(["-c", WITH_TEARDOWN], argv, tmp_path / "teardown")
    code, stdout, stderr, files = fast
    assert code == {"usage error": 2, "failure": 1}.get(command, 0), stderr
    assert b"Traceback" not in stderr
    assert bool(stderr) == (command in ("shifts skipping", "analyze", "bias-report",
                                        "usage error", "failure"))
    assert bool(files) == ("--out" in argv)
    if "--out" in argv:
        assert set(files) == {argv[-1], argv[-1] + ".manifest.json"}


def test_a_stdout_over_64_kib_arrives_whole_through_a_pipe(tmp_path, inputs):
    argv = ["sample", "--ids-file", str(inputs / "ids.txt"), "--seed", "1", "--size", "100000"]
    fast = cli(["-m", "namecohort.cli"], argv, tmp_path, capture_output=True, check=True)
    teardown = cli(["-c", WITH_TEARDOWN], argv, tmp_path, capture_output=True, check=True)
    assert len(fast.stdout) > 64 * 1024
    assert fast.stdout == teardown.stdout
    assert len(fast.stdout.splitlines()) == 100_001


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["pf", "Leslie", "--year", "1950"],
    ["shifts", "--from", "1925", "--to", "1975", "--top", "3"],
    ["sample", "--ids-file", "{in}/ids.txt", "--seed", "1", "--size", "100000"],
], ids=["pf", "shifts", "sample-large"])
def test_a_closed_pipe_ends_the_run_with_an_error_line(tmp_path, inputs, argv, buffered):
    # The reader is gone before the command starts; a buffered stdout first
    # fails as it is flushed at the end.
    env = BUFFERED if buffered else dict(BUFFERED, PYTHONUNBUFFERED="1")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = cli(["-m", "namecohort.cli"], [arg.replace("{in}", str(inputs)) for arg in argv],
                   tmp_path, env, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"error: [Errno 32] Broken pipe\n")
