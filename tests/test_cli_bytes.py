"""Every command's outputs, byte for byte, against digests of a known-good run.

Each command line runs through ``cli.main`` in a directory of inputs written
here from literals (a corpus CSV, an override ledger and a DBLP document,
holding a skipped row, an entity and a diacritic, and a list of ids to sample
from) plus a copy of the bundled
year files and a snapshot of the bundled table. Paths are relative, so the
manifests do not depend on where the test runs. A run's digest is the
SHA-256 of its exit code, stdout, stderr, logged warnings, ``--out`` file
and manifest. A change to any of them fails the test; a change meant to
alter an output updates the digest of each command it alters and says why.
"""

from __future__ import annotations

import hashlib
import shutil
from importlib import resources
from pathlib import Path

import pytest

from namecohort import ssa
from namecohort.cli import main

CORPUS_CSV = """\
record_id,venue,year,authors
c1,SIGX,1975,"Leslie Lamport|Mary Shaw|Hopper, Grace M., Jr."
c2,SIGX,1976,Johnnie Cochran|Mádison Quinn|B. Liskov
c3,TOCS,1990,Sidney Fels|Kendall Hunt|Élizabeth Núñez
c4,TOCS,19x0,Ann Lee
c5,SIGX,2001,George Box|Jan Ørsted|Morgan Lee|Addison Wesley
c6,TOCS,1981,Dr. Leslie Valiant|Gertrude Cox
"""

LEDGER_CSV = """\
key,gender,year_from,year_to,venue,source_note
leslie lamport,M,,,,biography
morgan lee,F,2000,2010,SIGX,interview
nobody here,F,,,,stale entry
"""

DBLP_XML = """\
<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE dblp SYSTEM "dblp.dtd">
<dblp>
<article key="journals/a/1"><author>Leslie Lamport</author><author>Mary Shaw</author>\
<year>1975</year><journal>Comm. ACM &amp; Letters</journal></article>
<inproceedings key="conf/b/2"><author>Jos&eacute; Garc&iacute;a</author>\
<author>Madison Quinn</author><year>1976</year><booktitle>SIGX</booktitle></inproceedings>
<article key="journals/a/3"><author>Kendall Hunt</author><journal>TOCS</journal></article>
<article key="journals/a/4"><author>Morgan Lee</author><author>J. Doe</author>\
<year>2001</year><journal>SIGX</journal></article>
<article key="journals/a/5"><author>Sidney Fels 0001</author><author>Élizabeth Núñez</author>\
<year>1990</year><journal>TOCS</journal></article>
</dblp>
"""

IDS_TXT = "".join(f"id{i:03d}\n" for i in range(120))

TABLE = ["--table", "table.bin"]
COMMANDS = {
    "ingest": ["ingest", "ssa", "--out", "ingested.bin"],
    "pf": ["pf", "Leslie", "--year", "1950"],
    "pf pub-year": ["pf", "Madison", "--pub-year", "2020", *TABLE, "--out", "pf.json"],
    "shifts name": ["shifts", "--from", "1925", "--to", "1975", "--name", "Leslie",
                    "--name", "Mary"],
    "shifts top": ["shifts", "--from", "1925", "--to", "1975", "--top", "4", "--weighted",
                   *TABLE, "--out", "top.csv"],
    "shifts unstable": ["shifts", "--from", "1925", "--to", "1975", "--unstable",
                        "--format", "json"],
    "shifts unstable net": ["shifts", "--from", "1901", "--to", "1999", "--unstable",
                            "--net", "--out", "net.json"],
    "sample": ["sample", "--ids-file", "ids.txt", "--seed", "7"],
    "sample out": ["sample", "--ids-file", "ids.txt", "--seed", "3", "--margin", "0.1",
                   "--out", "sample.txt"],
}
for _corpus in ("corpus.csv", "dblp.xml"):
    _c = ["--corpus", _corpus]
    COMMANDS.update({
        f"analyze {_corpus}": ["analyze", *_c, *TABLE, "--out", "a.csv"],
        f"analyze ledger json {_corpus}": ["analyze", *_c, "--overrides", "ledger.csv",
                                           "--format", "json", "--out", "a.json"],
        f"analyze classified {_corpus}": ["analyze", *_c, "--estimator", "classified-share",
                                          "--tau-female", "0.7"],
        f"analyze display {_corpus}": ["analyze", *_c, "--display-encoding",
                                       "--bin-width", "5", "--overrides", "ledger.csv"],
        f"analyze unknown-value {_corpus}": ["analyze", *_c, "--unknown-value", "0.25"],
        f"analyze venue {_corpus}": ["analyze", *_c, "--group-by-venue", "--format", "json",
                                     "--shift", "30"],
        f"analyze strict {_corpus}": ["analyze", *_c, "--strict"],
        f"bias-report {_corpus}": ["bias-report", *_c, "--reference-year", "2000",
                                   "--overrides", "ledger.csv", "--out", "b.csv"],
        f"bias-report json {_corpus}": ["bias-report", *_c, "--reference-year", "1960",
                                        "--format", "json", *TABLE],
        f"bias-report strict {_corpus}": ["bias-report", *_c, "--reference-year", "2000",
                                          "--strict"],
    })

DIGESTS = {
    "ingest":
        "74c61420bb6162d19fbdb1d4ab4e8914758bbf490ef10a28cba3941c697f9c50",
    "pf":
        "9066437105a7f2e2b2f0bd5bda1b10bd3e52310894fe31fdf74eae970ca24a6f",
    "pf pub-year":
        "6932b227c6258c7337efbeeb16c711e3525300ff3e6202bf703447cd2c6a0e97",
    "shifts name":
        "7e6ab90b8a500dc791faebbd9f7e8a638078e743e6d45c1dfd55daa0160db282",
    "shifts top":
        "a5abd68b9ae0d434dd9de2cb1b412d4e0e0e20b4f7ffb75aa7f23e0f3d220f64",
    "shifts unstable":
        "7d5fefbbb13eb5801754202190f1a849bd135dc71dbd67dad137cd5beb8168fc",
    "shifts unstable net":
        "cef64612d9b90b5ca42b72ea414c4e2905a3a5c5350bc167edea8f857b682d31",
    "sample":
        "7616d6d9ef877d8503cb43e5fc59d136a1c0d8505245893a0fa1a728a7e43ef8",
    "sample out":
        "83c34510d7b40573cbb8e2fccdd4b6c10db3feb4dd3f54db980eff22ab9eb8fe",
    "analyze corpus.csv":
        "85d253fe14fee84cd537e16e3ebfb2bc1341d0ebdc37bbac5f589529f7a01c6f",
    "analyze ledger json corpus.csv":
        "78f737b5f1d2a38d615562cbfa9d334e232c639f7fb388664732261b7b4589ca",
    "analyze classified corpus.csv":
        "37f051b87ca09e0ac1b7fcab6e1b3e9e4a9f49375f907c50d57c4dd315ae25a4",
    "analyze display corpus.csv":
        "730d16d7b7a9f2366239e8e8df9b06042720bc0e0a1eea5ae77d16f0e1c0823f",
    "analyze unknown-value corpus.csv":
        "0eff3409d280fa45a1d3b6fa0283d17dd24483270a4fc014d188c5815fceab52",
    "analyze venue corpus.csv":
        "7f419e46b5ff868c87b24e460d1a257c8a3404ce3dbf14e2e52addb3e71df0a2",
    "analyze strict corpus.csv":
        "3e63689259324db146bf6933336635f19b89ffd774a882130fbb9b866e7873f2",
    "bias-report corpus.csv":
        "ad6a496ea13ad0016b781206845f3b6a38145477e0b4572f45f68477e31fee05",
    "bias-report json corpus.csv":
        "ed8e5cbe3461c662398619c487bd7a8bbfe8abe97746ef32f0e3adf8f2244416",
    "bias-report strict corpus.csv":
        "3e63689259324db146bf6933336635f19b89ffd774a882130fbb9b866e7873f2",
    "analyze dblp.xml":
        "d60a5cc9b101c7625139152b5841bd75e42fa0e62cb377536e4154d8f8672db9",
    "analyze ledger json dblp.xml":
        "2b782d510d64bd7bb76189ef0ea85d33b904864390136c3fe7d7e4405f779c05",
    "analyze classified dblp.xml":
        "90f836fd821fec118078e3dad4bd53c5800203cd7c95b416fd11c03455817d3d",
    "analyze display dblp.xml":
        "efedc400c03fd61b924e97fe20ed4887722502c3846f3cdb7dfe61cd9200a0cf",
    "analyze unknown-value dblp.xml":
        "43d4d661fcacf14b17336c6c734070f428e1d6f5734a4197b40e2633419bee30",
    "analyze venue dblp.xml":
        "ce8f89f2acde7458af86737ac6f4cbfa23b6f4d9252fc1c52c04f578a10629e5",
    "analyze strict dblp.xml":
        "becc1d55b0d154efc414e351937f47fbc670945a6672d9cd9d70cc19fe4f9b71",
    "bias-report dblp.xml":
        "b789803781aff27efaa609747989466728d90f37e365be0b9ecc77f21e6e5773",
    "bias-report json dblp.xml":
        "01337e41103b998b7723a5b80d13c8ad93d6589c4781f52b7c9cfe01d3839cc4",
    "bias-report strict dblp.xml":
        "becc1d55b0d154efc414e351937f47fbc670945a6672d9cd9d70cc19fe4f9b71",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("inputs")
    shutil.copytree(resources.files("namecohort") / "data" / "ssa_fixture", directory / "ssa")
    ssa.write_snapshot(ssa.load_fixture(), directory / "table.bin")
    for name, text in (("corpus.csv", CORPUS_CSV), ("ledger.csv", LEDGER_CSV),
                       ("dblp.xml", DBLP_XML), ("ids.txt", IDS_TXT)):
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("command", COMMANDS)
def test_command_outputs_are_byte_identical(inputs, monkeypatch, capsys, caplog, command):
    monkeypatch.chdir(inputs)
    argv = COMMANDS[command]
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None:
        out.unlink(missing_ok=True)
    code = main(list(argv))
    stdout, stderr = capsys.readouterr()
    digest = hashlib.sha256(repr((
        code, stdout, stderr, [record.getMessage() for record in caplog.records],
        out and out.read_bytes(), out and Path(f"{out}.manifest.json").read_bytes(),
    )).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[command]
