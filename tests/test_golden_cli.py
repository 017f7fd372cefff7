"""The byte-identical contract: every argv of the golden corpus writes what the file records.

See ``tests/golden_corpus.py`` for the corpus, the float rule and the
script that rewrites the file after an intended change of output.
"""

import json

import golden_corpus

ENTRIES = json.loads(golden_corpus.GOLDEN.read_text())


def test_the_file_holds_the_corpus():
    assert [entry["argv"] for entry in ENTRIES] == golden_corpus.argvs()


def test_outputs_match_the_file():
    changed, floats = [], []
    for entry in ENTRIES:
        got, rows = golden_corpus.record(entry["argv"])
        if {k: got[k] for k in ("exit", "stdout", "stderr")} != {
                k: entry[k] for k in ("exit", "stdout", "stderr")}:
            changed.append(" ".join(entry["argv"])[:200])
        floats += golden_corpus.float_problems(entry, rows)
    assert not changed, f"{len(changed)} argvs changed output:\n" + "\n".join(changed)
    assert not floats, "\n".join(floats[:10])
