"""The output ledger (``ledger.py``): what the package computes for the
benchmark's inputs, checked against ``ledger.json``."""
import copy
import json

import ledger


def test_outputs_match_the_ledger(capsys):
    written = json.loads(ledger.LEDGER.read_text())
    failures, summary = ledger.compare(written, ledger.compute(written["requests"]))
    with capsys.disabled():  # the largest move and the bit-equal count, in every run's log
        print("\n" + summary)
    assert not failures, "\n".join(failures[:20])


def test_ledger_check_fails_a_moved_value_a_panel_and_a_status():
    written = json.loads(ledger.LEDGER.read_text())
    assert ledger.compare(written, written)[0] == []
    moved = copy.deepcopy(written)
    values = moved["fig3.rows"][20][1]["j"]
    values[0] = repr(complex(values[0]) + 2.0 * float(values[1]))
    panel = copy.deepcopy(written)
    panel["fig2a.groups"][-1][2][0] += 15
    status = copy.deepcopy(written)
    status["points.rows"][0][0] = "ValueError: moved"
    for fresh in (moved, panel, status):
        assert len(ledger.compare(written, fresh)[0]) == 1
