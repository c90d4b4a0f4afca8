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


def test_write_prints_what_it_replaces(tmp_path, monkeypatch, capsys):
    # --write against a copy of the ledger, with outputs that move one value:
    # it prints the check's failure and summary line, then writes the new
    # outputs, leaving the committed ledger as it was
    path = ledger.LEDGER
    committed = path.read_bytes()
    written = json.loads(committed)
    fresh = copy.deepcopy(written)
    values = fresh["fig3.rows"][20][1]["j"]
    values[0] = repr(complex(values[0]) + 2.0 * float(values[1]))
    outputs = {k: v for k, v in fresh.items() if k not in ("versions", "requests")}
    copied = tmp_path / "ledger.json"
    copied.write_bytes(committed)
    monkeypatch.setattr(ledger, "LEDGER", copied)
    monkeypatch.setattr(ledger, "bench_requests", lambda: written["requests"])
    monkeypatch.setattr(ledger, "compute", lambda requests: outputs)
    assert ledger.main(["--write"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("fig3 row 20 j: ") and out[1].startswith("ledger: largest move 2 ")
    assert out[2].startswith(f"wrote {copied} ")
    assert json.loads(copied.read_text())["fig3.rows"][20] == fresh["fig3.rows"][20]
    assert path.read_bytes() == committed
