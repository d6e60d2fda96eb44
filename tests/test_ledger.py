"""The quick commands of the output ledger print and return what it recorded (tests/ledger.py)."""

import pytest

import ledger


def test_ledger_lists_every_command_once_per_stack():
    argvs = [argv for argv, _ in ledger.COMMANDS]
    for entries in ledger.load().values():
        assert [e["argv"] for e in entries] == argvs


def test_quick_commands_match_the_ledger():
    recorded = ledger.load().get(ledger.stack())
    if recorded is None:
        pytest.skip(f"the ledger records no entries for {ledger.stack()}")
    quick = [tuple(argv) for argv, fast in ledger.COMMANDS if fast]
    changed = [" ".join(e["argv"]) for e in recorded
               if tuple(e["argv"]) in quick and ledger.run(e["argv"]) != e]
    assert not changed
