"""The library refuses every input outside what it computes on with one
exception type, InputError, and refuses it before any work starts."""

import time

import pytest

from ncwitt import (
    Alphabet,
    CoordinateTuple,
    FreePoly,
    InputError,
    WittContext,
    check_lemma_xyc,
    counterexample_report,
    h_membership,
    parse_poly,
    r_map,
    verify,
)
from ncwitt.cdwitt import check_h_alphabet
from ncwitt.cli import run

AB = Alphabet(["X", "Y"])
XYZ = Alphabet(["X", "Y", "Z"])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WittContext(AB, 4, 2), "p must be a prime, got 4"),
        (lambda: WittContext(AB, 2, 0), "truncation length must be >= 1, got 0"),
        (
            lambda: CoordinateTuple.of(WittContext(AB, 2, 1), [FreePoly.one(AB)] * 2),
            "expected at most 1 entries, got 2",
        ),
        (lambda: h_membership(FreePoly.one(XYZ)), "two-generator alphabet"),
        (lambda: check_lemma_xyc(XYZ), "two-generator alphabet"),
        (lambda: counterexample_report(1), "level >= 2, got 1"),
        (lambda: Alphabet(["X", "2"]), "invalid generator name: '2'"),
        (lambda: verify.run_checks(["no-such-check"]), "unknown check ids: ['no-such-check']"),
        (lambda: verify.run_checks(["lemma-xyc"], p=3), "exist only at p = 2, not at p = 3"),
        (lambda: verify.run_checks(["lemma-xyc"], alphabet=XYZ), "not X,Y,Z"),
        (lambda: parse_poly("X +", AB), "expected a value"),
        (
            lambda: r_map([FreePoly.generator(AB, "X")], WittContext(AB, 2, 2)),
            "epsilon 0 is not in [A,A]: X",
        ),
    ],
)
def test_raises_input_error(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert message in str(info.value)


@pytest.mark.parametrize(
    "selection, params, message",
    [
        (verify.CHECK_IDS, {"level": 1}, r"level >= 2, got 1"),
        (["wagen"], {"p": 4}, r"p must be a prime, got 4"),
    ],
)
def test_run_checks_refuses_before_any_runner(monkeypatch, selection, params, message):
    calls = []

    def recording(check_id):
        return lambda *args: calls.append(check_id) or (True, "")

    table = {c: (d, recording(c), *rest) for c, (d, _, *rest) in verify._CHECKS.items()}
    monkeypatch.setattr(verify, "_CHECKS", table)
    with pytest.raises(InputError, match=message):
        verify.run_checks(selection, **params)
    assert calls == []
    verify.run_checks(["wagen"])  # the recording runners are the ones called
    assert calls == ["wagen"]


@pytest.mark.parametrize(
    "column, values, message",
    [
        (2, {"lemma-xyc": 3}, "checks ['lemma-xyc'] exist only at p = 3, not at p = 2"),
        (
            2,
            {"lemma-xyc": 3, "commutative-sanity": 5},
            "checks ['lemma-xyc', 'commutative-sanity'] exist only at p = 3 or 5, not at p = 2",
        ),
        (3, {"lemma-xyc": 3}, "checks ['lemma-xyc'] need a three-generator alphabet, not X,Y"),
    ],
)
def test_run_checks_messages_follow_the_table(monkeypatch, column, values, message):
    # column 2 of a row is the check's prime, column 3 its number of generators
    table = dict(verify._CHECKS)
    for check_id, value in values.items():
        row = list(table[check_id])
        row[column] = value
        table[check_id] = tuple(row)
    monkeypatch.setattr(verify, "_CHECKS", table)
    with pytest.raises(InputError) as info:
        verify.run_checks(list(values))
    assert str(info.value) == message


def test_checks_the_cli_runs_before_parsing():
    with pytest.raises(InputError, match="expected at most 1 entries, got 2"):
        WittContext(AB, 2, 1).check_count(2)
    WittContext(AB, 2, 1).check_count(1)
    with pytest.raises(InputError, match="two-generator alphabet"):
        check_h_alphabet(XYZ)
    check_h_alphabet(AB)


@pytest.mark.parametrize(
    "argv, message",
    [
        # parsing the second coordinate would take over a second of CPU
        (["ghost", "--level", "1", "X", "(X+Y)^19"], "expected at most 1 entries, got 2"),
        # parsing first would refuse the power with ResourceLimit, exit 1
        (["hmember", "--alphabet", "X,Y,Z", "(X+Y+Z)^40"], "two-generator alphabet"),
    ],
)
def test_cli_refuses_before_parsing(capsys, argv, message):
    start = time.process_time()
    code = run(argv)
    elapsed = time.process_time() - start
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and message in err
    assert elapsed < 0.2
