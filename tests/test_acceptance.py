"""Acceptance suite: every criterion at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line with the measured
quantities.  The same checks back the command-line `verify` subcommand.

Criterion 6 contains a clause that is not attainable as stated (the
windowed boundedness test applied to the correction-free defect cannot
fail for a bounded-variation potential, whose scaled defect is bounded
either way); it runs unweakened and reports honestly.  The analysis is
the criterion 06 paragraph of README.md.
"""

import dataclasses

import pytest

from slspectra.spectrum import Spectrum
from slspectra.verification import CRITERIA, VerificationContext, run_criterion


@pytest.fixture(scope="module")
def ctx():
    return VerificationContext()


@pytest.mark.parametrize("number,slug", [(num, slug) for num, slug, _ in CRITERIA],
                         ids=[f"{num:02d}-{slug}" for num, slug, _ in CRITERIA])
def test_criterion(ctx, number, slug):
    result = run_criterion(ctx, number)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number:02d} {result.slug}: {result.detail}")
    assert result.passed, f"criterion {number:02d} ({slug}): {result.detail}"


@pytest.mark.parametrize("tamper", ["mu-of-next-index", "zeros"])
def test_oscillation_certificate_reports_miscount(tamper):
    ctx = VerificationContext()
    spec = ctx.spectrum("step", "nn", 3)
    assert run_criterion(ctx, 12).passed
    pairs = list(spec.pairs[:3])
    if tamper == "zeros":
        pairs[2] = dataclasses.replace(pairs[2], zeros=3)
    else:
        pairs[2] = dataclasses.replace(pairs[2], mu=spec.pairs[3].mu)
    ctx._spectra = {("step", "nn", 2): Spectrum(spec.q, spec.bc, pairs)}
    result = run_criterion(ctx, 12)
    assert not result.passed
    assert result.detail == "index 2 of (step, nn) miscounted"


def test_oscillation_certificate_on_an_empty_cache():
    # run alone, criterion 12 computes a spectrum of its own to recertify,
    # and always the barrier on the right, whose forward traces miscount
    ctx = VerificationContext()
    result = run_criterion(ctx, 12)
    assert result.passed
    assert result.detail == "42 eigenpairs recertified"
    assert list(ctx._spectra) == [("step", "nn", 20), ("mirror-barrier", "nn", 20)]


def test_unknown_criterion_number():
    with pytest.raises(ValueError, match="no criterion numbered 99"):
        run_criterion(VerificationContext(), 99)
