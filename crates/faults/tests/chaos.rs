//! The release chaos gate: sweep the full fault × seed grid and require
//! that not one case panics — every injected fault must end in a typed
//! error, a quarantined cluster, or be tolerated outright.
//!
//! Set `DNASIM_BENCH_FAST=1` to run the reduced smoke grid instead (used
//! by `scripts/verify.sh`).

use dnasim_faults::{ChaosSuite, FaultKind, Verdict};
use dnasim_par::ThreadPool;

fn suite() -> ChaosSuite {
    ChaosSuite::from_env()
}

#[test]
fn chaos_grid_is_panic_free() {
    let picked = suite();
    let report = picked.run(&ThreadPool::serial());
    if picked == ChaosSuite::full() {
        assert!(
            report.cases() >= 200,
            "full grid must exercise at least 200 cases, got {}",
            report.cases()
        );
    }
    assert!(report.is_clean(), "{}", report.summary());
}

#[test]
fn every_fault_kind_is_exercised() {
    let report = suite().run(&ThreadPool::serial());
    for fault in FaultKind::ALL {
        assert!(
            report.outcomes().iter().any(|o| o.fault == fault),
            "fault {} missing from the sweep",
            fault.name()
        );
    }
}

#[test]
fn hostile_model_parameters_always_yield_typed_errors() {
    let report = suite().run(&ThreadPool::serial());
    let model_faults = [
        FaultKind::NanModelParam,
        FaultKind::InfModelParam,
        FaultKind::NegativeModelParam,
        FaultKind::OutOfRangeModelParam,
    ];
    for outcome in report.outcomes() {
        if model_faults.contains(&outcome.fault) {
            assert!(
                matches!(outcome.verdict, Verdict::TypedError(_)),
                "fault {} seed {} slipped through: {:?}",
                outcome.fault.name(),
                outcome.seed,
                outcome.verdict
            );
        }
    }
}

#[test]
fn zero_coverage_faults_are_quarantined_not_fatal() {
    let report = suite().run(&ThreadPool::serial());
    let quarantine_cases: Vec<_> = report
        .outcomes()
        .iter()
        .filter(|o| o.fault == FaultKind::ZeroCoverageEverywhere)
        .collect();
    assert!(!quarantine_cases.is_empty());
    for outcome in quarantine_cases {
        assert!(
            matches!(outcome.verdict, Verdict::Quarantined(_)),
            "seed {}: {:?}",
            outcome.seed,
            outcome.verdict
        );
    }
}
