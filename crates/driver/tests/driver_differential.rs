//! Differential suite: the parallel driver must produce the same CC-CC
//! output and the same verification verdicts as the sequential pipeline
//! on every workload family.
//!
//! "Same output" is α-equivalence: closure conversion freshens binder
//! names through a global counter, so two runs differ in generated
//! subscripts but never in structure. The step engine and NbE stay
//! untouched underneath as the inner oracles; this suite pins the new
//! *orchestration* layer against the old single-threaded one.

use cccc_core::link;
use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_driver::session::Session;
use cccc_driver::workloads::{
    deep_chain, diamond, independent_units, root_of, session_from, skewed, WorkUnit,
};
use cccc_driver::{DriverError, UnitStatus};
use cccc_source::builder as s;
use cccc_target as tgt;

/// Builds the workload with the given worker count and checks every
/// unit's artifact against the sequential oracle.
fn assert_driver_matches_sequential(units: &[WorkUnit], workers: usize) {
    let mut session = session_from(units, CompilerOptions::default());
    let report = session.build(workers).unwrap();
    assert!(report.is_success(), "parallel build failed: {}", report.summary());
    assert_eq!(report.compiled_count(), units.len());

    let sequential = session.compile_sequential().unwrap();
    assert_eq!(sequential.len(), units.len());
    for (name, compilation) in &sequential {
        let driver_target = session.target_term(name).unwrap();
        assert!(
            tgt::subst::alpha_eq(&driver_target, &compilation.target),
            "unit `{name}`: driver target differs from sequential pipeline"
        );
        let driver_interface = session.interface(name).unwrap();
        assert!(
            cccc_source::subst::alpha_eq(&driver_interface, &compilation.source_type),
            "unit `{name}`: driver interface differs from sequential pipeline"
        );
    }
}

#[test]
fn independent_units_match_sequential_at_every_worker_count() {
    let units = independent_units(6, 2);
    for workers in [1, 2, 4] {
        assert_driver_matches_sequential(&units, workers);
    }
}

#[test]
fn diamond_matches_sequential() {
    let units = diamond(4, 2);
    assert_driver_matches_sequential(&units, 2);
    assert_driver_matches_sequential(&units, 3);
}

#[test]
fn deep_chain_matches_sequential() {
    let units = deep_chain(5, 2);
    assert_driver_matches_sequential(&units, 2);
}

#[test]
fn skewed_dag_matches_sequential_under_critical_path_scheduling() {
    // The workload built to make critical-path-first ordering visible:
    // scheduling *order* changes under the priority frontier, but
    // artifacts and verdicts must not, at any worker count.
    let units = skewed(3, 4, 2);
    for workers in [1, 2, 4] {
        assert_driver_matches_sequential(&units, workers);
    }
}

#[test]
fn linked_diamond_observes_the_sequential_value() {
    let units = diamond(3, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    session.build(2).unwrap();
    // Every middle unit is `id Bool (is_even 4)` = true, so the fold is
    // true; linking the compiled modules must agree.
    assert_eq!(session.observe(root_of(&units)).unwrap(), Some(true));

    // And against whole-program compilation: inline every unit into one
    // closed source program, compile it sequentially, observe.
    let mut inlined = units.last().unwrap().term.clone();
    for unit in units.iter().rev().skip(1) {
        inlined =
            cccc_source::subst::subst(&inlined, cccc_util::Symbol::intern(&unit.name), &unit.term);
    }
    let whole = Compiler::new().compile_closed(&inlined).unwrap();
    assert_eq!(link::observe_target(&whole.target), Some(true));
}

#[test]
fn single_program_session_agrees_with_the_compiler() {
    // The single-program Compiler re-expressed as a one-unit session.
    let program = s::app(
        s::app(cccc_source::prelude::poly_id(), s::bool_ty()),
        s::app(cccc_source::prelude::not_fn(), s::ff()),
    );
    let mut session = Session::single_program(CompilerOptions::default(), &program);
    let report = session.build(1).unwrap();
    assert!(report.is_success());
    assert_eq!(report.units.len(), 1);

    let compilation = Compiler::new().compile_closed(&program).unwrap();
    let driver_target = session.target_term("main").unwrap();
    assert!(tgt::subst::alpha_eq(&driver_target, &compilation.target));
    let driver_ty = session.interface("main").unwrap();
    assert!(cccc_source::subst::alpha_eq(&driver_ty, &compilation.source_type));
    assert_eq!(session.observe("main").unwrap(), Some(true));
}

#[test]
fn verification_verdicts_match_on_ill_typed_units() {
    // An ill-typed unit: the sequential pipeline rejects it, and the
    // driver must report the same verdict (a per-unit failure), skipping
    // its dependents rather than producing an artifact.
    let mut session = Session::new(CompilerOptions::default());
    session.add_unit("bad", &[], &s::app(s::tt(), s::ff())).unwrap();
    session.add_unit("uses_bad", &["bad"], &s::ite(s::var("bad"), s::tt(), s::ff())).unwrap();
    session.add_unit("fine", &[], &s::tt()).unwrap();

    let report = session.build(2).unwrap();
    assert!(!report.is_success());
    assert_eq!(report.failed_count(), 1);
    assert_eq!(report.skipped_count(), 1);
    assert_eq!(report.compiled_count(), 1);
    let failure = report.first_failure().unwrap();
    assert_eq!(failure.name, "bad");
    assert!(matches!(failure.status, UnitStatus::Failed(_)));
    assert!(session.artifact("bad").is_none());
    assert!(session.artifact("fine").is_some());
    assert!(matches!(session.target_term("bad"), Err(DriverError::NotBuilt(_))));

    // Sequential oracle: same verdict, same failing unit.
    match session.compile_sequential() {
        Err(DriverError::UnitFailed { unit, .. }) => assert_eq!(unit, "bad"),
        other => panic!("sequential oracle should reject `bad`, got {other:?}"),
    }
}

#[test]
fn step_engine_options_flow_through_the_driver() {
    // The driver honors CompilerOptions: a step-engine session and an
    // NbE session agree on artifacts (engine choice is observable only
    // in performance and error detail, never in output).
    let units = independent_units(2, 2);
    let mut nbe = session_from(&units, CompilerOptions::default());
    nbe.build(2).unwrap();
    let mut step =
        session_from(&units, CompilerOptions { use_nbe: false, ..CompilerOptions::default() });
    let report = step.build(2).unwrap();
    assert!(report.is_success());
    for unit in &units {
        let a = nbe.target_term(&unit.name).unwrap();
        let b = step.target_term(&unit.name).unwrap();
        assert!(tgt::subst::alpha_eq(&a, &b), "engines disagree on `{}`", unit.name);
    }
}
