//! Bounded memory in a long-lived session: replaying the scripted edit
//! stream ([`workloads::edits`]) through update → build → observe for a
//! few hundred steps must not grow the calling thread's interner tables.
//! Every term an observation builds dies before the next one, so the
//! tables may hold the live terms plus dead slots awaiting a sweep —
//! never a backlog that grows with the number of steps.

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::workloads::{self, apply_edit};
use cccc_source as src;
use cccc_target as tgt;

/// Update → build → observe steps replayed against one session.
const STEPS: usize = 300;

/// The slack every table gets on top of twice its settled size: the
/// interner sweeps no table smaller than this.
const SWEEP_SLACK: usize = 8192;

#[test]
fn a_long_edit_stream_keeps_the_interner_tables_bounded() {
    let (units, script) = workloads::edits(1);
    let root = workloads::root_of(&units);
    let mut session = workloads::session_from(&units, CompilerOptions::default());
    assert!(session.build(1).unwrap().is_success());
    assert!(session.observe(root).unwrap().is_some());
    let target_bound = 2 * tgt::ast::intern_table_len() + SWEEP_SLACK;
    let source_bound = 2 * src::ast::intern_table_len() + SWEEP_SLACK;

    for (step, edit) in script.iter().cycle().take(STEPS).enumerate() {
        apply_edit(&mut session, &edit.action);
        let report = session.build(1).unwrap();
        assert!(report.is_success(), "step {step} ({}): {}", edit.label, report.summary());
        assert!(session.observe(root).unwrap().is_some(), "step {step} ({})", edit.label);
        let (target, source) = (tgt::ast::intern_table_len(), src::ast::intern_table_len());
        assert!(
            target <= target_bound,
            "step {step} ({}): CC-CC table holds {target} slots (bound {target_bound})",
            edit.label
        );
        assert!(
            source <= source_bound,
            "step {step} ({}): CC table holds {source} slots (bound {source_bound})",
            edit.label
        );
    }
}
