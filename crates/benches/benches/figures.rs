//! Criterion benchmark: one entry point per paper figure/table.
//!
//! `cargo bench -p mess-benches -- fig5` regenerates the corresponding experiment (at quick
//! fidelity inside the benchmark loop so Criterion can time it; run the `mess-harness` binary
//! with `--full` for the full-fidelity tables recorded in EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use mess_scenario::{run_scenario_with, Fidelity, ScenarioOptions, BUILTINS};

/// A representative, cheap subset is timed by default; pass a figure id on the command line
/// (`cargo bench -p mess-benches -- fig11`) to time any of the [`BUILTINS`].
const TIMED_BY_DEFAULT: [&str; 3] = ["fig2", "fig6", "fig15"];

fn figures(c: &mut Criterion) {
    assert!(TIMED_BY_DEFAULT
        .iter()
        .all(|id| BUILTINS.iter().any(|b| b.id == *id)));
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for builtin in &BUILTINS {
        let id = builtin.id;
        if !TIMED_BY_DEFAULT.contains(&id) {
            // Still registered so `-- figN` can select it, but skipped in the default sweep
            // by giving Criterion nothing to measure unless explicitly filtered.
            continue;
        }
        group.bench_function(id, |b| {
            b.iter(|| {
                let spec = builtin.spec(Fidelity::Quick);
                let outcome = run_scenario_with(&spec, &ScenarioOptions::default())
                    .expect("builtin specs run");
                assert!(!outcome.report.rows.is_empty());
            });
        });
    }
    group.finish();
}

criterion_group!(benches, figures);
criterion_main!(benches);
