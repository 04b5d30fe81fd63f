//! Two short traced runs with one seed do identical work: every exact
//! work counter, the answer digest included, repeats; only times differ.

use std::path::PathBuf;

use fungusbench::{run, Mode, WORKLOADS};

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn counters_repeat_exactly_for_one_seed() {
    for workload in WORKLOADS {
        let runs: Vec<_> = ["a", "b"]
            .iter()
            .map(|side| {
                let dir = scratch(&format!("{workload}-{side}"));
                let out = run(workload, 7, 1, Mode::Traced, &dir).expect("workload sets up");
                let _ = std::fs::remove_dir_all(&dir);
                out
            })
            .collect();
        for out in &runs {
            assert!(
                out.violations.is_empty(),
                "{workload}: {:?}",
                out.violations
            );
            assert_eq!(out.failed, 0, "{workload}");
            assert!(out.counters.tuples_scanned > 0, "{workload}");
            assert!(
                out.result_line().starts_with("{\"correct\": true"),
                "{workload}"
            );
        }
        assert_eq!(runs[0].counters, runs[1].counters, "{workload}");
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let digest = |seed| {
        let dir = scratch(&format!("seed-{seed}"));
        let out = run("front_small", seed, 1, Mode::EndToEnd, &dir).expect("workload sets up");
        let _ = std::fs::remove_dir_all(&dir);
        out.counters.digest
    };
    assert_ne!(digest(1), digest(2));
}
