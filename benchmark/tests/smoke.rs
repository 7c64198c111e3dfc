//! End-to-end: the binary at 1/20 size, as `run.sh --smoke` runs it.

use std::path::Path;
use std::process::Command;

use nucanet_benchmark::metrics::{END_TO_END, PER_LAYER};
use nucanet_benchmark::workloads::WORKLOADS;

fn benchmark(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nucanet-benchmark"))
        .args(args)
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{:?}\n{stdout}", out.status);
    stdout
}

#[test]
fn smoke_set_prints_every_metric_of_every_workload() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-set");
    let stdout = benchmark(&["--smoke", "--seed", "7", "--out", dir.to_str().unwrap()]);
    for w in &WORKLOADS {
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let start = format!("{} {} {} ", w.name, d.name, d.unit);
            assert!(
                stdout.lines().any(|l| l.starts_with(&start)),
                "no line {start}"
            );
        }
        let failed = format!("{} points_failed count 0", w.name);
        assert_eq!(
            stdout.matches(&failed).count(),
            2,
            "untraced and traced: {failed}"
        );
        assert!(stdout.contains(&format!("{} sim_digest hex 0x", w.name)));
        let trace = std::fs::read_to_string(dir.join(format!("trace-{}.jsonl", w.name)))
            .expect("the traced run writes its spans");
        assert!(trace.lines().count() > 10 && trace.contains("\"name\": \"core.system.run\""));
    }
    assert!(stdout.trim_end().ends_with("ok - all points passed"));
    let summary = std::fs::read_to_string(dir.join("summary.json")).expect("summary.json");
    assert!(summary.contains("\"smoke\": true") && summary.contains("\"seed\": 7"));
}

#[test]
fn one_workload_ends_with_the_result_object_tagged_smoke() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-one");
    for (trace, first) in [("0", "setup_s"), ("1", "noc.sparse.ns_per_flit_hop")] {
        let stdout = benchmark(&[
            "--workload",
            "screen",
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            trace,
            "--smoke",
            "--out",
            dir.to_str().unwrap(),
        ]);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains(&format!(
            "\"failed\": 0, \"metrics\": {{\"{first}\": {{\"value\": "
        )));
        assert!(last.ends_with(", \"smoke\": true}"), "{last}");
    }
}

#[test]
fn bad_arguments_exit_with_a_usage_error_and_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "7"],
        &["--setup-probe"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_nucanet-benchmark"))
            .args(args)
            .output()
            .expect("start the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
