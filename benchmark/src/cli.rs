//! Command line: one workload run (the `BENCHMARK.json` command), the
//! set-up probe it spawns, and the full set `run.sh` prints by default.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use crate::endtoend::{measure, set_up, Job, Report};
use crate::json::Json;
use crate::layers::trace;
use crate::metrics::{def, MetricDef, ACCURACY, ACCURACY_SLACK, END_TO_END, PER_LAYER};
use crate::span::write_jsonl;
use crate::workloads::{Size, Workload, WORKLOADS};

/// Seed used when none is given. Deliberately not the `0xCAFE` the
/// goldens and EXPERIMENTS.md were tuned on.
pub const DEFAULT_SEED: u64 = 0xB5EED;

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--aa]
       benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Without --workload, runs every workload untraced and traced, each in its
own process, prints one `workload name unit value` line per metric and
writes summary.json under --out (default benchmark/out). --aa does that
twice and fails unless the two sets agree. --smoke runs at 1/20 size and
tags everything \"smoke\": true.";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: bool,
    setup_probe: bool,
    out: PathBuf,
    rustc: String,
    commit: String,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        aa: false,
        setup_probe: false,
        out: PathBuf::from("benchmark/out"),
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                a.seed = parse_u64(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad(v));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--rustc" => a.rustc = value()?.to_string(),
            "--commit" => a.commit = value()?.to_string(),
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            "--setup-probe" => a.setup_probe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

impl Args {
    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    /// Length of the timed window: 10 s as `BENCHMARK.json` says, or
    /// half a second for a smoke run.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke { 0.5 } else { 10.0 })
    }

    fn job(&self, workload: &'static Workload) -> Job {
        Job {
            workload,
            seed: self.seed,
            size: self.size(),
            seconds: self.seconds(),
        }
    }
}

/// Prints the lines and the closing result object of one workload run.
fn print_report(args: &Args, workload: &Workload, defs: &[MetricDef], r: &Report) {
    let Report {
        values,
        attempted,
        failed,
        digest,
        failures,
    } = r;
    let w = workload.name;
    for line in values.lines(w, defs) {
        println!("{line}");
    }
    println!("{w} points_attempted count {attempted}");
    println!("{w} points_failed count {failed}");
    println!("{w} sim_digest hex {digest:#018x}");
    for f in failures {
        println!("{w} failure - {f}");
    }
    let mut result = vec![
        ("correct", Json::Bool(failures.is_empty())),
        ("attempted", Json::Int(*attempted)),
        ("failed", Json::Int(*failed)),
        ("metrics", values.to_json(defs)),
    ];
    if args.smoke {
        // An extra key: a smoke result can never pass for a record.
        result.push(("smoke", Json::Bool(true)));
    }
    println!("{}", Json::obj(result).render());
}

fn run_workload(args: &Args, workload: &'static Workload, process_start: Instant) -> ExitCode {
    let job = args.job(workload);
    if args.setup_probe {
        println!("{}", set_up(&job, process_start).setup_s);
        return ExitCode::SUCCESS;
    }
    println!(
        "{} seed {} size {:?} trace {}",
        workload.name,
        args.seed,
        job.size,
        u8::from(args.trace)
    );
    if args.trace {
        let (report, spans) = trace(&job);
        let path = args.out.join(format!("trace-{}.jsonl", workload.name));
        let written = fs::create_dir_all(&args.out)
            .and_then(|()| fs::File::create(&path))
            .and_then(|f| write_jsonl(&spans, std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("{} trace_file - {}", workload.name, path.display());
        print_report(args, workload, &PER_LAYER, &report);
    } else {
        print_report(args, workload, &END_TO_END, &measure(&job, process_start));
    }
    ExitCode::SUCCESS
}

/// One workload's lines from one child process.
#[derive(Debug, Clone, Default, PartialEq)]
struct ChildReport {
    /// `(name, unit, value)` of every metric line.
    metrics: Vec<(String, String, f64)>,
    attempted: u64,
    failed: u64,
    digest: String,
    /// `failure` lines: failed points and digest mismatches.
    failures: u64,
}

/// Parses the `workload name unit value …` lines a child printed.
fn parse_child(workload: &str, stdout: &str) -> ChildReport {
    let mut r = ChildReport::default();
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if words.next() != Some(workload) {
            continue;
        }
        let (Some(name), Some(unit), Some(value)) = (words.next(), words.next(), words.next())
        else {
            continue;
        };
        match name {
            "points_attempted" => r.attempted = value.parse().unwrap_or(0),
            "points_failed" => r.failed = value.parse().unwrap_or(u64::MAX),
            "sim_digest" => r.digest = value.to_string(),
            "failure" => r.failures += 1,
            _ => {
                if let (Some(_), Ok(v)) = (def(name), value.parse()) {
                    r.metrics.push((name.to_string(), unit.to_string(), v));
                }
            }
        }
    }
    r
}

/// Runs one workload in a child process, echoing what it prints.
fn run_child(args: &Args, workload: &Workload, traced: bool) -> Result<ChildReport, String> {
    eprintln!(
        "# {} {}",
        workload.name,
        if traced { "traced" } else { "untraced" }
    );
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!("{} exited with {}", workload.name, out.status));
    }
    Ok(parse_child(workload.name, &stdout))
}

/// Both runs of one workload.
#[derive(Debug, Clone, PartialEq)]
struct WorkloadReport {
    name: &'static str,
    untraced: ChildReport,
    traced: ChildReport,
}

fn run_set(args: &Args) -> Result<Vec<WorkloadReport>, String> {
    WORKLOADS
        .iter()
        .map(|w| {
            Ok(WorkloadReport {
                name: w.name,
                untraced: run_child(args, w, false)?,
                traced: run_child(args, w, true)?,
            })
        })
        .collect()
}

fn summary_json(args: &Args, set: &[WorkloadReport]) -> Json {
    let metrics = |r: &ChildReport| {
        Json::obj(r.metrics.iter().map(|(name, unit, v)| {
            (
                name.as_str(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::str(unit.as_str()))]),
            )
        }))
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("schema", Json::str("nucanet/benchmark-v1")),
        ("smoke", Json::Bool(args.smoke)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds())),
        ("host_cores", Json::Int(cores as u64)),
        ("rustc", Json::str(args.rustc.as_str())),
        ("commit", Json::str(args.commit.as_str())),
        (
            "workloads",
            Json::Arr(
                set.iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("sim_digest", Json::str(w.untraced.digest.as_str())),
                            (
                                "correct",
                                Json::Bool(w.untraced.failures + w.traced.failures == 0),
                            ),
                            ("attempted", Json::Int(w.untraced.attempted)),
                            ("failed", Json::Int(w.untraced.failed + w.traced.failed)),
                            ("end_to_end", metrics(&w.untraced)),
                            ("per_layer", metrics(&w.traced)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Ways one set falls short on its own: failed points, failed checks,
/// or a traced digest that differs from the untraced one.
fn set_problems(set: &[WorkloadReport]) -> Vec<String> {
    let mut problems = Vec::new();
    for w in set {
        for (r, kind) in [(&w.untraced, "untraced"), (&w.traced, "traced")] {
            if r.failures != 0 || r.failed != 0 {
                problems.push(format!(
                    "{} {kind}: {} failed points, {} failure lines",
                    w.name, r.failed, r.failures
                ));
            }
        }
        if w.untraced.digest != w.traced.digest {
            problems.push(format!(
                "{}: sim_digest {} untraced, {} traced",
                w.name, w.untraced.digest, w.traced.digest
            ));
        }
    }
    problems
}

/// Ways two sets of the same build and seed disagree: an end-to-end
/// median beyond its bound, or an exact metric or digest that differs.
fn aa_problems(a: &[WorkloadReport], b: &[WorkloadReport]) -> Vec<String> {
    let mut problems = Vec::new();
    for (wa, wb) in a.iter().zip(b) {
        if wa.untraced.digest != wb.untraced.digest {
            problems.push(format!(
                "{}: sim_digest {} then {}",
                wa.name, wa.untraced.digest, wb.untraced.digest
            ));
        }
        let pairs = (wa.untraced.metrics.iter().zip(&wb.untraced.metrics))
            .chain(wa.traced.metrics.iter().zip(&wb.traced.metrics));
        for ((name, _, va), (_, _, vb)) in pairs {
            let d = def(name).expect("only registered metrics are parsed");
            let gap = (va - vb).abs();
            let limit = match d.bound {
                Some(bound) => bound * va.min(*vb),
                None if ACCURACY.contains(&d.name) => ACCURACY_SLACK,
                None if d.exact => 0.0,
                None => continue,
            };
            if gap > limit {
                problems.push(format!("{} {name}: {va} then {vb}", wa.name));
            }
        }
    }
    problems
}

fn write_summary(args: &Args, set: &[WorkloadReport]) -> Result<(), String> {
    let path: &Path = &args.out.join("summary.json");
    fs::create_dir_all(&args.out)
        .and_then(|()| fs::write(path, summary_json(args, set).render() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("summary - {}", path.display());
    Ok(())
}

fn run_all(args: &Args) -> Result<Vec<String>, String> {
    let first = run_set(args)?;
    write_summary(args, &first)?;
    let mut problems = set_problems(&first);
    if args.aa {
        eprintln!("# A/A: second set");
        let second = run_set(args)?;
        problems.extend(set_problems(&second));
        problems.extend(aa_problems(&first, &second));
    }
    Ok(problems)
}

/// Entry point; `argv` excludes the program name.
pub fn main(argv: &[String], process_start: Instant) -> ExitCode {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match Workload::by_name(name) {
            Some(w) => run_workload(&args, w, process_start),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("error: no workload {name}; have {}", names.join(", "));
                ExitCode::from(2)
            }
        },
        None if args.setup_probe => {
            eprintln!("error: --setup-probe needs --workload\n{USAGE}");
            ExitCode::from(2)
        }
        None => match run_all(&args) {
            Ok(problems) if problems.is_empty() => {
                println!(
                    "ok - all points passed{}",
                    if args.aa { ", both sets agree" } else { "" }
                );
                ExitCode::SUCCESS
            }
            Ok(problems) => {
                for p in &problems {
                    eprintln!("FAIL {p}");
                }
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command() {
        let a = parse_args(&argv("--workload figs --seed 0x10 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("figs"));
        assert_eq!(
            (a.seed, a.seconds(), a.trace, a.smoke),
            (16, 2.5, true, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.seconds(), d.trace), (DEFAULT_SEED, 10.0, false));
        assert_eq!(parse_args(&argv("--smoke")).unwrap().seconds(), 0.5);
        for bad in [
            "--seed x",
            "--seed",
            "--trace 2",
            "--seconds -1",
            "--seconds nan",
            "--what",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    fn child(setup: f64, hops: f64, digest: &str) -> ChildReport {
        ChildReport {
            metrics: vec![
                ("setup_s".into(), "s".into(), setup),
                ("noc.sim.flit_hops".into(), "count".into(), hops),
                (
                    "noc.sparse.ns_per_flit_hop".into(),
                    "ns".into(),
                    setup * 100.0,
                ),
                (ACCURACY[0].into(), "pp".into(), hops / 100.0),
            ],
            attempted: 3,
            failed: 0,
            digest: digest.into(),
            failures: 0,
        }
    }

    fn set(setup: f64, hops: f64, digest: &str) -> Vec<WorkloadReport> {
        vec![WorkloadReport {
            name: "w",
            untraced: child(setup, hops, digest),
            traced: child(setup, hops, digest),
        }]
    }

    #[test]
    fn child_lines_parse_back() {
        let text = "w seed 1 size Full trace 0\n\
                    w setup_s s 1.5 (median of 3 cold processes, min 1 max 2)\n\
                    w not_a_metric s 9\n\
                    other setup_s s 7\n\
                    w points_attempted count 12\n\
                    w points_failed count 0\n\
                    w sim_digest hex 0x00000000000000ab\n\
                    w failure - screen-3: completed 9 of 10 accesses\n\
                    {\"correct\": false, \"attempted\": 12}\n";
        let r = parse_child("w", text);
        assert_eq!(r.metrics, [("setup_s".to_string(), "s".to_string(), 1.5)]);
        assert_eq!((r.attempted, r.failed, r.failures), (12, 0, 1));
        assert_eq!(r.digest, "0x00000000000000ab");
    }

    #[test]
    fn aa_allows_timing_noise_within_bounds_only() {
        let a = set(1.0, 500.0, "0x1");
        // setup_s may move by 25 %; a bare timing has no bound at all.
        assert!(aa_problems(&a, &set(1.2, 500.0, "0x1")).is_empty());
        let slow = aa_problems(&a, &set(1.3, 500.0, "0x1"));
        assert_eq!(slow.len(), 2, "{slow:?}");
        assert!(slow[0].contains("setup_s"));
    }

    #[test]
    fn aa_demands_equal_counts_and_digests() {
        let a = set(1.0, 500.0, "0x1");
        let moved = aa_problems(&a, &set(1.0, 501.0, "0x2"));
        assert!(moved.iter().any(|p| p.contains("sim_digest")), "{moved:?}");
        assert!(moved.iter().any(|p| p.contains("noc.sim.flit_hops")));
        // The accuracy metric moved by 0.01 only: inside its slack.
        assert!(!moved.iter().any(|p| p.contains(ACCURACY[0])));
        assert!(aa_problems(&a, &set(1.0, 600.0, "0x1"))
            .iter()
            .any(|p| p.contains(ACCURACY[0])));
    }

    #[test]
    fn a_set_with_failed_points_or_split_digests_has_problems() {
        let mut s = set(1.0, 500.0, "0x1");
        assert!(set_problems(&s).is_empty());
        s[0].traced.digest = "0x2".into();
        s[0].untraced.failed = 1;
        assert_eq!(set_problems(&s).len(), 2);
    }

    #[test]
    fn summary_carries_provenance_and_the_smoke_tag() {
        let mut args = parse_args(&argv("--smoke --rustc rustc-1.0 --commit abc")).unwrap();
        let text = summary_json(&args, &set(1.0, 500.0, "0x1")).render();
        for part in [
            "\"smoke\": true",
            "\"seed\": 745197",
            "\"host_cores\": ",
            "\"rustc\": \"rustc-1.0\"",
            "\"commit\": \"abc\"",
            "\"sim_digest\": \"0x1\"",
            "\"setup_s\": {\"value\": 1, \"unit\": \"s\"}",
        ] {
            assert!(text.contains(part), "{part} in {text}");
        }
        args.smoke = false;
        assert!(summary_json(&args, &[])
            .render()
            .contains("\"smoke\": false"));
    }
}
