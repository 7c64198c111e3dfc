//! The untraced run: cold set-ups, then timed repetitions of the
//! workload's whole point list through `SweepRunner`, closed loop (the
//! next repetition starts when the previous one has returned).

use std::process::Command;
use std::time::Instant;

use nucanet::metrics::MetricsCapture;
use nucanet::{SweepPoint, SweepRunner};

use crate::checks::{digest_of, verify, PointResult};
use crate::metrics::Values;
use crate::stats::Summary;
use crate::workloads::{accesses, Size, Workload};

/// Cold set-ups per run: this process and two probe processes.
const SETUPS: usize = 3;

/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPETITIONS: usize = 3;

/// What one run of one workload is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Full size or smoke.
    pub size: Size,
    /// Length of the timed window, in seconds.
    pub seconds: f64,
}

impl Job {
    /// The job's sweep points.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.workload.points(self.seed, self.size)
    }

    /// The runner the timed repetitions go through.
    pub fn runner(&self) -> SweepRunner {
        SweepRunner::with_workers(self.workload.workers).capture(MetricsCapture::Streaming)
    }
}

/// What one run of one workload found.
#[derive(Debug)]
pub struct Report {
    /// The metrics measured.
    pub values: Values,
    /// Point executions that count: those of the timed repetitions, or
    /// of the exploded pass in a traced run.
    pub attempted: u64,
    /// Those that failed or tripped a check.
    pub failed: u64,
    /// Digest of the simulated results.
    pub digest: u64,
    /// One message per failed point, and per repetition or pass whose
    /// digest differs from `digest`. Empty when the run is correct.
    pub failures: Vec<String>,
}

/// What set-up leaves behind for the timed window.
pub struct Ready {
    /// The point list.
    pub points: Vec<SweepPoint>,
    /// Results of the untimed first repetition.
    pub first: Vec<PointResult>,
    /// Seconds from `process_start` until that repetition returned.
    pub setup_s: f64,
}

/// Set-up as a user pays it in a fresh process: build the inputs and
/// run one full repetition, so caches fill and lazy set-up finishes
/// before anything is timed.
pub fn set_up(job: &Job, process_start: Instant) -> Ready {
    let points = job.points();
    let first = job.runner().try_run(&points);
    Ready {
        setup_s: process_start.elapsed().as_secs_f64(),
        points,
        first,
    }
}

/// Runs `--setup-probe` in a fresh process and returns the set-up time
/// it reports.
fn probe_setup(job: &Job) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args(["--setup-probe", "--workload", job.workload.name])
        .args(["--seed", &job.seed.to_string()]);
    if job.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("start the set-up probe");
    assert!(
        out.status.success(),
        "set-up probe failed: {:?}",
        out.status
    );
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("the probe prints its set-up time")
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The untraced run of `job`. `process_start` is when `main` began.
pub fn measure(job: &Job, process_start: Instant) -> Report {
    let Ready {
        points,
        first,
        setup_s,
    } = set_up(job, process_start);
    let mut setups = vec![setup_s];
    setups.extend((1..SETUPS).map(|_| probe_setup(job)));

    let runner = job.runner();
    let reference = digest_of(&first);
    let mut failures = verify(&points, &first);
    let failed_per_repetition = failures.len() as u64;
    drop(first);

    let mut walls = Vec::new();
    let mut failed = 0u64;
    let window = Instant::now();
    while walls.len() < MIN_REPETITIONS || window.elapsed().as_secs_f64() < job.seconds {
        let start = Instant::now();
        let results = runner.try_run(&points);
        walls.push(start.elapsed().as_secs_f64());
        let digest = digest_of(&results);
        if digest == reference {
            failed += failed_per_repetition;
        } else {
            failed += verify(&points, &results).len().max(1) as u64;
            failures.push(format!(
                "repetition {}: sim_digest {digest:#018x}, expected {reference:#018x}",
                walls.len()
            ));
        }
    }
    let peak_rss_mb = peak_rss_mib();

    let wall = Summary::of(&walls);
    let rate = |work: f64| {
        let note = format!(
            "median of {} repetitions, min {} max {}",
            wall.n,
            work / wall.max,
            work / wall.min
        );
        (work / wall.median, note)
    };
    let setup = Summary::of(&setups);
    let mut values = Values::new();
    values.set(
        "setup_s",
        setup.median,
        format!(
            "median of {} cold processes, min {} max {}",
            setup.n, setup.min, setup.max
        ),
    );
    let (v, note) = rate(accesses(&points) as f64);
    values.set("accesses_per_s", v, note);
    let (v, note) = rate(points.len() as f64);
    values.set("points_per_s", v, note);
    values.set("peak_rss_mb", peak_rss_mb, "VmHWM after the timed window");

    Report {
        values,
        attempted: (points.len() * walls.len()) as u64,
        failed,
        digest: reference,
        failures,
    }
}
