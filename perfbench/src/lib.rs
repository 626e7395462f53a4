//! Served-path benchmark for the monitoring platform.
//!
//! Three closed-loop workloads drive `pga_platform::Monitor` (the system
//! behind `pga demo` / `pga dashboard`) from one client thread, built from
//! `PlatformConfig::demo(seed)` with only the fleet shape changed:
//!
//! - [`backfill`]: write-only bulk ingest, where the write path does the
//!   work and reads, queries and detection do none;
//! - [`live`]: ingest a chunk, evaluate the newest tick, retrain every few
//!   steps; every evaluation window is new, so each verdict pays a full
//!   storage read;
//! - [`dashboard`]: a read-only page mix over a fixed history, where the
//!   result cache, the rollup planner and the renderers do the work.
//!
//! Every answer is checked against `pga-sensorgen` ground truth
//! ([`oracle`]). A traced run wraps the benchmark's calls in spans
//! ([`trace`]) and, after the timed loop, times shadow calls into the
//! layers below the result cache ([`probe`]).

pub mod backfill;
pub mod dashboard;
pub mod live;
pub mod oracle;
pub mod probe;
pub mod stats;
pub mod trace;

use pga_platform::{Monitor, PlatformConfig};

/// What one run executes. The workload's size is fixed by the plan,
/// never by how fast the program runs, so two builds do the same work.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed: the fleet and the request mix derive from it.
    pub seed: u64,
    /// Backfill chunks, live steps or dashboard epochs.
    pub size: usize,
    /// Set-ups made at least (one per round, then repeats); `setup_s` is
    /// their median.
    pub setup_reps: usize,
    /// Keep spans and run the shadow probes.
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// For a tail: the percentile and the sample count behind it.
    pub tail: Option<stats::Tail>,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Oracle mismatches; any one makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Operations issued to the platform.
    pub attempted: u64,
    /// Operations that ended in a typed error or a partial result.
    pub failed: u64,
    /// The served-path metrics of this workload, by their own names.
    pub served: Vec<Metric>,
    /// The benchmark's end-to-end metrics (the same names on every
    /// workload).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Span recorder of the run.
    pub tracer: trace::Tracer,
    /// Per-layer split of one representative operation (traced runs).
    pub breakdown: Vec<(String, f64)>,
    /// Threads of this process before any platform was built.
    threads: Option<usize>,
}

impl Outcome {
    fn new(trace: bool) -> Self {
        Outcome {
            mismatches: Vec::new(),
            attempted: 0,
            failed: 0,
            served: Vec::new(),
            end_to_end: Vec::new(),
            layers: Vec::new(),
            tracer: trace::Tracer::new(trace),
            breakdown: Vec::new(),
            threads: stats::threads(),
        }
    }

    /// Shut a platform down and wait until its threads have exited. The
    /// region servers run on detached threads that free their regions on
    /// the way out; a set-up or round started before they are gone would
    /// share the cores with that work and time it.
    fn retire(&self, monitor: Monitor) -> Result<(), String> {
        monitor.shutdown();
        drop(monitor);
        let Some(before) = self.threads else {
            return Ok(());
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while stats::threads().is_some_and(|n| n > before) {
            if std::time::Instant::now() > deadline {
                return Err("platform threads still running 60 s after shutdown".into());
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Ok(())
    }

    /// Whether every oracle held.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.mismatches.push(e);
        }
    }

    fn served(&mut self, name: &str, unit: &'static str, value: f64) {
        self.served.push(metric(name, unit, value));
    }

    fn served_tail(&mut self, name: &str, unit: &'static str, t: stats::Tail) {
        self.served.push(Metric {
            tail: Some(t),
            ..metric(name, unit, t.value)
        });
    }

    fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push(metric(name, unit, value));
    }

    /// Close the run and fill in the end-to-end metrics shared by every
    /// workload: set-up time, latency of the workload's request, its
    /// throughput in samples, the share of operations that succeeded and
    /// peak memory.
    ///
    /// The measured platform is retired and peak memory read first; only
    /// then is the set-up repeated, each copy retired at once, so
    /// `setup_s` is a median without the repeats raising the peak.
    fn finish<T>(
        &mut self,
        monitor: Monitor,
        mut setup: impl FnMut() -> Result<(Monitor, T), String>,
        reps: usize,
        mut setup_s: Vec<f64>,
        (request_p50_ms, tail): (f64, stats::Tail),
        samples_per_s: f64,
    ) -> Result<(), String> {
        self.retire(monitor)?;
        let rss = stats::peak_rss_mb();
        while setup_s.len() < reps {
            let (m, _) = set_up(&mut setup, &mut setup_s)?;
            self.retire(m)?;
        }
        let ok = 1.0 - stats::ratio(self.failed as f64, self.attempted as f64);
        self.served("setup_s", "s", stats::median(&setup_s));
        self.served("op_error_ratio", "ratio", 1.0 - ok);
        self.served("peak_rss_mb", "MB", rss);
        self.end_to_end = vec![
            metric("setup_s", "s", stats::median(&setup_s)),
            metric("request_p50_ms", "ms", request_p50_ms),
            Metric {
                tail: Some(tail),
                ..metric("request_tail_ms", "ms", tail.value)
            },
            metric("samples_per_s", "1/s", samples_per_s),
            metric("op_ok_ratio", "ratio", ok),
            metric("peak_rss_mb", "MB", rss),
        ];
        if self.tracer.enabled() {
            // The traced run's own end-to-end figures: against the
            // untraced runs of the same seeds they give the tracing
            // overhead, metric by metric.
            let traced: Vec<Metric> = self
                .end_to_end
                .iter()
                .map(|m| metric(&format!("trace.{}", m.name), m.unit, m.value))
                .collect();
            self.layers.extend(traced);
            let spans = self.tracer.spans().len() as f64;
            self.layer("trace.spans", "count", spans);
        }
        Ok(())
    }
}

/// A named measurement without a tail.
pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        tail: None,
    }
}

/// Sizes of the rounds a run of `total` units of work makes, each on a
/// fresh platform: full rounds of `per_round`, then the remainder.
pub fn rounds(total: usize, per_round: usize) -> Vec<usize> {
    (0..total)
        .step_by(per_round)
        .map(|done| per_round.min(total - done))
        .collect()
}

/// Run one set-up, appending its duration in seconds to `times`.
fn set_up<T>(
    setup: &mut impl FnMut() -> Result<(Monitor, T), String>,
    times: &mut Vec<f64>,
) -> Result<(Monitor, T), String> {
    let t = std::time::Instant::now();
    let built = setup()?;
    times.push(t.elapsed().as_secs_f64());
    Ok(built)
}

/// `PlatformConfig::demo(seed)` with only the fleet shape changed.
pub fn demo_config(seed: u64, units: u32, sensors: u32) -> PlatformConfig {
    let mut c = PlatformConfig::demo(seed);
    c.fleet.units = units;
    c.fleet.sensors_per_unit = sensors;
    c
}

/// Dispatch a workload by name.
pub fn run(workload: &str, plan: Plan) -> Result<Outcome, String> {
    match workload {
        "backfill" => backfill::run(plan),
        "live" => live::run(plan),
        "dashboard" => dashboard::run(plan),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Workload names, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["backfill", "live", "dashboard"];

/// The plan a run of `seconds` uses on `workload`: sizes calibrated so a
/// run takes about `seconds` on a 2-core x86-64 host, but fixed by the
/// arguments alone.
pub fn plan_for(workload: &str, seed: u64, seconds: u64, trace: bool) -> Plan {
    let s = seconds.max(1) as usize;
    let (size, setup_reps) = match workload {
        "backfill" => (backfill::CHUNKS_PER_SECOND * s, 5),
        "live" => (live::STEPS_PER_SECOND * s, 3),
        _ => ((dashboard::EPOCHS_PER_MINUTE * s).div_ceil(60), 2),
    };
    Plan {
        seed,
        size,
        setup_reps,
        trace,
    }
}
