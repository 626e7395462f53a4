//! Shadow calls into the layers the workload's own calls reach only
//! through `Monitor`, run by the traced run after its timed loop.
//!
//! The probes below the result cache (`Client::scan`, `Tsd::query_columns`,
//! `Tsd::put_batch` under a metric no reader asks for) cannot change what
//! the cache holds. The two above it (`QueryEngine::query`,
//! `Monitor::window_from_store`) use window lengths the workload never
//! asks for, so each is a miss, and they run after every workload counter
//! has been read.

use pga_linalg::Matrix;
use pga_minibase::RowRange;
use pga_platform::Monitor;
use pga_sensorgen::SensorSample;
use pga_tsdb::QueryFilter;

use crate::stats::{median, ratio};
use crate::trace::{Tracer, PROBE_STEP};

/// Per-layer figures from the shadow calls (means over the probed units).
#[derive(Debug, Default, Clone)]
pub struct Probe {
    /// `Fleet::tick_into`, nanoseconds per generated sample.
    pub sensorgen_ns_per_sample: f64,
    /// `Tsd::put_batch` of one `batch_size` batch, microseconds.
    pub put_batch_us: f64,
    /// `Tsd::query_columns` of the window, milliseconds.
    pub query_columns_ms: f64,
    /// Scan RPCs one `query_columns` issued.
    pub scan_rpcs_per_query: f64,
    /// `Client::scan` over every salt range of the window, milliseconds.
    pub scan_ms: f64,
    /// Cells those scans returned per point in the window.
    pub cells_per_point: f64,
    /// `QueryEngine::query` of the raw window on a cache miss, ms.
    pub engine_ms: f64,
    /// `Monitor::window_from_store` on a cache miss, ms.
    pub window_from_store_ms: f64,
    /// `OnlineEvaluator::evaluate` on the newest `eval_window` ticks of the
    /// shadow-read window, µs.
    pub evaluate_us: f64,
    /// `train_unit` on the generator's training window, ms.
    pub train_unit_ms: f64,
}

/// Repetitions of the sub-millisecond calls, so each timing is a median.
const REPS: usize = 9;

/// Probe the layers for the window `(t_end - len, t_end]` of each unit in
/// `units`, and time the generator over `gen_ticks`.
pub fn run(
    monitor: &Monitor,
    tr: &mut Tracer,
    units: &[u32],
    t_end: u64,
    len: usize,
    gen_ticks: std::ops::Range<u64>,
) -> Result<Probe, String> {
    // The engine, window and page probes read up to `len + 3` ticks.
    if t_end + 1 < len as u64 + 3 {
        return Err(format!(
            "probe window of {len} ticks precedes tick 0 at {t_end}"
        ));
    }
    let cfg = monitor.config().clone();
    let period = cfg.fleet.sample_period_secs;
    let p = cfg.fleet.sensors_per_unit as usize;
    let tsd = monitor.tsd();
    let codec = tsd.codec();
    let (start, end) = ((t_end + 1 - len as u64) * period, t_end * period);
    let mut per_unit: Vec<Probe> = Vec::new();
    for &u in units {
        let mut pr = Probe::default();
        let filter = QueryFilter::any().with("unit", &u.to_string());

        let mut cells = 0usize;
        let (scan, ms) = tr.span("minibase.scan", PROBE_STEP, || {
            for salt in codec.salt_range() {
                let (s, e) = codec.scan_range(salt, "energy", start, end);
                cells += tsd.client().scan(&RowRange::new(s, e))?.len();
            }
            Ok::<(), pga_minibase::ClientError>(())
        });
        scan.map_err(|e| format!("shadow scan failed: {e}"))?;
        pr.scan_ms = ms;
        pr.cells_per_point = cells as f64 / (p * len) as f64;

        let rpcs = tsd.metrics();
        let before = rpcs.scan_rpcs.load(std::sync::atomic::Ordering::Relaxed);
        let (cols, ms) = tr.span("tsdb.query_columns", PROBE_STEP, || {
            tsd.query_columns("energy", &filter, start, end)
        });
        let cols = cols.map_err(|e| format!("shadow query_columns failed: {e}"))?;
        pr.query_columns_ms = ms;
        pr.scan_rpcs_per_query =
            (rpcs.scan_rpcs.load(std::sync::atomic::Ordering::Relaxed) - before) as f64;
        // The detector scores the newest `eval_window` ticks, as
        // `evaluate_at` does.
        let rows = len.min(cfg.eval_window);
        let mut window = Matrix::zeros(rows, p);
        for s in &cols {
            let j: usize = s.tags["sensor"].parse().map_err(|_| "bad sensor tag")?;
            let tail = s
                .values
                .get(s.values.len().saturating_sub(rows)..)
                .unwrap_or(&[]);
            for (r, &v) in tail.iter().enumerate() {
                window.set(r, j, v);
            }
        }

        let (out, ms) = tr.span("query.engine", PROBE_STEP, || {
            monitor
                .engine()
                .query("energy", &filter, start - period, end, None)
        });
        if out.partial.is_some() || out.from_cache {
            return Err("shadow engine query was partial or cached".into());
        }
        pr.engine_ms = ms;

        let (w, ms) = tr.span("platform.window_from_store", PROBE_STEP, || {
            monitor.window_from_store(u, t_end, len + 2)
        });
        w.map_err(|e| format!("shadow window_from_store failed: {e}"))?;
        pr.window_from_store_ms = ms;

        let train_end = cfg.training_window as u64 - 1;
        let (model, ms) = tr.span("detect.train_unit", PROBE_STEP, || {
            pga_detect::train_unit(
                u,
                &monitor
                    .fleet()
                    .observation_window(u, train_end, cfg.training_window),
            )
        });
        pr.train_unit_ms = ms;
        let ev = pga_detect::OnlineEvaluator::new(
            model.map_err(|e| format!("shadow train_unit failed: {e}"))?,
            cfg.procedure,
            cfg.alpha,
        );
        let evals: Vec<f64> = (0..REPS)
            .map(|_| {
                let (o, ms) = tr.span("detect.evaluate", PROBE_STEP, || ev.evaluate(&window));
                std::hint::black_box(o);
                ms * 1e3
            })
            .collect();
        pr.evaluate_us = median(&evals);
        per_unit.push(pr);
    }

    let mean = |f: fn(&Probe) -> f64| ratio(per_unit.iter().map(f).sum(), per_unit.len() as f64);
    let mut probe = Probe {
        query_columns_ms: mean(|p| p.query_columns_ms),
        scan_rpcs_per_query: mean(|p| p.scan_rpcs_per_query),
        scan_ms: mean(|p| p.scan_ms),
        cells_per_point: mean(|p| p.cells_per_point),
        engine_ms: mean(|p| p.engine_ms),
        window_from_store_ms: mean(|p| p.window_from_store_ms),
        evaluate_us: mean(|p| p.evaluate_us),
        train_unit_ms: mean(|p| p.train_unit_ms),
        ..Probe::default()
    };

    // A batch the size the proxy forwards, under a metric no reader asks
    // for, in the series of the first probed unit.
    let unit = units.first().copied().unwrap_or(0).to_string();
    let sensors: Vec<String> = (0..cfg.batch_size).map(|j| j.to_string()).collect();
    let tags: Vec<[(&str, &str); 2]> = sensors
        .iter()
        .map(|s| [("unit", unit.as_str()), ("sensor", s.as_str())])
        .collect();
    let puts: Vec<f64> = (0..REPS as u64)
        .map(|k| {
            let ts = (t_end + 1 + k) * period;
            let batch: Vec<pga_tsdb::BatchPoint<'_>> =
                tags.iter().map(|t| (&t[..], ts, k as f64)).collect();
            let (r, ms) = tr.span("tsdb.put_batch", PROBE_STEP, || {
                tsd.put_batch("perfbench_shadow", &batch)
            });
            r.map(|()| ms * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("shadow put_batch failed: {e}"))?;
    probe.put_batch_us = median(&puts);

    let mut buf: Vec<SensorSample> = Vec::new();
    let ticks = gen_ticks.end - gen_ticks.start;
    let ((), ms) = tr.span("sensorgen.tick_into", PROBE_STEP, || {
        for t in gen_ticks {
            monitor.fleet().tick_into(t, &mut buf);
            std::hint::black_box(&buf);
            buf.clear();
        }
    });
    let samples = ticks * cfg.fleet.total_sensors();
    probe.sensorgen_ns_per_sample = ratio(ms * 1e6, samples as f64);
    Ok(probe)
}

/// Put RPCs and points written so far by `Monitor::tsd()`, which is TSD 0
/// of the two the demo configuration runs.
pub fn tsd_puts(monitor: &Monitor) -> (u64, u64) {
    use std::sync::atomic::Ordering::Relaxed;
    let m = monitor.tsd().metrics();
    (m.put_rpcs.load(Relaxed), m.points_written.load(Relaxed))
}

/// What the workload's own calls counted, for the per-layer report.
pub struct Counters<'a> {
    /// `PipelineReport::elapsed_secs` of each `ingest_range`, in ms.
    pub run_range_ms: &'a [f64],
    /// Samples per `ingest_range` call.
    pub samples_per_call: u64,
    /// [`tsd_puts`] before and after those calls.
    pub puts: ((u64, u64), (u64, u64)),
    /// Scheduler counters over the workload's training rounds.
    pub sched: pga_dataflow::DataflowStats,
    /// Training rounds those counters cover.
    pub retrains: usize,
    /// Query-engine counters before and after the timed loop.
    pub engine: (
        pga_query::EngineStatsSnapshot,
        pga_query::EngineStatsSnapshot,
    ),
    /// Timed-loop steps (requests on the dashboard).
    pub steps: f64,
    /// Windows flagged on healthy units per unit-hour.
    pub false_alarms_per_unit_hr: f64,
    /// Median `evaluate_at`, ms (0 where the workload evaluates nothing).
    pub evaluate_at_ms: f64,
    /// Anomaly write-backs per step.
    pub anomaly_puts_per_step: f64,
    /// Mean `pga_viz::machine_page` render, ms, and one page's bytes.
    pub render: (f64, f64),
}

/// Emit every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn report(out: &mut crate::Outcome, pr: &Probe, c: Counters<'_>) {
    let (e0, e1) = c.engine;
    let hits = (e1.cache_hits - e0.cache_hits) as f64;
    let misses = (e1.cache_misses - e0.cache_misses) as f64;
    let raw = (e1.raw_plans - e0.raw_plans) as f64;
    let rollup = (e1.rollup_plans - e0.rollup_plans) as f64;
    let retrains = c.retrains as f64;
    let ((rpcs0, points0), (rpcs1, points1)) = c.puts;
    let put_rpcs_per_kpoint = ratio((rpcs1 - rpcs0) as f64 * 1e3, (points1 - points0) as f64);
    let layers = [
        ("sensorgen.ns_per_sample", "ns", pr.sensorgen_ns_per_sample),
        ("ingest.run_range_ms", "ms", median(c.run_range_ms)),
        (
            "ingest.samples_per_call",
            "count",
            c.samples_per_call as f64,
        ),
        ("tsdb.put_batch_us", "us", pr.put_batch_us),
        ("tsdb.put_rpcs_per_kpoint", "count", put_rpcs_per_kpoint),
        ("tsdb.query_columns_ms", "ms", pr.query_columns_ms),
        ("tsdb.scan_rpcs_per_query", "count", pr.scan_rpcs_per_query),
        ("minibase.scan_ms", "ms", pr.scan_ms),
        ("minibase.cells_per_point", "count", pr.cells_per_point),
        ("query.engine_ms", "ms", pr.engine_ms),
        ("query.cache_hit_ratio", "ratio", ratio(hits, hits + misses)),
        (
            "query.rollup_plan_share",
            "ratio",
            ratio(rollup, raw + rollup),
        ),
        (
            "query.fanout_per_exec",
            "count",
            ratio((e1.fanout_total - e0.fanout_total) as f64, raw + rollup),
        ),
        (
            "query.invalidated_per_step",
            "count",
            ratio(
                (e1.cache_invalidated - e0.cache_invalidated) as f64,
                c.steps,
            ),
        ),
        ("detect.evaluate_us", "us", pr.evaluate_us),
        ("detect.train_unit_ms", "ms", pr.train_unit_ms),
        (
            "detect.false_alarms_per_unit_hr",
            "1/unit-hr",
            c.false_alarms_per_unit_hr,
        ),
        (
            "sched.tasks_per_retrain",
            "count",
            ratio(c.sched.tasks_run as f64, retrains),
        ),
        (
            "sched.steals_per_retrain",
            "count",
            ratio(c.sched.steals as f64, retrains),
        ),
        ("sched.mean_task_us", "us", c.sched.mean_task_us()),
        (
            "platform.window_from_store_ms",
            "ms",
            pr.window_from_store_ms,
        ),
        ("platform.evaluate_at_ms", "ms", c.evaluate_at_ms),
        (
            "platform.anomaly_puts_per_step",
            "count",
            c.anomaly_puts_per_step,
        ),
        ("viz.render_ms", "ms", c.render.0),
        ("viz.page_bytes", "bytes", c.render.1),
    ];
    for (name, unit, value) in layers {
        out.layer(name, unit, value);
    }
}

/// Build and render a machine page of a window length no request used
/// (a cache miss); returns the page's bytes.
pub fn render_page(
    monitor: &Monitor,
    tr: &mut Tracer,
    t_end: u64,
    len: usize,
) -> Result<f64, String> {
    let (page, _) = tr.span("platform.machine_page_data", PROBE_STEP, || {
        monitor.machine_page_data(0, t_end, len + 3, 24)
    });
    let page = page.map_err(|e| format!("shadow page failed: {e}"))?;
    let (html, _) = tr.span("viz.render", PROBE_STEP, || pga_viz::machine_page(&page));
    Ok(html.len() as f64)
}

/// `b - a` for cumulative scheduler counters.
pub fn sched_delta(
    a: &pga_dataflow::DataflowStats,
    b: &pga_dataflow::DataflowStats,
) -> pga_dataflow::DataflowStats {
    pga_dataflow::DataflowStats {
        graphs_run: b.graphs_run - a.graphs_run,
        tasks_run: b.tasks_run - a.tasks_run,
        steals: b.steals - a.steals,
        steal_attempts: b.steal_attempts - a.steal_attempts,
        max_queue_depth: b.max_queue_depth,
        idle_spins: b.idle_spins - a.idle_spins,
        task_ns_total: b.task_ns_total - a.task_ns_total,
    }
}

/// Scheduler counters of two stretches of work added up (queue depth: the
/// deeper of the two).
pub fn sched_sum(
    a: &pga_dataflow::DataflowStats,
    b: &pga_dataflow::DataflowStats,
) -> pga_dataflow::DataflowStats {
    pga_dataflow::DataflowStats {
        graphs_run: a.graphs_run + b.graphs_run,
        tasks_run: a.tasks_run + b.tasks_run,
        steals: a.steals + b.steals,
        steal_attempts: a.steal_attempts + b.steal_attempts,
        max_queue_depth: a.max_queue_depth.max(b.max_queue_depth),
        idle_spins: a.idle_spins + b.idle_spins,
        task_ns_total: a.task_ns_total + b.task_ns_total,
    }
}
