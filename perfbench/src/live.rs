//! `live`: the served monitoring loop on the 8 × 64 demo fleet.
//!
//! Set-up ingests a warm-up history and runs the first incremental
//! training. Each step then ingests a fixed chunk of new ticks and
//! evaluates the newest tick; every few steps it retrains. Writes and
//! reads alternate on the same regions, every evaluation window is new
//! (so the result cache is bypassed), and a round stays inside the first
//! 3600 s row-hour, so each read scans more cells than the one before.
//! The run is a series of rounds of [`ROUND_STEPS`] steps, each on a
//! fresh platform, as on `backfill`: the run reports the median over its
//! rounds of each round's median and tail verdict latency and evaluation
//! rate, and every round covers the same stretch of the row-hour whatever
//! `--seconds` is.

use std::collections::BTreeMap;

use pga_platform::Monitor;
use pga_sensorgen::{FaultClass, Fleet};

use crate::oracle::{check_verdict, ReferenceDetector};
use crate::stats::{median, ratio, tail, Rounds};
use crate::{probe, rounds, set_up, Outcome, Plan};

/// Ticks ingested before the timed loop: the demo's 150-tick training
/// window plus 10, so the first training window ends at the last of them.
pub const WARM_TICKS: u64 = 160;
/// Ticks ingested per step. An assumption: the CLI has no live loop, and
/// the 100-tick chunks of `examples/fleet_monitor.rs` would leave a run
/// too few steps for a tail percentile and carry it past the row-hour.
pub const CHUNK_TICKS: u64 = 3;
/// Steps between incremental retrains. An assumption: nothing in the
/// platform sets a cadence; every 5th step gives a retrain median from
/// one run while most steps measure ingest and evaluation alone.
pub const RETRAIN_EVERY: usize = 5;
/// Steps per round, each round on a fresh platform (120 ticks, ending at
/// tick 279): enough for a p75 of its own with ten steps beyond it.
pub const ROUND_STEPS: usize = 40;
/// Steps per second of `--seconds`.
pub const STEPS_PER_SECOND: usize = 3;

/// Run the workload.
pub fn run(plan: Plan) -> Result<Outcome, String> {
    let mut out = Outcome::new(plan.trace);
    let config = pga_platform::PlatformConfig::demo(plan.seed);
    let units = config.fleet.units;
    let samples_per_chunk = u64::from(units * config.fleet.sensors_per_unit) * CHUNK_TICKS;

    let mut setup = || {
        let mut m = Monitor::new(config.clone()).map_err(|e| e.to_string())?;
        m.ingest_range(0, WARM_TICKS);
        m.train_incremental(WARM_TICKS - 1)
            .map_err(|e| format!("first training failed: {e}"))?;
        Ok((m, ()))
    };
    let mut setup_s = Vec::new();
    let fleet = Fleet::new(config.fleet.clone());
    let healthy: Vec<bool> = (0..units)
        .map(|u| fleet.fault(u).class == FaultClass::Healthy)
        .collect();

    let (mut ingest_ms, mut run_range_ms, mut verdict_ms, mut eval_ms, mut retrain_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ingested, mut scored, mut flags, mut false_alarms) = (0u64, 0u64, 0u64, 0u64);
    let (mut rpcs, mut points) = (0u64, 0u64);
    let mut sched = pga_dataflow::DataflowStats::default();
    let mut figures = Rounds::default();
    let sizes = rounds(plan.size, ROUND_STEPS);
    let mut kept = None;
    for (round, &round_steps) in sizes.iter().enumerate() {
        let (mut monitor, ()) = set_up(&mut setup, &mut setup_s)?;
        let mut reference = ReferenceDetector::new(&config, WARM_TICKS - 1)?;
        let puts0 = probe::tsd_puts(&monitor);
        let engine0 = monitor.engine().stats();
        let sched0 = monitor.dataflow_stats();
        let scored0 = scored;
        for k in 0..round_steps {
            let step = ingest_ms.len() as u64;
            let t0 = WARM_TICKS + k as u64 * CHUNK_TICKS;
            let t_end = t0 + CHUNK_TICKS - 1;
            out.tracer.begin("live.step", step);
            let (report, ms) = out.tracer.span("platform.ingest_range", step, || {
                monitor.ingest_range(t0, t_end + 1)
            });
            ingest_ms.push(ms);
            run_range_ms.push(report.elapsed_secs * 1e3);
            ingested += report.samples;
            let (verdicts, eval) = out
                .tracer
                .span("platform.evaluate_at", step, || monitor.evaluate_at(t_end));
            eval_ms.push(eval);
            verdict_ms.push(ms + eval);
            out.attempted += 2;
            let retrain = (k + 1) % RETRAIN_EVERY == 0;
            let retrained = retrain.then(|| {
                out.tracer.span("platform.train_incremental", step, || {
                    monitor.train_incremental(t_end)
                })
            });
            out.tracer.end();

            if report.samples != samples_per_chunk {
                out.mismatches.push(format!(
                    "round {round} step {k}: {} samples ingested, expected {samples_per_chunk}",
                    report.samples
                ));
            }
            match verdicts {
                Ok(verdicts) => {
                    let want = reference.verdicts(t_end);
                    if verdicts.len() != want.len() {
                        out.mismatches.push(format!(
                            "round {round} step {k}: {} verdicts for {units} units",
                            verdicts.len()
                        ));
                    }
                    for (got, want) in verdicts.iter().zip(&want) {
                        out.check(
                            check_verdict(got, want)
                                .map_err(|e| format!("round {round} step {k}: {e}")),
                        );
                        scored += got.samples_scored;
                        flags += got.flags.len() as u64;
                        if healthy[got.unit as usize] && !got.flags.is_empty() {
                            false_alarms += 1;
                        }
                    }
                }
                Err(_) => out.failed += 1,
            }
            if let Some((r, ms)) = retrained {
                out.attempted += 1;
                retrain_ms.push(ms);
                match r {
                    Ok(_) => reference.retrain(t_end)?,
                    Err(_) => out.failed += 1,
                }
            }
        }
        let first = verdict_ms.len() - round_steps;
        let eval_round: f64 = eval_ms[first..].iter().sum();
        figures.push(
            &verdict_ms[first..],
            ratio((scored - scored0) as f64, eval_round / 1e3),
        );
        let puts1 = probe::tsd_puts(&monitor);
        rpcs += puts1.0 - puts0.0;
        points += puts1.1 - puts0.1;
        sched = probe::sched_sum(
            &sched,
            &probe::sched_delta(&sched0, &monitor.dataflow_stats()),
        );
        if round + 1 < sizes.len() {
            out.retire(monitor)?;
        } else {
            // The engine counters of the last round, whose platform the
            // probes read.
            let engine = (engine0, monitor.engine().stats());
            kept = Some((monitor, round_steps, engine));
        }
    }
    let (monitor, last_steps, engine) =
        kept.ok_or_else(|| "a run needs at least one step".to_string())?;

    let steps = plan.size as f64;
    let ingest_total: f64 = ingest_ms.iter().sum();
    let eval_rate = figures.rate();
    let unit_hours = healthy.iter().filter(|h| **h).count() as f64
        * steps
        * CHUNK_TICKS as f64
        * config.fleet.sample_period_secs as f64
        / 3600.0;
    out.served(
        "ingest_samples_per_s",
        "1/s",
        ratio(ingested as f64, ingest_total / 1e3),
    );
    out.served("ingest_call_p50_ms", "ms", median(&ingest_ms));
    out.served_tail("ingest_call_tail_ms", "ms", tail(&ingest_ms));
    out.served("verdict_p50_ms", "ms", figures.p50());
    out.served_tail("verdict_tail_ms", "ms", figures.tail());
    out.served("eval_samples_per_s", "1/s", eval_rate);
    out.served("retrain_p50_ms", "ms", median(&retrain_ms));
    out.served(
        "false_alarms_per_unit_hr",
        "1/unit-hr",
        ratio(false_alarms as f64, unit_hours),
    );

    if plan.trace {
        let last = plan.size.saturating_sub(1) as u64;
        let t_last = WARM_TICKS + last_steps as u64 * CHUNK_TICKS - 1;
        let pr = probe::run(
            &monitor,
            &mut out.tracer,
            &[0, 1],
            t_last,
            config.eval_window,
            WARM_TICKS..t_last + 1,
        )?;
        let bytes = probe::render_page(&monitor, &mut out.tracer, t_last, config.eval_window)?;
        let counters = probe::Counters {
            run_range_ms: &run_range_ms,
            samples_per_call: samples_per_chunk,
            puts: ((0, 0), (rpcs, points)),
            sched,
            retrains: retrain_ms.len(),
            engine,
            steps: last_steps as f64,
            false_alarms_per_unit_hr: ratio(false_alarms as f64, unit_hours),
            evaluate_at_ms: median(&eval_ms),
            anomaly_puts_per_step: flags as f64 / steps,
            render: (out.tracer.mean_ms("viz.render"), bytes),
        };
        probe::report(&mut out, &pr, counters);

        // One step's split: the last step's spans against the probes,
        // which read the same windows at the same tick.
        let step = out.tracer.breakdown(Some(last));
        let n = f64::from(units);
        let mut b: BTreeMap<&str, f64> = BTreeMap::new();
        b.insert("step_ms", step.get("live.step").map_or(0.0, |s| s.1));
        b.insert(
            "ingest_range_ms",
            step.get("platform.ingest_range").map_or(0.0, |s| s.1),
        );
        b.insert(
            "evaluate_at_ms",
            step.get("platform.evaluate_at").map_or(0.0, |s| s.1),
        );
        b.insert(
            "train_incremental_ms",
            step.get("platform.train_incremental").map_or(0.0, |s| s.1),
        );
        b.insert("units", n);
        b.insert("window_from_store_ms_x_units", pr.window_from_store_ms * n);
        b.insert("query_engine_ms_x_units", pr.engine_ms * n);
        b.insert("minibase_scan_ms_x_units", pr.scan_ms * n);
        b.insert("detect_evaluate_ms_x_units", pr.evaluate_us / 1e3 * n);
        b.insert("cells_per_point", pr.cells_per_point);
        out.breakdown = b.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    }
    out.finish(
        monitor,
        setup,
        plan.setup_reps,
        setup_s,
        (figures.p50(), figures.tail()),
        eval_rate,
    )?;
    Ok(out)
}
