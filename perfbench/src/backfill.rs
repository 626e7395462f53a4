//! `backfill`: write-only bulk ingest of a 20-unit × 100-sensor fleet
//! through `Monitor::ingest_range` in fixed tick chunks.
//!
//! The write path does nearly all the work (generator → ingest proxy →
//! TSD puts → RPC → region server WAL, memstore and flush); the read,
//! query and detect layers do none. The run is a series of rounds, each
//! on a fresh platform: set-up, then [`ROUND_CHUNKS`] timed chunks of 5
//! ticks × 2,000 series. Each region's 8 MiB memstore fills about every
//! 28 chunks, so it flushes three times inside every round. Rounds keep
//! the process small (one round's history, about 380 MB, where one
//! platform for a whole 30 s run grew to 1.4 GB) and make a run several
//! repetitions of one measurement: the run reports the median over its
//! rounds of each round's median call, tail call and throughput. A round
//! stays inside the first row-hour, where no row is sealed into a block
//! and every sample is one raw cell, and below the eighth flush, whose
//! store-file compaction would stall a single call for over a second.

use pga_minibase::RowRange;
use pga_platform::Monitor;
use pga_sensorgen::Fleet;

use crate::stats::{ratio, Rng, Rounds};
use crate::{demo_config, oracle, probe, rounds, set_up, Outcome, Plan};

/// Units in the backfilled fleet.
pub const UNITS: u32 = 20;
/// Sensors per unit.
pub const SENSORS: u32 = 100;
/// Ticks per `ingest_range` call (10,000 samples).
pub const CHUNK_TICKS: u64 = 5;
/// Chunks per second of `--seconds`.
pub const CHUNKS_PER_SECOND: usize = 20;
/// Timed chunks per round, each round on a fresh platform: enough for a
/// p90 of its own with ten calls beyond it.
pub const ROUND_CHUNKS: usize = 100;
/// Seconds one storage row spans.
const ROW_SPAN_SECS: u64 = 3600;
/// Series per round whose every stored cell is read back and checked.
const SPOT_SERIES: usize = 8;

/// Run the workload.
pub fn run(plan: Plan) -> Result<Outcome, String> {
    let mut out = Outcome::new(plan.trace);
    let config = demo_config(plan.seed, UNITS, SENSORS);
    let per_tick = u64::from(UNITS * SENSORS);
    // The raw-cell count below holds while no row is old enough to be
    // sealed into a block, that is inside the first row-hour.
    if (ROUND_CHUNKS as u64 + 1) * CHUNK_TICKS * config.fleet.sample_period_secs > ROW_SPAN_SECS {
        return Err(format!("{ROUND_CHUNKS} chunks exceed the first row-hour"));
    }

    // Set-up: the platform plus one warm-up chunk, so the first timed
    // call does not pay for UID creation and first allocations.
    let mut setup = || {
        let mut m = Monitor::new(config.clone()).map_err(|e| e.to_string())?;
        let r = m.ingest_range(0, CHUNK_TICKS);
        if r.samples != per_tick * CHUNK_TICKS {
            return Err(format!("warm-up ingested {} samples", r.samples));
        }
        Ok((m, ()))
    };
    let fleet = Fleet::new(config.fleet.clone());
    let mut rng = Rng::new(plan.seed, 1);
    let mut setup_s = Vec::new();
    let mut call_ms = Vec::with_capacity(plan.size);
    let mut run_range_ms = Vec::with_capacity(plan.size);
    let mut samples = 0u64;
    let mut figures = Rounds::default();
    let (mut rpcs, mut points) = (0u64, 0u64);
    let sizes = rounds(plan.size, ROUND_CHUNKS);
    let mut kept = None;
    for (round, &chunks) in sizes.iter().enumerate() {
        let (mut monitor, ()) = set_up(&mut setup, &mut setup_s)?;
        let puts0 = probe::tsd_puts(&monitor);
        let engine0 = monitor.engine().stats();
        for k in 1..=chunks as u64 {
            let t0 = k * CHUNK_TICKS;
            let step = call_ms.len() as u64;
            let (r, ms) = out.tracer.span("platform.ingest_range", step, || {
                monitor.ingest_range(t0, t0 + CHUNK_TICKS)
            });
            out.attempted += 1;
            call_ms.push(ms);
            run_range_ms.push(r.elapsed_secs * 1e3);
            if r.samples != per_tick * CHUNK_TICKS {
                out.mismatches.push(format!(
                    "round {round} chunk {k}: {} samples ingested, expected {}",
                    r.samples,
                    per_tick * CHUNK_TICKS
                ));
            }
            samples += r.samples;
        }
        let timed = &call_ms[call_ms.len() - chunks..];
        let round_ms: f64 = timed.iter().sum();
        let round_samples = per_tick * CHUNK_TICKS * chunks as u64;
        figures.push(timed, ratio(round_samples as f64, round_ms / 1e3));
        let puts1 = probe::tsd_puts(&monitor);
        rpcs += puts1.0 - puts0.0;
        points += puts1.1 - puts0.1;
        let engine1 = monitor.engine().stats();
        let end_tick = (chunks as u64 + 1) * CHUNK_TICKS;

        // Oracle: every raw cell of the fleet, counted by a scan of the
        // whole table: one cell per series and tick, so the count equals
        // the samples of the warm-up chunk and the timed chunks. (The
        // region counters are no help here: they also count the rollup
        // cells written beside the raw ones.) Then seeded series read
        // back cell for cell equal the generator.
        match raw_cells(&monitor, end_tick) {
            Ok(n) if n == per_tick * end_tick => {}
            Ok(n) => out.mismatches.push(format!(
                "round {round}: {n} raw cells stored for {} samples",
                per_tick * end_tick
            )),
            Err(e) => out.mismatches.push(e),
        }
        for _ in 0..SPOT_SERIES {
            let unit = rng.below(u64::from(UNITS)) as u32;
            let sensor = rng.below(u64::from(SENSORS)) as u32;
            let r = stored_series(&monitor, unit, sensor, end_tick)
                .and_then(|pts| oracle::check_series(&fleet, unit, sensor, &pts, 0, end_tick));
            out.check(r);
        }
        if round + 1 < sizes.len() {
            out.retire(monitor)?;
        } else {
            kept = Some((monitor, engine0, engine1, end_tick, chunks));
        }
    }
    let (monitor, engine0, engine1, end_tick, last_chunks) =
        kept.ok_or_else(|| "a run needs at least one chunk".to_string())?;
    if samples != per_tick * CHUNK_TICKS * plan.size as u64 {
        out.mismatches
            .push(format!("{samples} samples ingested over the timed loop"));
    }

    let (p50, tail, rate) = (figures.p50(), figures.tail(), figures.rate());
    out.served("ingest_samples_per_s", "1/s", rate);
    out.served("ingest_call_p50_ms", "ms", p50);
    out.served_tail("ingest_call_tail_ms", "ms", tail);

    if plan.trace {
        let mid = end_tick / 2;
        let pr = probe::run(
            &monitor,
            &mut out.tracer,
            &[0],
            end_tick - 1,
            config.eval_window,
            mid..mid + CHUNK_TICKS,
        )?;
        let bytes =
            probe::render_page(&monitor, &mut out.tracer, end_tick - 1, config.eval_window)?;
        let counters = probe::Counters {
            run_range_ms: &run_range_ms,
            samples_per_call: per_tick * CHUNK_TICKS,
            puts: ((0, 0), (rpcs, points)),
            // Backfill trains nothing: the scheduler figures read 0.
            sched: pga_dataflow::DataflowStats::default(),
            retrains: 0,
            // The engine counters of the last round, whose platform the
            // probes read.
            engine: (engine0, engine1),
            steps: last_chunks as f64,
            false_alarms_per_unit_hr: 0.0,
            evaluate_at_ms: 0.0,
            anomaly_puts_per_step: 0.0,
            render: (out.tracer.mean_ms("viz.render"), bytes),
        };
        probe::report(&mut out, &pr, counters);
    }
    out.finish(monitor, setup, plan.setup_reps, setup_s, (p50, tail), rate)?;
    Ok(out)
}

/// Every raw cell stored for one series over ticks `[0, end_tick)`, read
/// row by row with the row keys the ingest path wrote.
fn stored_series(
    monitor: &Monitor,
    unit: u32,
    sensor: u32,
    end_tick: u64,
) -> Result<Vec<(u64, f64)>, String> {
    let tsd = monitor.tsd();
    let codec = tsd.codec();
    let period = monitor.config().fleet.sample_period_secs;
    let (u, s) = (unit.to_string(), sensor.to_string());
    let tags = [("unit", u.as_str()), ("sensor", s.as_str())];
    let mut points = Vec::new();
    let mut base = 0;
    while base < end_tick * period {
        let row = codec.row_key("energy", &tags, base);
        let mut stop = row.to_vec();
        stop.push(0);
        let cells = tsd
            .client()
            .scan(&RowRange::new(row.clone(), stop))
            .map_err(|e| format!("read-back scan failed: {e}"))?;
        for c in cells.iter().filter(|c| c.row == row) {
            let p = codec
                .decode(&c.row, &c.qualifier, &c.value)
                .ok_or_else(|| format!("unit {unit} sensor {sensor}: undecodable cell"))?;
            points.push((p.timestamp / period, p.value));
        }
        base += ROW_SPAN_SECS;
    }
    Ok(points)
}

/// Raw cells of metric `energy` stored over ticks `[0, end_tick)`, counted
/// salt by salt so no scan holds more than one salt bucket's cells.
fn raw_cells(monitor: &Monitor, end_tick: u64) -> Result<u64, String> {
    let tsd = monitor.tsd();
    let codec = tsd.codec();
    let period = monitor.config().fleet.sample_period_secs;
    let mut n = 0u64;
    for salt in codec.salt_range() {
        let (s, e) = codec.scan_range(salt, "energy", 0, end_tick * period - 1);
        let cells = tsd
            .client()
            .scan(&RowRange::new(s, e))
            .map_err(|e| format!("cell-count scan failed: {e}"))?;
        // Raw cells carry a 2-byte qualifier and an 8-byte value; sealed
        // blocks and anything else do not count.
        n += cells
            .iter()
            .filter(|c| c.qualifier.len() == 2 && c.value.len() == 8)
            .count() as u64;
    }
    Ok(n)
}
