//! Ground truth from `pga-sensorgen`: every answer the served path gives
//! is checked against values the generator produces on its own.
//!
//! Each check returns `Err(description)` on the first mismatch.

use pga_detect::{EvalOutcome, FleetTrainer, OnlineEvaluator};
use pga_sensorgen::Fleet;
use pga_tsdb::TimeSeries;
use pga_viz::MachinePage;

/// Raw points of one series, `(tick, value)`, must be exactly the ticks
/// `t0..t1` with the generator's values.
pub fn check_series(
    fleet: &Fleet,
    unit: u32,
    sensor: u32,
    points: &[(u64, f64)],
    t0: u64,
    t1: u64,
) -> Result<(), String> {
    if points.len() as u64 != t1 - t0 {
        return Err(format!(
            "unit {unit} sensor {sensor}: {} points stored for {} ticks",
            points.len(),
            t1 - t0
        ));
    }
    for (&(tick, v), want_tick) in points.iter().zip(t0..t1) {
        let want = fleet.sample(unit, sensor, want_tick);
        if tick != want_tick || v.to_bits() != want.to_bits() {
            return Err(format!(
                "unit {unit} sensor {sensor}: point ({tick}, {v}) where the generator has ({want_tick}, {want})"
            ));
        }
    }
    Ok(())
}

/// A served verdict must equal the reference flag for flag and p-value
/// for p-value (bitwise).
pub fn check_verdict(observed: &EvalOutcome, reference: &EvalOutcome) -> Result<(), String> {
    let unit = reference.unit;
    if observed.unit != unit || observed.samples_scored != reference.samples_scored {
        return Err(format!(
            "unit {unit}: verdict for unit {} scored {} samples, reference {}",
            observed.unit, observed.samples_scored, reference.samples_scored
        ));
    }
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&observed.p_values) != bits(&reference.p_values) {
        return Err(format!("unit {unit}: p-values differ from the reference"));
    }
    let flags = |o: &EvalOutcome| {
        o.flags
            .iter()
            .map(|f| (f.sensor, f.p_value.to_bits()))
            .collect::<Vec<_>>()
    };
    if flags(observed) != flags(reference) || observed.rejected != reference.rejected {
        return Err(format!(
            "unit {unit}: {} flags served, reference has {}",
            observed.flags.len(),
            reference.flags.len()
        ));
    }
    Ok(())
}

/// Machine-page panels must carry the generator's samples for the window
/// `(t_end - len, t_end]`.
pub fn check_page(fleet: &Fleet, page: &MachinePage, t_end: u64, len: usize) -> Result<(), String> {
    let start = t_end + 1 - len as u64;
    let p = fleet.config().sensors_per_unit as usize;
    if page.panels.is_empty() || page.panels.len() > p {
        return Err(format!("unit {}: {} panels", page.unit, page.panels.len()));
    }
    for panel in &page.panels {
        check_series(
            fleet,
            page.unit,
            panel.sensor,
            &panel.points,
            start,
            t_end + 1,
        )?;
    }
    Ok(())
}

/// Each downsampled bucket must equal the mean of the generator's values
/// over the bucket's part of `[start, end]`, within `1e-9` relative: the
/// rollup tier sums in storage order, the oracle in tick order.
pub fn check_downsampled(
    fleet: &Fleet,
    unit: u32,
    series: &[TimeSeries],
    start: u64,
    end: u64,
    interval: u64,
) -> Result<(), String> {
    let p = fleet.config().sensors_per_unit as usize;
    if series.len() != p {
        return Err(format!(
            "unit {unit}: {} series, fleet has {p}",
            series.len()
        ));
    }
    let buckets = (end / interval - start / interval + 1) as usize;
    for s in series {
        let sensor: u32 = s
            .tags
            .get("sensor")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unit {unit}: series without a sensor tag"))?;
        if s.points.len() != buckets {
            return Err(format!(
                "unit {unit} sensor {sensor}: {} buckets, expected {buckets}",
                s.points.len()
            ));
        }
        for pt in &s.points {
            let b0 = pt.timestamp.max(start);
            let b1 = (pt.timestamp - pt.timestamp % interval + interval - 1).min(end);
            let n = (b1 + 1 - b0) as f64;
            let want = (b0..=b1)
                .map(|t| fleet.sample(unit, sensor, t))
                .sum::<f64>()
                / n;
            if (pt.value - want).abs() > 1e-9 * want.abs().max(1.0) {
                return Err(format!(
                    "unit {unit} sensor {sensor}: bucket {} = {}, generator mean {want}",
                    pt.timestamp, pt.value
                ));
            }
        }
    }
    Ok(())
}

/// The verdict the served path must reproduce, built from generator
/// windows alone: the same incremental trainer the platform runs, fed
/// rows straight from `Fleet`, and `OnlineEvaluator::evaluate` on the
/// generator's evaluation window.
pub struct ReferenceDetector {
    fleet: Fleet,
    trainer: FleetTrainer,
    dataflow: pga_dataflow::Dataflow,
    evaluators: Vec<OnlineEvaluator>,
    trained_through: u64,
    procedure: pga_stats::Procedure,
    alpha: f64,
    eval_window: usize,
}

impl ReferenceDetector {
    /// Train on the generator's window of `training_window` ticks ending
    /// at `t_end`, as the platform's first incremental training does.
    pub fn new(config: &pga_platform::PlatformConfig, t_end: u64) -> Result<Self, String> {
        let fleet = Fleet::new(config.fleet.clone());
        let units: Vec<u32> = (0..config.fleet.units).collect();
        let mut r = ReferenceDetector {
            trainer: FleetTrainer::new(&units, config.fleet.sensors_per_unit as usize),
            fleet,
            dataflow: pga_dataflow::Dataflow::new(1),
            evaluators: Vec::new(),
            trained_through: t_end - config.training_window as u64,
            procedure: config.procedure,
            alpha: config.alpha,
            eval_window: config.eval_window,
        };
        r.retrain(t_end)?;
        Ok(r)
    }

    /// Add the generator's rows `(trained_through, t_end]` and refit.
    pub fn retrain(&mut self, t_end: u64) -> Result<(), String> {
        let len = (t_end - self.trained_through) as usize;
        if len > 0 {
            for u in 0..self.fleet.config().units {
                let w = self.fleet.observation_window(u, t_end, len);
                let rows: Vec<Vec<f64>> = (0..w.rows()).map(|r| w.row(r).to_vec()).collect();
                self.trainer.ingest(u, &rows);
            }
        }
        if let Some((u, e)) = self.trainer.retrain_dirty(&self.dataflow).first() {
            return Err(format!("reference training failed on unit {u}: {e}"));
        }
        self.trained_through = t_end;
        self.evaluators = self
            .trainer
            .models()
            .values()
            .cloned()
            .map(|m| OnlineEvaluator::new(m, self.procedure, self.alpha))
            .collect();
        Ok(())
    }

    /// Reference verdict of every unit for the window ending at `t_end`.
    pub fn verdicts(&self, t_end: u64) -> Vec<EvalOutcome> {
        self.evaluators
            .iter()
            .map(|ev| {
                let unit = ev.model().unit;
                ev.evaluate(&self.fleet.observation_window(unit, t_end, self.eval_window))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pga_sensorgen::FleetConfig;

    #[test]
    fn altered_point_is_caught() {
        let fleet = Fleet::new(FleetConfig::small(1));
        let mut pts: Vec<(u64, f64)> = (5..15).map(|t| (t, fleet.sample(1, 2, t))).collect();
        assert!(check_series(&fleet, 1, 2, &pts, 5, 15).is_ok());
        pts[4].1 += 1e-12;
        assert!(check_series(&fleet, 1, 2, &pts, 5, 15).is_err());
        pts.pop();
        assert!(check_series(&fleet, 1, 2, &pts, 5, 15).is_err());
    }
}
