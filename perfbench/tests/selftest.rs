//! Self-test of the benchmark: reduced runs pass their oracles, the
//! oracles catch a single altered value in real served answers, and the
//! deterministic counters repeat exactly for a seed.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::oracle::{check_downsampled, check_page, check_verdict, ReferenceDetector};
use perfbench::{demo_config, run, Outcome, Plan};
use pga_platform::Monitor;
use pga_tsdb::{Aggregator, QueryFilter};

fn small(seed: u64, size: usize, trace: bool) -> Plan {
    Plan {
        seed,
        size,
        setup_reps: 1,
        trace,
    }
}

fn assert_clean(workload: &str, out: &Outcome) {
    assert!(out.correct(), "{workload}: {:?}", out.mismatches);
    assert_eq!(out.failed, 0, "{workload}: failed operations");
    assert!(out.attempted > 0);
}

fn layer(out: &Outcome, name: &str) -> f64 {
    out.layers
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("missing per-layer metric {name}"))
        .value
}

fn served(out: &Outcome, name: &str) -> f64 {
    out.served
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("missing metric {name}"))
        .value
}

/// Metric names of one section of `BENCHMARK.json`, in order.
fn contract(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

fn names(ms: &[perfbench::Metric]) -> Vec<String> {
    ms.iter().map(|m| m.name.clone()).collect()
}

#[test]
fn reduced_runs_pass_their_oracles_and_report_the_contract() {
    for (workload, size) in [("backfill", 3), ("live", 6), ("dashboard", 2)] {
        let out = run(workload, small(3, size, false)).unwrap();
        assert_clean(workload, &out);
        assert_eq!(names(&out.end_to_end), contract("end_to_end"), "{workload}");
        assert!(
            out.end_to_end.iter().all(|m| m.value > 0.0),
            "{workload}: a zero metric"
        );
    }
}

#[test]
fn runs_of_several_rounds_pass_their_oracles() {
    assert_eq!(perfbench::rounds(7, 3), vec![3, 3, 1]);
    assert_eq!(perfbench::rounds(3, 3), vec![3]);
    // A full round, then a short one on a second platform.
    for (workload, size) in [
        ("backfill", perfbench::backfill::ROUND_CHUNKS + 2),
        ("live", perfbench::live::ROUND_STEPS + 2),
    ] {
        let out = run(workload, small(4, size, false)).unwrap();
        assert_clean(workload, &out);
        assert!(out.attempted >= size as u64, "{workload}: operations");
    }
}

#[test]
fn traced_runs_repeat_their_counters() {
    // Six live steps include one retrain; two dashboard epochs are 32
    // requests. Each workload runs twice, traced, on the same seed.
    for (workload, size, counters) in [
        (
            "backfill",
            12,
            &["ingest.samples_per_call", "minibase.cells_per_point"][..],
        ),
        (
            "live",
            6,
            &[
                "query.cache_hit_ratio",
                "minibase.cells_per_point",
                "detect.false_alarms_per_unit_hr",
                "platform.anomaly_puts_per_step",
                "query.invalidated_per_step",
                "ingest.samples_per_call",
                "sched.tasks_per_retrain",
            ][..],
        ),
        (
            "dashboard",
            2,
            &[
                "query.cache_hit_ratio",
                "query.rollup_plan_share",
                "minibase.cells_per_point",
                "ingest.samples_per_call",
                "viz.page_bytes",
            ][..],
        ),
    ] {
        let a = run(workload, small(11, size, true)).unwrap();
        let b = run(workload, small(11, size, true)).unwrap();
        assert_clean(workload, &a);
        assert_clean(workload, &b);
        assert_eq!(names(&a.layers), contract("per_layer"), "{workload}");
        assert_eq!(a.attempted, b.attempted, "{workload}: operations");
        for name in counters {
            assert_eq!(
                layer(&a, name).to_bits(),
                layer(&b, name).to_bits(),
                "{workload}: {name} differs between runs of one seed"
            );
        }
        match workload {
            "live" => assert_eq!(
                served(&a, "false_alarms_per_unit_hr"),
                served(&b, "false_alarms_per_unit_hr")
            ),
            "dashboard" => assert_eq!(served(&a, "cache_hits"), served(&a, "cache_hits_expected")),
            _ => {}
        }
    }
}

#[test]
fn oracles_catch_one_altered_value_in_served_answers() {
    let config = demo_config(5, 2, 8);
    let mut m = Monitor::new(config.clone()).unwrap();
    m.ingest_range(0, 200);
    let fleet = pga_sensorgen::Fleet::new(config.fleet.clone());

    let mut page = m.machine_page_data(1, 180, 40, 8).unwrap();
    check_page(&fleet, &page, 180, 40).unwrap();
    page.panels[3].points[17].1 += 1e-9;
    assert!(check_page(&fleet, &page, 180, 40).is_err());

    let filter = QueryFilter::any().with("unit", "1");
    let q = m
        .engine()
        .query("energy", &filter, 0, 179, Some((60, Aggregator::Avg)));
    check_downsampled(&fleet, 1, &q.series, 0, 179, 60).unwrap();
    let mut series = q.series.clone();
    series[2].points[1].value += 1e-6;
    assert!(check_downsampled(&fleet, 1, &series, 0, 179, 60).is_err());

    m.train_incremental(159).unwrap();
    let reference = ReferenceDetector::new(&config, 159).unwrap();
    let served = m.evaluate_at(199).unwrap();
    let want = reference.verdicts(199);
    for (got, want) in served.iter().zip(&want) {
        check_verdict(got, want).unwrap();
    }
    let mut altered = served[0].clone();
    altered.p_values[4] = f64::from_bits(altered.p_values[4].to_bits() ^ 1);
    assert!(check_verdict(&altered, &want[0]).is_err());
    m.shutdown();
}
