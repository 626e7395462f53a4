//! E3 — online FDR evaluation throughput (paper: 939k samples/sec).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pga_detect::{train_unit, OnlineEvaluator};
use pga_linalg::Matrix;
use pga_sensorgen::{Fleet, FleetConfig};
use pga_stats::Procedure;

fn setup(sensors: u32) -> (OnlineEvaluator, Matrix) {
    let fleet = Fleet::new(FleetConfig {
        units: 1,
        sensors_per_unit: sensors,
        ..FleetConfig::paper_scale(9)
    });
    let obs = fleet.observation_window(0, 199, 200);
    let model = train_unit(0, &obs).unwrap();
    let ev = OnlineEvaluator::new(model, Procedure::BenjaminiHochberg, 0.05);
    (ev, fleet.observation_window(0, 350, 50))
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_evaluation");
    group.sample_size(10);
    for sensors in [100u32, 1000] {
        let (ev, window) = setup(sensors);
        let samples_per_window = 50 * sensors as u64;
        group.throughput(Throughput::Elements(samples_per_window));
        group.bench_with_input(
            BenchmarkId::new("single_window", sensors),
            &sensors,
            |bch, _| bch.iter(|| black_box(ev.evaluate(black_box(&window)))),
        );
    }
    group.finish();

    // Print the headline number the paper reports.
    let r = pga_bench::eval_throughput_experiment(1000, 50, 64, 9);
    println!(
        "\nE3: online evaluation sustained {:.0} samples/s (paper: 939,000)\n",
        r.throughput
    );
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
