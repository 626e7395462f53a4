//! Kernel benches backing E3/E10: tiled matmul, covariance,
//! block SVD — the primitives the paper's "single matrix multiplication
//! per iteration" and covariance/SVD training reduce to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pga_linalg::{covariance_matrix, eigh, svd, JacobiOptions, Matrix};

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut x = seed | 1;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        data.push(((x >> 33) as f64) / (u32::MAX as f64) - 0.5);
    }
    Matrix::from_vec(rows, cols, data).unwrap()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for n in [64usize, 256] {
        let a = filled(n, n, 3);
        let b = filled(n, n, 7);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(black_box(&b)).unwrap()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("covariance");
    group.sample_size(10);
    for p in [32usize, 128] {
        let obs = filled(200, p, 11);
        group.bench_with_input(BenchmarkId::new("200rows", p), &obs, |bch, obs| {
            bch.iter(|| black_box(covariance_matrix(black_box(obs)).unwrap()))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("decomposition");
    group.sample_size(10);
    for n in [16usize, 32, 64] {
        let obs = filled(200, n, 13);
        let cov = covariance_matrix(&obs).unwrap();
        group.bench_with_input(BenchmarkId::new("eigh", n), &cov, |bch, cov| {
            bch.iter(|| black_box(eigh(black_box(cov), JacobiOptions::default()).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("svd", n), &cov, |bch, cov| {
            bch.iter(|| black_box(svd(black_box(cov)).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
