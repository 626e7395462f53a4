//! The order-preserving parallel map, compiled into `pga-sched` task
//! graphs.
//!
//! [`Dataflow::map`] cuts its input into `workers × 2` chunks and runs
//! each chunk as one task on the work-stealing scheduler
//! ([`pga_sched::run`]) or, with a single worker, the deterministic
//! sequential executor ([`pga_sched::run_sequential`]). Run counters
//! accumulate on the [`Dataflow`] context and are exposed as
//! [`DataflowStats`] for the platform's scheduler-observability panel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pga_sched::{SchedulerConfig, TaskGraph};
use serde::Serialize;

/// Chunks (and so tasks) per worker in one [`Dataflow::map`] call: two
/// give the work-stealing scheduler something to balance.
const CHUNKS_PER_WORKER: usize = 2;

/// Cumulative scheduler counters (atomics; shared by `Dataflow` clones).
#[derive(Debug, Default)]
struct EngineStats {
    graphs: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
    steal_attempts: AtomicU64,
    max_queue_depth: AtomicU64,
    idle_spins: AtomicU64,
    task_ns: AtomicU64,
    /// Per-graph sequence number: each graph gets `seed + seq` so runs
    /// within one context use distinct but replayable RNG streams.
    graph_seq: AtomicU64,
}

/// Snapshot of a context's cumulative scheduler counters.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DataflowStats {
    /// Task graphs executed.
    pub graphs_run: u64,
    /// Tasks executed across all graphs.
    pub tasks_run: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal probes, successful or not.
    pub steal_attempts: u64,
    /// High-water mark of any worker deque depth.
    pub max_queue_depth: u64,
    /// Idle yield loops across all workers.
    pub idle_spins: u64,
    /// Total nanoseconds spent inside task bodies.
    pub task_ns_total: u64,
}

impl DataflowStats {
    /// Mean task body latency in microseconds (0 when nothing ran).
    pub fn mean_task_us(&self) -> f64 {
        if self.tasks_run == 0 {
            0.0
        } else {
            self.task_ns_total as f64 / self.tasks_run as f64 / 1_000.0
        }
    }
}

/// The execution context: worker count, scheduler seed, and cumulative
/// run counters. Cloning shares the counters (clones observe each
/// other's runs through [`Dataflow::stats`]).
#[derive(Debug, Clone)]
pub struct Dataflow {
    workers: usize,
    seed: u64,
    stats: Arc<EngineStats>,
}

impl Dataflow {
    /// A context with `workers` threads (≥ 1) and the default seed.
    pub fn new(workers: usize) -> Self {
        Self::with_seed(workers, 0xDA7A_F70E)
    }

    /// A context with an explicit scheduler seed, for replay harnesses
    /// that need the steal-pressure profile reproducible end to end.
    pub fn with_seed(workers: usize, seed: u64) -> Self {
        assert!(workers >= 1, "need at least one worker");
        Dataflow {
            workers,
            seed,
            stats: Arc::new(EngineStats::default()),
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot the cumulative scheduler counters.
    pub fn stats(&self) -> DataflowStats {
        DataflowStats {
            // pga-allow(relaxed-atomics): independent monotonic counters; snapshot tolerates inter-field skew
            graphs_run: self.stats.graphs.load(Ordering::Relaxed),
            tasks_run: self.stats.tasks.load(Ordering::Relaxed),
            steals: self.stats.steals.load(Ordering::Relaxed),
            steal_attempts: self.stats.steal_attempts.load(Ordering::Relaxed),
            max_queue_depth: self.stats.max_queue_depth.load(Ordering::Relaxed),
            idle_spins: self.stats.idle_spins.load(Ordering::Relaxed),
            task_ns_total: self.stats.task_ns.load(Ordering::Relaxed),
        }
    }

    /// Execute a task graph on the appropriate executor and fold its
    /// report into the cumulative counters. Worker panics inside task
    /// bodies resurface as a panic here (the pre-`pga-sched` engine let
    /// scoped-thread panics propagate the same way); cycles cannot occur
    /// in graphs this module builds, and each holds `2 × workers` tasks.
    fn execute(&self, graph: TaskGraph<'_>) {
        let t0 = std::time::Instant::now();
        let clock: pga_sched::Clock = Arc::new(move || t0.elapsed().as_nanos() as u64);
        let seq = self.stats.graph_seq.fetch_add(1, Ordering::Relaxed);
        let result = if self.workers == 1 {
            pga_sched::run_sequential(graph, Some(&clock))
        } else {
            let config = SchedulerConfig {
                workers: self.workers,
                seed: self.seed.wrapping_add(seq),
            };
            pga_sched::run(graph, &config, Some(&clock))
        };
        let report = match result {
            Ok(report) => report,
            Err(e) => panic!("dataflow task graph failed: {e}"),
        };
        self.stats.graphs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .tasks
            .fetch_add(report.tasks_run, Ordering::Relaxed);
        self.stats
            .steals
            .fetch_add(report.steals, Ordering::Relaxed);
        self.stats
            .steal_attempts
            .fetch_add(report.steal_attempts, Ordering::Relaxed);
        self.stats
            .max_queue_depth
            .fetch_max(report.max_queue_depth, Ordering::Relaxed);
        self.stats
            .idle_spins
            .fetch_add(report.idle_spins, Ordering::Relaxed);
        let stage_ns: u64 = report.stages.iter().map(|s| s.total_ns).sum();
        self.stats.task_ns.fetch_add(stage_ns, Ordering::Relaxed);
    }

    /// Apply `f` to every item in parallel and return the results in
    /// input order.
    ///
    /// The input is cut into `workers × 2` contiguous chunks (the last
    /// ones empty when there are fewer items than chunks), and each chunk
    /// runs as one task, so every call runs exactly `2 × workers` tasks.
    ///
    /// ```
    /// use pga_dataflow::Dataflow;
    ///
    /// let df = Dataflow::new(4);
    /// let squares = df.map((1..=10).collect(), |x: i64| x * x);
    /// assert_eq!(squares, (1..=10i64).map(|x| x * x).collect::<Vec<_>>());
    /// assert_eq!(df.stats().tasks_run, 8);
    /// ```
    pub fn map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let chunks = self.workers * CHUNKS_PER_WORKER;
        let per = items.len().div_ceil(chunks).max(1);
        let outputs: Vec<Mutex<Vec<U>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
        let mut items = items.into_iter();
        let mut graph = TaskGraph::new();
        let f = &f;
        for output in &outputs {
            let chunk: Vec<T> = items.by_ref().take(per).collect();
            graph.add_task("map", move || {
                let mapped: Vec<U> = chunk.into_iter().map(f).collect();
                *output.lock().expect("chunk lock") = mapped;
            });
        }
        self.execute(graph);
        outputs
            .into_iter()
            .flat_map(|o| o.into_inner().expect("chunk lock"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Dataflow {
        Dataflow::new(4)
    }

    #[test]
    fn map_preserves_order() {
        let out = ctx().map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn more_partitions_than_elements() {
        // 2 items across 8 chunks: the empty chunks still run and add nothing.
        assert_eq!(ctx().map(vec![1, 2], |x: i32| x + 1), vec![2, 3]);
    }

    #[test]
    fn single_worker_matches_many_workers() {
        let serial = Dataflow::new(1).map((0..1000).collect(), |x: i64| x * x);
        let parallel = Dataflow::new(8).map((0..1000).collect(), |x: i64| x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let _ = Dataflow::new(0);
    }

    #[test]
    fn empty_dataset_flows_through_every_operation() {
        let df = ctx();
        assert_eq!(df.map(Vec::<i64>::new(), |x| x + 1), Vec::<i64>::new());
        assert_eq!(df.stats().tasks_run, 8, "empty chunks are still tasks");
    }

    #[test]
    fn stats_accumulate_across_operations() {
        let df = Dataflow::new(3);
        let before = df.stats();
        assert_eq!(before.graphs_run, 0);
        let once = df.map((0..100i64).collect(), |x| x + 1);
        let twice = df.map(once, |x| x * 2);
        assert_eq!(twice.iter().sum::<i64>(), 10_100);
        let after = df.stats();
        // Each map is one graph of 2 × 3 chunk tasks.
        assert_eq!(after.graphs_run, 2);
        assert_eq!(after.tasks_run, 12);
        assert!(after.task_ns_total > 0);
        assert!(after.mean_task_us() > 0.0);
    }

    #[test]
    fn seeded_contexts_share_stats_across_clones() {
        let df = Dataflow::with_seed(2, 99);
        let clone = df.clone();
        let _ = clone.map((0..10i32).collect(), |x| x);
        assert_eq!(df.stats().graphs_run, 1);
    }
}
