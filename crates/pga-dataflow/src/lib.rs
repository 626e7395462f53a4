//! A small Spark-analog batch compute engine.
//!
//! The paper trains offline "in the Spark framework … in batch mode"
//! (§II, §IV-A), caching SVD results to HDFS. This crate supplies the
//! equivalent substrate:
//!
//! * [`Dataflow::map`] — the one parallel operation the training tier
//!   needs: an order-preserving map that cuts its input into
//!   `workers × 2` chunks and runs each chunk as one `pga-sched` task on
//!   the seeded work-stealing scheduler (or the sequential executor with
//!   one worker). Every batch-training caller — fleet training, the
//!   monitor's training pass and incremental retraining — is one such
//!   map over units.
//! * [`DataflowStats`] — cumulative scheduler counters (tasks, steals,
//!   queue depth, task latency) for the platform observability panel.
//! * [`DiskCache`] — a directory-backed object cache standing in for HDFS
//!   ("results from the decomposition are cached to HDFS").
//!
//! The map is eager (it runs immediately, in parallel); lineage,
//! laziness and Spark's wider operator set are orthogonal to everything
//! the paper's workload needs. DESIGN.md §13 describes the scheduler
//! substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dataset;

pub use cache::{CacheError, DiskCache};
pub use dataset::{Dataflow, DataflowStats};
