//! `dashboard`: a read-only request mix from one client against the
//! history `pga dashboard` builds before it serves (700 ticks ingested,
//! `train(149)`, four `evaluate_at`).
//!
//! The mix is the dashboard's own route table, refreshed. One refresh
//! sends one request to each read route `pga dashboard` serves: `GET /`
//! (fleet overview), `GET /machine/<u>`, `POST /api/query` (the 60 s
//! downsampled full history of the same unit, which the rollup planner
//! answers), `GET /heatmap` and `GET /cluster`. The unit is drawn per
//! refresh from a Zipf-like law over a seeded ranking of the units, so
//! hot units repeat. `POST /api/put` is a write and stays out.
//!
//! Two numbers are assumptions, not measurements, since no access log of
//! the dashboard exists: the Zipf exponent, 0.8, inside the 0.64-0.83
//! range Breslau et al. ("Web Caching and Zipf-like Distributions",
//! INFOCOM 1999) measured on web proxy traces; and one refresh per second,
//! as a wall display polling the page would send.
//!
//! The result cache expires entries `cache_ttl_ms` (5 s) of wall-clock
//! time after they are filled, so at one refresh per second five refreshes
//! share cache entries. The run gives that a fixed structure: epoch `e` is
//! the `cache_ttl_ms / REFRESH_MS` refreshes of one TTL period and reads
//! windows ending at tick `699 - e`, so no key repeats across epochs and
//! every repeat falls within one epoch, well inside the TTL. The hit count
//! then follows from the seeded draws alone, not from how fast the build
//! is; the run reports it next to the count the draws predict.
//!
//! The client's unit of work is a refresh, as a live step (ingest, then
//! evaluate) is on `live`: `request_p50_ms` and `request_tail_ms` are
//! taken over refreshes, each the sum of its five requests' latencies.
//! Per request, cheap pages (fleet, cluster, cached query and heatmap) make
//! up about half the mix, so a per-request median sits on the edge between
//! two cost classes and moves with the draws; it is printed as
//! `page_p50_ms` / `page_tail_ms`.

use pga_platform::Monitor;
use pga_sensorgen::Fleet;
use pga_tsdb::{Aggregator, QueryFilter};

use crate::oracle::{check_downsampled, check_page};
use crate::stats::{median, ratio, tail, Rng};
use crate::{probe, set_up, Outcome, Plan};

/// Ticks of history, as `pga dashboard` ingests.
pub const HISTORY: u64 = 700;
/// Last tick of the training window, as `pga dashboard` trains.
pub const TRAIN_END: u64 = 149;
/// Ticks `pga dashboard` evaluates before it serves.
pub const SETUP_EVALS: [u64; 4] = [400, 500, 600, HISTORY - 1];
/// Ticks a machine page shows, as `pga dashboard` serves it.
pub const PAGE_TICKS: usize = 300;
/// Panels per machine page, as `pga dashboard` serves it.
pub const PAGE_PANELS: usize = 24;
/// Downsampling interval of the full-history query (the 60 s rollup tier).
pub const DOWNSAMPLE_SECS: u64 = 60;
/// Heatmap bucket width, as `pga dashboard` serves it.
pub const HEATMAP_BUCKET: u64 = 50;
/// Wall-clock time between refreshes (assumed, see the module docs).
pub const REFRESH_MS: u64 = 1000;
/// Exponent of the unit popularity law (assumed, see the module docs).
pub const ZIPF_EXPONENT: f64 = 0.8;
/// Epochs per minute of `--seconds` (an epoch's five refreshes take
/// about 1.3 s, and set-up about 12 s of each run).
pub const EPOCHS_PER_MINUTE: usize = 48;

/// One request of a refresh.
#[derive(Debug, Clone, Copy)]
enum Request {
    Fleet,
    Page(u32),
    Query(u32),
    Heatmap,
    Cluster,
}

/// One refresh: a request to every read route, for unit `unit`, in the
/// order the routes are listed above.
fn refresh(unit: u32) -> [Request; 5] {
    [
        Request::Fleet,
        Request::Page(unit),
        Request::Query(unit),
        Request::Heatmap,
        Request::Cluster,
    ]
}

/// The units of one epoch's refreshes, drawn from the popularity law,
/// and the cache hits they must produce: every repeat of a unit hits its
/// page and its query, and every heatmap after the first hits.
fn epoch_units(rng: &mut Rng, weights: &[f64], refreshes: usize) -> (Vec<u32>, u64) {
    let units: Vec<u32> = (0..refreshes)
        .map(|_| rng.weighted(weights) as u32)
        .collect();
    let mut distinct = units.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let repeats = (units.len() - distinct.len()) as u64;
    (units, 2 * repeats + refreshes.saturating_sub(1) as u64)
}

/// Run the workload.
pub fn run(plan: Plan) -> Result<Outcome, String> {
    let mut out = Outcome::new(plan.trace);
    let config = pga_platform::PlatformConfig::demo(plan.seed);
    let units = config.fleet.units;
    let last = HISTORY - 1;
    if plan.size as u64 > HISTORY - PAGE_TICKS as u64 - 4 {
        return Err(format!("{} epochs exceed the history", plan.size));
    }

    let mut setup = || {
        let mut m = Monitor::new(config.clone()).map_err(|e| e.to_string())?;
        let puts0 = probe::tsd_puts(&m);
        let report = m.ingest_range(0, HISTORY);
        let puts = (puts0, probe::tsd_puts(&m));
        m.train(TRAIN_END)
            .map_err(|e| format!("training failed: {e}"))?;
        let mut eval_ms = Vec::new();
        for k in SETUP_EVALS {
            let t = std::time::Instant::now();
            m.evaluate_at(k)
                .map_err(|e| format!("evaluate_at({k}) failed: {e}"))?;
            eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        Ok((m, (report, puts, eval_ms)))
    };
    let mut setup_s = Vec::new();
    let (monitor, (report, puts, setup_eval_ms)) = set_up(&mut setup, &mut setup_s)?;
    let fleet = Fleet::new(config.fleet.clone());
    let engine0 = monitor.engine().stats();
    let sched = monitor.dataflow_stats();

    let refreshes = (config.query.cache_ttl_ms / REFRESH_MS).max(1) as usize;
    // Popularity by rank; the ranking of the units is a seeded shuffle.
    let mut rng = Rng::new(plan.seed, 2);
    let mut ranking: Vec<u32> = (0..units).collect();
    rng.shuffle(&mut ranking);
    let mut weights = vec![0.0; units as usize];
    for (r, &u) in ranking.iter().enumerate() {
        weights[u as usize] = 1.0 / (r as f64 + 1.0).powf(ZIPF_EXPONENT);
    }
    let (mut request_ms, mut refresh_ms) = (Vec::new(), Vec::new());
    let mut points = 0u64;
    let mut expected_hits = 0u64;
    for e in 0..plan.size as u64 {
        let t_end = last - e;
        let (drawn, hits) = epoch_units(&mut rng, &weights, refreshes);
        expected_hits += hits;
        for unit in drawn {
            let first = request_ms.len();
            for req in refresh(unit) {
                let step = request_ms.len() as u64;
                out.attempted += 1;
                out.tracer.begin("dashboard.request", step);
                match req {
                    Request::Page(u) => {
                        let (page, _) = out.tracer.span("platform.machine_page_data", step, || {
                            monitor.machine_page_data(u, t_end, PAGE_TICKS, PAGE_PANELS)
                        });
                        match page {
                            Ok(page) => {
                                let (html, _) = out
                                    .tracer
                                    .span("viz.render", step, || pga_viz::machine_page(&page));
                                request_ms.push(out.tracer.end());
                                std::hint::black_box(html);
                                points += page
                                    .panels
                                    .iter()
                                    .map(|p| p.points.len() as u64)
                                    .sum::<u64>();
                                out.check(check_page(&fleet, &page, t_end, PAGE_TICKS));
                            }
                            Err(_) => {
                                request_ms.push(out.tracer.end());
                                out.failed += 1;
                            }
                        }
                    }
                    Request::Query(u) => {
                        let filter = QueryFilter::any().with("unit", &u.to_string());
                        let (q, _) = out.tracer.span("query.engine", step, || {
                            monitor.engine().query(
                                "energy",
                                &filter,
                                0,
                                t_end,
                                Some((DOWNSAMPLE_SECS, Aggregator::Avg)),
                            )
                        });
                        request_ms.push(out.tracer.end());
                        if q.partial.is_some() {
                            out.failed += 1;
                        } else {
                            points += q.series.iter().map(|s| s.points.len() as u64).sum::<u64>();
                            out.check(check_downsampled(
                                &fleet,
                                u,
                                &q.series,
                                0,
                                t_end,
                                DOWNSAMPLE_SECS,
                            ));
                        }
                    }
                    Request::Heatmap => {
                        let (html, _) = out.tracer.span("platform.heatmap_html", step, || {
                            monitor.heatmap_html(0, t_end, HEATMAP_BUCKET)
                        });
                        request_ms.push(out.tracer.end());
                        if !html.contains("<svg") {
                            out.mismatches
                                .push(format!("request {step}: heatmap without a chart"));
                        }
                    }
                    Request::Fleet => {
                        let (html, _) =
                            out.tracer.span("platform.fleet_overview_html", step, || {
                                monitor.fleet_overview_html(0.0)
                            });
                        request_ms.push(out.tracer.end());
                        std::hint::black_box(html);
                    }
                    Request::Cluster => {
                        let (html, _) = out.tracer.span("platform.cluster_page_html", step, || {
                            monitor.cluster_page_html()
                        });
                        request_ms.push(out.tracer.end());
                        std::hint::black_box(html);
                    }
                }
            }
            refresh_ms.push(request_ms[first..].iter().sum());
        }
    }
    let engine1 = monitor.engine().stats();
    let total_ms: f64 = request_ms.iter().sum();
    let served_rate = ratio(points as f64, total_ms / 1e3);
    out.served("page_p50_ms", "ms", median(&request_ms));
    out.served_tail("page_tail_ms", "ms", tail(&request_ms));
    out.served("refresh_p50_ms", "ms", median(&refresh_ms));
    out.served_tail("refresh_tail_ms", "ms", tail(&refresh_ms));
    out.served("points_served_per_s", "1/s", served_rate);
    let hits = engine1.cache_hits - engine0.cache_hits;
    out.served("cache_hits", "count", hits as f64);
    out.served("cache_hits_expected", "count", expected_hits as f64);

    if plan.trace {
        let pr = probe::run(
            &monitor,
            &mut out.tracer,
            &[0, 1],
            last,
            PAGE_TICKS,
            last + 1 - 50..last + 1,
        )?;
        let before = out.tracer.spans().len();
        let bytes = probe::render_page(&monitor, &mut out.tracer, last, PAGE_TICKS)?;
        let counters = probe::Counters {
            run_range_ms: &[report.elapsed_secs * 1e3],
            samples_per_call: report.samples,
            puts,
            sched,
            retrains: 1,
            engine: (engine0, engine1),
            steps: request_ms.len() as f64,
            false_alarms_per_unit_hr: 0.0,
            evaluate_at_ms: median(&setup_eval_ms),
            anomaly_puts_per_step: 0.0,
            render: (out.tracer.mean_ms("viz.render"), bytes),
        };
        probe::report(&mut out, &pr, counters);

        // One page miss, split: the probe page reads a window no request
        // used, so it pays the full storage read.
        let spans = &out.tracer.spans()[before..];
        let ms = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ms())
                .sum::<f64>()
        };
        out.breakdown = vec![
            ("page_miss_data_ms".into(), ms("platform.machine_page_data")),
            ("page_miss_render_ms".into(), ms("viz.render")),
            ("window_from_store_ms".into(), pr.window_from_store_ms),
            ("query_engine_ms".into(), pr.engine_ms),
            ("minibase_scan_ms".into(), pr.scan_ms),
            ("cells_per_point".into(), pr.cells_per_point),
        ];
    }
    out.finish(
        monitor,
        setup,
        plan.setup_reps,
        setup_s,
        (median(&refresh_ms), tail(&refresh_ms)),
        served_rate,
    )?;
    Ok(out)
}
