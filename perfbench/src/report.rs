//! Metric catalogue, per-run report and the summary statistics the
//! benchmark reports with.

use std::collections::BTreeMap;
use std::time::Instant;

/// How a metric is aggregated over the iterations of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Derived from the wall clock: the median over iterations.
    Wall,
    /// A count, a virtual time or a ratio of them: deterministic for a seed,
    /// taken from the first measured iteration.
    Exact,
}

/// End-to-end metrics, reported by every workload from an untraced run.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("wall_s", "s"), ("virtual_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by every workload from a traced run; a layer
/// a workload does not cross reads 0. The module doc of `main.rs` lists the
/// end-to-end metric and workload each one should move.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    // Workload-specific end-to-end detail, from the untraced run.
    ("frame_wall_p50_ms", "ms", Kind::Wall),
    ("frame_wall_p95_ms", "ms", Kind::Wall),
    ("frame_virtual_p95_ms", "ms", Kind::Exact),
    ("lookup_p50_us", "us", Kind::Wall),
    ("lookup_p99_us", "us", Kind::Wall),
    ("search_p50_ms", "ms", Kind::Wall),
    ("stored_ratio", "ratio", Kind::Exact),
    ("error_rate", "ratio", Kind::Exact),
    // nsdf-storage::wan
    ("wan.read_ops", "count", Kind::Exact),
    ("wan.write_ops", "count", Kind::Exact),
    ("wan.bytes_down", "B", Kind::Exact),
    ("wan.bytes_up", "B", Kind::Exact),
    ("wan.busy_s", "s", Kind::Exact),
    ("wan.rtt_floor_s", "s", Kind::Exact),
    // nsdf-storage::sched
    ("sched.grants", "count", Kind::Exact),
    ("sched.granted_s", "s", Kind::Exact),
    ("sched.queue_wait_s", "s", Kind::Exact),
    ("sched.shed", "count", Kind::Exact),
    ("sched.reissued", "count", Kind::Exact),
    // nsdf-storage::tiercache
    ("tiercache.lookups", "count", Kind::Exact),
    ("tiercache.ram_hits", "count", Kind::Exact),
    ("tiercache.disk_hits", "count", Kind::Exact),
    ("tiercache.wan_fetches", "count", Kind::Exact),
    ("tiercache.hit_ratio", "ratio", Kind::Exact),
    ("tiercache.evictions", "count", Kind::Exact),
    ("tiercache.quarantined", "count", Kind::Exact),
    // nsdf-storage::reliability + fault
    ("fault.injected", "count", Kind::Exact),
    ("retry.retries", "count", Kind::Exact),
    ("retry.backoff_s", "s", Kind::Exact),
    ("hedge.issued", "count", Kind::Exact),
    ("hedge.wins", "count", Kind::Exact),
    ("integrity.rejected", "count", Kind::Exact),
    ("retry.useful_ratio", "ratio", Kind::Exact),
    // nsdf-storage::local, through the benchmark's timing wrapper
    ("local.put_ops", "count", Kind::Exact),
    ("local.put_wall_s", "s", Kind::Wall),
    ("local.get_ops", "count", Kind::Exact),
    ("local.get_wall_s", "s", Kind::Wall),
    ("local.bytes_written", "B", Kind::Exact),
    // the store stack below IDX, through the timing wrapper
    ("stack.get_wall_s", "s", Kind::Wall),
    ("stack.put_wall_s", "s", Kind::Wall),
    ("stack.calls", "count", Kind::Exact),
    // nsdf-idx write path
    ("idx.write_wall_s", "s", Kind::Wall),
    ("idx.encode_wall_s", "s", Kind::Wall),
    ("idx.put_wall_s", "s", Kind::Wall),
    ("idx.scatter_wall_s", "s", Kind::Wall),
    ("idx.scatter_gb_s", "GB/s", Kind::Wall),
    ("idx.blocks_written", "count", Kind::Exact),
    ("idx.rmw_fetches", "count", Kind::Exact),
    ("idx.put_batches", "count", Kind::Exact),
    // nsdf-idx read path
    ("idx.read_wall_s", "s", Kind::Wall),
    ("idx.fetch_wall_s", "s", Kind::Wall),
    ("idx.decode_wall_s", "s", Kind::Wall),
    ("idx.gather_wall_s", "s", Kind::Wall),
    ("idx.gather_gb_s", "GB/s", Kind::Wall),
    ("idx.blocks_decoded", "count", Kind::Exact),
    ("idx.decoded_cache_hits", "count", Kind::Exact),
    // nsdf-idx::session
    ("session.refine_wall_s", "s", Kind::Wall),
    ("session.blocks_fetched", "count", Kind::Exact),
    ("session.blocks_reused", "count", Kind::Exact),
    ("session.prefetch_hits", "count", Kind::Exact),
    ("session.reuse_ratio", "ratio", Kind::Exact),
    // nsdf-hz
    ("hz.plan_wall_s", "s", Kind::Wall),
    ("hz.blocks_planned", "count", Kind::Exact),
    // nsdf-compress
    ("compress.decode_mb_s", "MB/s", Kind::Wall),
    ("compress.encode_mb_s", "MB/s", Kind::Wall),
    ("compress.best_decode_mb_s", "MB/s", Kind::Wall),
    ("compress.ratio", "ratio", Kind::Exact),
    // nsdf-dashboard
    ("dashboard.render_wall_s", "s", Kind::Wall),
    ("dashboard.pixels", "count", Kind::Exact),
    // nsdf-geotiled
    ("geotiled.dem_wall_s", "s", Kind::Wall),
    ("geotiled.terrain_wall_s", "s", Kind::Wall),
    ("geotiled.px", "count", Kind::Exact),
    // nsdf-somospie
    ("somospie.knn_wall_s", "s", Kind::Wall),
    ("somospie.train_points", "count", Kind::Exact),
    ("somospie.predicted_px", "count", Kind::Exact),
    // nsdf-tiff
    ("tiff.wall_s", "s", Kind::Wall),
    // nsdf-workflow
    ("workflow.build_wall_s", "s", Kind::Wall),
    ("workflow.run_wall_s", "s", Kind::Wall),
    ("workflow.waves", "count", Kind::Exact),
    ("workflow.tasks_executed", "count", Kind::Exact),
    ("workflow.tasks_up_to_date", "count", Kind::Exact),
    ("workflow.manifest_ops", "count", Kind::Exact),
    ("workflow.unreported_virtual_s", "s", Kind::Exact),
    // nsdf-catalog
    ("catalog.ingest_wall_s", "s", Kind::Wall),
    ("catalog.flush_wall_s", "s", Kind::Wall),
    ("catalog.compact_wall_s", "s", Kind::Wall),
    ("catalog.recover_wall_s", "s", Kind::Wall),
    ("catalog.write_amp", "ratio", Kind::Exact),
    ("catalog.segment_reads_per_lookup", "ratio", Kind::Exact),
    // host and rooflines
    ("host.memcpy_gb_s", "GB/s", Kind::Wall),
    ("host.cores", "count", Kind::Exact),
    ("trace.overhead_frac", "ratio", Kind::Wall),
];

/// Unit of a metric in either catalogue.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| PER_LAYER.iter().find(|(n, _, _)| *n == name).map(|(_, u, _)| *u))
}

/// Aggregation kind of a metric; end-to-end wall metrics are medians, the
/// virtual time is exact.
pub fn kind_of(name: &str) -> Kind {
    match name {
        "virtual_s" => Kind::Exact,
        _ => PER_LAYER.iter().find(|(n, _, _)| *n == name).map_or(Kind::Wall, |(_, _, k)| *k),
    }
}

/// What one measured iteration observed.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Wall seconds of each timed part of the measured phase (oracle
    /// comparisons excluded), in the same order every iteration: a catalog
    /// batch or search, an explore interaction, an ingest timestep, a DAG
    /// run.
    pub parts: Vec<f64>,
    /// `SimClock` advance over the measured phase.
    pub virtual_s: f64,
    /// Operations attempted (tasks, block writes, frames, catalog ops).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Further metrics by name (detail rows and, when traced, layers).
    pub metrics: BTreeMap<String, f64>,
}

impl Iteration {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record the wall time since `lap` as the next part and restart `lap`;
    /// returns the part's seconds.
    pub fn lap(&mut self, lap: &mut Instant) -> f64 {
        let now = Instant::now();
        let secs = (now - *lap).as_secs_f64();
        *lap = now;
        self.parts.push(secs);
        secs
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        self.metrics.insert(name.to_string(), value);
    }

    /// Add `value` to metric `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "metric {name} is not catalogued");
        *self.metrics.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// Metric `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// The result of one benchmark process: metric values by name and the
/// output-check tally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Checked operations.
    pub attempted: u64,
    /// Failed or wrong operations.
    pub failed: u64,
}

impl Report {
    /// Fold measured iterations into one report: exact metrics come from
    /// the first iteration, wall metrics are medians over the rest (the
    /// first warms caches and allocators) when there are any, and the check
    /// tallies are summed. `wall_s` is the sum over parts of each part's
    /// median, so a burst of interference from other tenants of the host
    /// that slows a part in fewer than half of the iterations drops out.
    pub fn from_iterations(iters: &[Iteration]) -> Report {
        let mut report = Report::default();
        let Some(first) = iters.first() else { return report };
        let warm = if iters.len() > 1 { &iters[1..] } else { iters };
        report.metrics.insert("wall_s".into(), sum_of_part_medians(warm));
        report.metrics.insert("virtual_s".into(), first.virtual_s);
        for name in first.metrics.keys() {
            let value = match kind_of(name) {
                Kind::Exact => first.get(name),
                Kind::Wall => median(&warm.iter().map(|i| i.get(name)).collect::<Vec<_>>()),
            };
            report.metrics.insert(name.clone(), value);
        }
        report.attempted = iters.iter().map(|i| i.attempted).sum();
        report.failed = iters.iter().map(|i| i.failed).sum();
        report.metrics.insert(
            "error_rate".into(),
            if report.attempted == 0 {
                1.0
            } else {
                report.failed as f64 / report.attempted as f64
            },
        );
        report
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Metric `name`, 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Line protocol between a workload process and its parent: one
    /// `metric <name> <value>` line per metric, then `checks <attempted>
    /// <failed>`.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            out.push_str(&format!("metric {name} {value:e}\n"));
        }
        out.push_str(&format!("checks {} {}\n", self.attempted, self.failed));
        out
    }

    /// Parse [`Report::to_lines`] output; `None` unless it ends with a
    /// `checks` line.
    pub fn from_lines(text: &str) -> Option<Report> {
        let mut report = Report::default();
        let mut complete = false;
        for line in text.lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["metric", name, value] => {
                    report.metrics.insert(name.to_string(), value.parse().ok()?);
                }
                ["checks", attempted, failed] => {
                    report.attempted = attempted.parse().ok()?;
                    report.failed = failed.parse().ok()?;
                    complete = true;
                }
                _ => {}
            }
        }
        complete.then_some(report)
    }

    /// The result line the benchmark prints: `names` with their units.
    pub fn to_json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|name| {
                let value = self.get(name);
                let value = if value.is_finite() { value } else { 0.0 };
                let unit = unit_of(name).expect("catalogued metric");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sum over part index of the part's median across `iters`, whose parts
/// line up.
fn sum_of_part_medians(iters: &[Iteration]) -> f64 {
    let n = iters.first().map_or(0, |i| i.parts.len());
    assert!(iters.iter().all(|i| i.parts.len() == n), "every iteration times the same parts");
    (0..n).map(|j| median(&iters.iter().map(|i| i.parts[j]).collect::<Vec<_>>())).sum()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Assert that two iterations agree on every exact metric, the virtual
/// time and the check tallies.
#[cfg(test)]
pub fn assert_exact_eq(a: &Iteration, b: &Iteration) {
    assert_eq!(a.virtual_s, b.virtual_s, "virtual_s");
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed), "checks");
    assert_eq!(a.metrics.len(), b.metrics.len());
    for (name, value) in &a.metrics {
        if kind_of(name) == Kind::Exact {
            assert_eq!(Some(value), b.metrics.get(name), "{name}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 120.0);
        assert_eq!(percentile(&v, 95.0), 228.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn wall_is_the_sum_of_part_medians() {
        let iter = |parts: &[f64]| Iteration { parts: parts.to_vec(), ..Iteration::default() };
        // Warm-up, then a burst slows the first part once and the second
        // part once.
        let iters = [iter(&[9.0, 9.0]), iter(&[5.0, 1.0]), iter(&[1.0, 1.0]), iter(&[1.0, 7.0])];
        assert_eq!(Report::from_iterations(&iters).get("wall_s"), 2.0);
    }

    #[test]
    fn lines_round_trip() {
        let mut r = Report { attempted: 7, failed: 1, ..Report::default() };
        r.metrics.insert("wall_s".into(), 0.123456789012345);
        r.metrics.insert("wan.read_ops".into(), 568.0);
        assert_eq!(Report::from_lines(&r.to_lines()), Some(r));
        assert_eq!(Report::from_lines("metric wall_s 1\n"), None);
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |section: &str| -> Vec<String> {
            let start = json.find(&format!("\"{section}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest.split('"').next().expect("quoted name").to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
        for (name, unit, _) in PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }
}
