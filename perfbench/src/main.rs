//! End-to-end and per-layer benchmark of the NSDF tutorial's four jobs:
//! run the GEOtiled/SOMOSPIE workflow (`dag`), publish layers as IDX
//! (`ingest`), explore them in the dashboard (`explore`) and search the
//! catalog (`catalog`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The parent process (one thread) runs each measurement in a child
//! process of its own and prints one JSON result line. `--trace 0` runs
//! one untraced child and reports the end-to-end metrics; `--trace 1` runs
//! an untraced and a traced child, each for half the time, and reports the
//! per-layer metrics plus `trace.overhead_frac`. Inputs come from `--seed`
//! only. Every run checks the program's outputs against an oracle built
//! during set-up and counts wrong or failed operations in `failed`.
//!
//! # Two clocks
//!
//! Wall time covers CPU and memory cost. Virtual time is the advance of the
//! client's `SimClock` measured around the calls (never a report's own
//! `virtual_secs`); it covers modeled WAN economics and the catalog's
//! modeled merge cost, and repeats exactly for a seed.
//!
//! # Workloads
//!
//! * `dag` — cold `build_terrain_graph` + `TaskGraph::run` at 512² (4×4
//!   tiles, threads = cores, default codec) on `seal`, then a one-cell
//!   `DemEdit` rerun against the same manifest. Wall time is compute-bound
//!   (KNN, terrain); virtual time is bound by serial WAN put waves. The only
//!   workload that runs nsdf-workflow, nsdf-geotiled, nsdf-somospie and the
//!   manifest.
//! * `ingest` — publish a 1024² CONUS-like DEM as a 4-timestep f32 IDX
//!   dataset (three `write_raster`, one 3×3 grid of unaligned `write_box`
//!   tiles, which read-modify-write) to `seal` of a client whose disk tier
//!   is a `LocalStore` in an emptied directory; then a restarted client
//!   reads every timestep back from the disk tier. The IDX write path,
//!   TierCache write-through and `LocalStore` writes do most of their work
//!   here; a codec or fsync change shows here first.
//! * `explore` — a classroom of 8 participants, each a scheduler tenant
//!   with its own dataset handle and `QuerySession`, on a 1024² ×
//!   4-timestep dataset uploaded (untimed) to `dataverse` of a fresh chaos
//!   client (read faults 5 %, corruption 1 %, six attempts) whose RAM tier
//!   is smaller than the dataset. Each scripts overview → zoom → 12 pans
//!   right → 8 pans down → playback twice over the timesteps (30
//!   interactions, 240 in all), round-robin and closed loop; every frame
//!   a refinement delivers, coarse to fine, is rendered and checked. The
//!   read path, admission, the resilience stack and TinyLFU under RAM
//!   pressure do most of their work here.
//! * `catalog` — 200 k records in 1000-record batches into a 16-shard
//!   `Catalog` on a `LocalStore`, flush + compact, 100 k point gets (half
//!   misses), 50 prefix searches, close, reopen with recovery. No WAN and
//!   no IDX: the only workload touching nsdf-catalog.
//!
//! # End-to-end metrics (untraced child)
//!
//! `setup_s` (median of 5 set-ups after an uncounted warm-up one: inputs,
//! dataset encoding, oracle),
//! `wall_s` (wall time of one iteration's measured phase, the first
//! iteration being a warm-up: the phase is timed in parts — a catalog batch
//! or search, an explore interaction, an ingest timestep, a DAG run — and
//! `wall_s` sums each part's median over the iterations, so a burst of
//! interference from other tenants of the host that slows a part in fewer
//! than half of the iterations drops out), `virtual_s` (virtual time of
//! one iteration, the same for every iteration of a seed) and
//! `peak_rss_mb` (`VmHWM` of the child). Each run iterates until
//! `--seconds` is spent. Every workload reports all four; workload-specific
//! user metrics
//! (`frame_wall_p50_ms`, `frame_wall_p95_ms`, `frame_virtual_p95_ms`,
//! `lookup_p50_us`, `lookup_p99_us`, `search_p50_ms`, `stored_ratio`,
//! `error_rate`) are measured in the untraced child too but reported with
//! the per-layer rows, because the result format asks every workload for
//! every end-to-end metric and these read 0 where they do not apply.
//! `error_rate` equals `failed / attempted` of the result line.
//!
//! # Per-layer metrics (traced child) and what each should move
//!
//! Layers are measured from outside: timing wrappers around every store
//! handle the benchmark opens or passes in, the stats the calls return,
//! Obs registry snapshots, and replays of layer kernels on the workload's
//! own inputs. A layer a workload does not cross reads 0.
//!
//! | rows | should move | on | ~idle on |
//! |---|---|---|---|
//! | `wan.*` (`rtt_floor_s` = waves × profile RTT, the roofline beside `busy_s`) | `virtual_s`; `frame_virtual_p95_ms` | dag, ingest; explore | catalog |
//! | `sched.*` (`granted_s` beside `wan.busy_s`) | `frame_virtual_p95_ms` | explore | dag, ingest |
//! | `tiercache.*` | `frame_virtual_p95_ms`, `virtual_s`; `wall_s` | explore; ingest | catalog |
//! | `fault.injected`, `retry.*`, `hedge.*`, `integrity.rejected` | `virtual_s`, `frame_virtual_p95_ms` | explore | dag, ingest, catalog |
//! | `local.*` | `wall_s` | ingest, catalog | dag, explore |
//! | `stack.*` | separates store-stack CPU from IDX CPU in `frame_wall_*`; `wall_s` | explore; ingest | catalog |
//! | `idx.write_wall_s`, `encode`, `put`, `scatter` (= write − encode − put), `scatter_gb_s`, blocks, RMW, batches | `wall_s` | ingest (most), dag (some) | explore |
//! | `idx.read_wall_s`, `fetch`, `decode`, `gather` (= read − fetch − decode), `gather_gb_s`, decoded, cache hits | `frame_wall_*`; `wall_s` | explore; ingest | dag, catalog |
//! | `session.*` | `frame_*` | explore | all others |
//! | `hz.*` (`blocks_for_query` replayed per delivered frame) | `frame_wall_p50_ms` | explore | dag, catalog |
//! | `compress.*` (dataset codec over the stored blocks; `best_decode_mb_s` = fastest compressing palette codec, the roofline) | `wall_s`, `stored_ratio`; `frame_wall_*` | ingest; explore | catalog |
//! | `dashboard.*` | `frame_wall_*` | explore | all others |
//! | `geotiled.*`, `tiff.wall_s` (replays) | `wall_s` | dag | all others |
//! | `somospie.*` (replay; expected the largest share) | `wall_s` | dag | all others |
//! | `workflow.*` (`manifest_ops` = engine store calls on the manifest key; `unreported_virtual_s` = clock advance − `GraphRun` virtual time) | `virtual_s` | dag | all others |
//! | `catalog.*` | `wall_s`, `lookup_p99_us`, `search_p50_ms` | catalog | all others |
//! | `host.memcpy_gb_s` (beside the `*_gb_s` rows), `host.cores`, `trace.overhead_frac` | context | — | — |
//!
//! One row of the layer list is absent: records examined per search
//! result. `find_by_prefix` is a full merged scan and the catalog exposes
//! no examined-record counter, so from outside the figure would only be a
//! constant computed from the inputs.
//!
//! How they interact: on `explore` nothing contends, so a faster gather or
//! decode saves at most its share of `frame_wall_*`, and
//! `frame_virtual_p95_ms` moves only when WAN rounds drop (sched,
//! tiercache, retry). On `dag`, wave batching moves `virtual_s` and should
//! leave `wall_s` alone; a faster KNN does the opposite. On `ingest`, a
//! codec change moves `wall_s` and `stored_ratio` together. Durable writes
//! (fsync) should raise `local.put_wall_s` and `wall_s` on ingest and
//! catalog only.

mod catalog;
mod dag;
mod explore;
mod ingest;
mod layers;
mod report;
mod timed;

use report::{Iteration, Report, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Measured set-ups of an end-to-end run, after one uncounted warm-up
/// set-up (cold page faults and allocator growth); `setup_s` is their
/// median. A child of a traced run sets up once.
const SETUPS: usize = 5;

/// Per-layer rows that come from the untraced child.
const UNTRACED_ROWS: &[&str] = &[
    "frame_wall_p50_ms",
    "frame_wall_p95_ms",
    "frame_virtual_p95_ms",
    "lookup_p50_us",
    "lookup_p99_us",
    "search_p50_ms",
    "stored_ratio",
    "error_rate",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child: `e2e` (the end-to-end run), `untraced` or `traced`
    /// (the two halves of a traced run).
    child: Option<String>,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value {value:?} for {flag}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, child: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value)?,
            "--seconds" => args.seconds = parse(&flag, &value)?,
            "--trace" => args.trace = parse::<u8>(&flag, &value)? != 0,
            "--child" => args.child = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["dag", "ingest", "explore", "catalog"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !matches!(args.child.as_deref(), None | Some("e2e" | "untraced" | "traced")) {
        return Err(format!("unknown child mode {:?}", args.child));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match &args.child {
        Some(mode) => child(&args, mode).map(|r| print!("{}", r.to_lines())),
        None => drive(&args).map(|line| println!("{line}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one child process of this executable and parse its report.
fn spawn(args: &Args, mode: &str, seconds: f64) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--child", mode])
        .output()
        .map_err(|e| format!("cannot start the {mode} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{mode} run failed: {}", String::from_utf8_lossy(&out.stderr).trim()));
    }
    Report::from_lines(&stdout).ok_or_else(|| format!("{mode} run printed no report"))
}

fn drive(args: &Args) -> Result<String, String> {
    if !args.trace {
        let report = spawn(args, "e2e", args.seconds)?;
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        return Ok(report.to_json(&names));
    }
    let half = args.seconds / 2.0;
    let untraced = spawn(args, "untraced", half)?;
    let mut traced = spawn(args, "traced", half)?;
    for name in UNTRACED_ROWS {
        traced.metrics.insert(name.to_string(), untraced.get(name));
    }
    let overhead = traced.get("wall_s") / untraced.get("wall_s") - 1.0;
    traced.metrics.insert("trace.overhead_frac".into(), overhead);
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
    Ok(traced.to_json(&names))
}

/// Set up (`SETUPS` times after a warm-up when `setups` is true, else
/// once), then iterate until the time budget is spent.
fn measure<S>(
    args: &Args,
    setups: bool,
    traced: bool,
    setup: impl Fn() -> nsdf_util::Result<S>,
    iterate: impl Fn(&S, bool) -> nsdf_util::Result<Iteration>,
) -> nsdf_util::Result<Report> {
    let rounds = if setups { 1 + SETUPS } else { 1 };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..rounds {
        drop(state.take()); // release the previous copy before building the next
        let t = Instant::now();
        state = Some(setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let measured = if setups { &setup_s[1..] } else { &setup_s[..] };
    let state = state.expect("at least one set-up");
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let mut last = Duration::ZERO;
    while iters.is_empty() || start.elapsed() + last / 2 < budget {
        let t = Instant::now();
        iters.push(iterate(&state, traced)?);
        last = t.elapsed();
    }
    let mut report = Report::from_iterations(&iters);
    report.metrics.insert("setup_s".into(), report::median(measured));
    report.metrics.insert("peak_rss_mb".into(), layers::peak_rss_mb());
    Ok(report)
}

fn child(args: &Args, mode: &str) -> Result<Report, String> {
    let (seed, setups, traced) = (args.seed, mode == "e2e", mode == "traced");
    let report = match args.workload.as_str() {
        "dag" => measure(args, setups, traced, || dag::setup(seed, dag::FULL), dag::iterate),
        "ingest" => {
            measure(args, setups, traced, || ingest::setup(seed, ingest::FULL), ingest::iterate)
        }
        "explore" => {
            measure(args, setups, traced, || explore::setup(seed, explore::FULL), explore::iterate)
        }
        _ => {
            measure(args, setups, traced, || catalog::setup(seed, catalog::FULL), catalog::iterate)
        }
    };
    let mut report = report.map_err(|e| e.to_string())?;
    if traced {
        report.metrics.insert("host.memcpy_gb_s".into(), layers::memcpy_gb_s());
        report.metrics.insert("host.cores".into(), layers::cores() as f64);
    }
    Ok(report)
}
