//! Per-layer measurement shared by the workloads: Obs registry deltas, the
//! timing wrappers' counts, the IDX stats the calls return, codec replays
//! and host probes.

use crate::report::Iteration;
use crate::timed::IoSnapshot;
use nsdf_compress::Codec;
use nsdf_idx::{QueryStats, WriteStats};
use nsdf_storage::NetworkProfile;
use nsdf_util::obs::{MetricsSnapshot, SpanNode};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Growth of counter `name` between two snapshots, summed over every scope
/// (`seal.wan.read_ops` and `dataverse.wan.read_ops` both count towards
/// `wan.read_ops`).
pub fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.sum_counter_across_scopes(name).saturating_sub(before.sum_counter_across_scopes(name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// WAN, scheduler, tier-cache and resilience-stack rows from the client's
/// Obs registry.
pub fn storage_layers(it: &mut Iteration, before: &MetricsSnapshot, after: &MetricsSnapshot) {
    let d = |name: &str| delta(before, after, name) as f64;
    let secs = |name: &str| delta(before, after, name) as f64 / 1e9;

    it.set("wan.read_ops", d("wan.read_ops"));
    it.set("wan.write_ops", d("wan.write_ops"));
    it.set("wan.bytes_down", d("wan.bytes_down"));
    it.set("wan.bytes_up", d("wan.bytes_up"));
    it.set("wan.busy_s", secs("wan.busy_vns"));
    // Roofline: every WAN wave costs at least one round trip of its profile.
    let mut floor = 0.0;
    for (scope, profile) in [
        ("seal", NetworkProfile::private_seal()),
        ("dataverse", NetworkProfile::public_dataverse()),
    ] {
        let waves = delta(before, after, &format!("{scope}.wan.waves")) as f64;
        floor += waves * profile.rtt_ms / 1e3;
    }
    it.set("wan.rtt_floor_s", floor);

    it.set("sched.grants", d("sched.granted"));
    it.set("sched.granted_s", secs("sched.granted_vns"));
    it.set("sched.queue_wait_s", secs("sched.queue_wait_vns"));
    it.set("sched.shed", d("sched.shed"));
    it.set("sched.reissued", d("sched.reissued"));

    let lookups = d("tiercache.lookups");
    it.set("tiercache.lookups", lookups);
    it.set("tiercache.ram_hits", d("tiercache.ram_hits"));
    it.set("tiercache.disk_hits", d("tiercache.disk_hits"));
    it.set("tiercache.wan_fetches", d("tiercache.wan_fetches"));
    it.set(
        "tiercache.hit_ratio",
        ratio(d("tiercache.ram_hits") + d("tiercache.disk_hits"), lookups),
    );
    it.set("tiercache.evictions", d("cache.evictions"));
    it.set("tiercache.quarantined", d("tiercache.quarantined"));

    let injected = d("fault.injected");
    let rejected = d("integrity.rejected");
    let hedges = d("retry.hedges");
    it.set("fault.injected", injected);
    it.set("retry.retries", d("retry.retries"));
    it.set("retry.backoff_s", secs("retry.backoff_vns"));
    it.set("hedge.issued", hedges);
    it.set("hedge.wins", d("retry.hedge_wins"));
    it.set("integrity.rejected", rejected);
    // Every attempt the retry layer issues either fails at the fault layer
    // or reaches the WAN; injected failures, rejected payloads and the
    // losing half of each hedge are wasted.
    let attempts = d("wan.read_ops") + d("wan.write_ops") + injected;
    it.set(
        "retry.useful_ratio",
        ratio((attempts - injected - rejected - hedges).max(0.0), attempts),
    );
}

/// `local.*` rows from the timing wrapper around a `LocalStore`.
pub fn local_layer(it: &mut Iteration, io: &IoSnapshot) {
    it.set("local.put_ops", io.put_ops as f64);
    it.set("local.put_wall_s", io.put_wall_s);
    it.set("local.get_ops", io.get_ops as f64);
    it.set("local.get_wall_s", io.get_wall_s);
    it.set("local.bytes_written", io.bytes_written as f64);
}

/// `stack.*` rows from the timing wrapper around an endpoint handle.
pub fn stack_layer(it: &mut Iteration, io: &IoSnapshot) {
    it.set("stack.get_wall_s", io.get_wall_s);
    it.set("stack.put_wall_s", io.put_wall_s);
    it.set("stack.calls", io.calls as f64);
}

/// Accumulates the IDX rows of one iteration from the stats each call
/// returns and the wall time measured around it.
#[derive(Debug, Default)]
pub struct IdxAcct {
    write_wall: f64,
    encode: f64,
    put: f64,
    scatter_bytes: f64,
    blocks_written: u64,
    rmw_fetches: u64,
    put_batches: u64,
    read_wall: f64,
    fetch: f64,
    decode: f64,
    gather_bytes: f64,
    blocks_decoded: u64,
    decoded_cache_hits: u64,
}

impl IdxAcct {
    /// One write call of `raw_bytes` sample bytes that took `wall` seconds.
    pub fn write(&mut self, wall: f64, raw_bytes: usize, s: &WriteStats) {
        self.write_wall += wall;
        self.encode += s.encode_secs;
        self.put += s.put_secs;
        self.scatter_bytes += raw_bytes as f64;
        self.blocks_written += s.blocks_written;
        self.rmw_fetches += s.rmw_fetches;
        self.put_batches += s.put_batches;
    }

    /// One read call that took `wall` seconds.
    pub fn read(&mut self, wall: f64, s: &QueryStats) {
        self.read_wall += wall;
        self.fetch += s.fetch_secs;
        self.decode += s.decode_secs;
        self.gather_bytes += (s.samples_out * 4) as f64;
        self.blocks_decoded += s.blocks_decoded;
        self.decoded_cache_hits += s.decoded_cache_hits;
    }

    /// Write the `idx.*` rows. Scatter and gather are the remainders of
    /// the call's wall time once the encode/put or fetch/decode time the
    /// stats report is taken out; they are clamped at 0.
    pub fn finish(&self, it: &mut Iteration) {
        let scatter = (self.write_wall - self.encode - self.put).max(0.0);
        let gather = (self.read_wall - self.fetch - self.decode).max(0.0);
        it.set("idx.write_wall_s", self.write_wall);
        it.set("idx.encode_wall_s", self.encode);
        it.set("idx.put_wall_s", self.put);
        it.set("idx.scatter_wall_s", scatter);
        it.set("idx.scatter_gb_s", ratio(self.scatter_bytes, scatter) / 1e9);
        it.set("idx.blocks_written", self.blocks_written as f64);
        it.set("idx.rmw_fetches", self.rmw_fetches as f64);
        it.set("idx.put_batches", self.put_batches as f64);
        it.set("idx.read_wall_s", self.read_wall);
        it.set("idx.fetch_wall_s", self.fetch);
        it.set("idx.decode_wall_s", self.decode);
        it.set("idx.gather_wall_s", gather);
        it.set("idx.gather_gb_s", ratio(self.gather_bytes, gather) / 1e9);
        it.set("idx.blocks_decoded", self.blocks_decoded as f64);
        it.set("idx.decoded_cache_hits", self.decoded_cache_hits as f64);
    }
}

/// Sum of the wall seconds of every span whose label ends with `.suffix`.
pub fn span_wall(nodes: &[SpanNode], suffix: &str) -> f64 {
    nodes
        .iter()
        .map(|n| {
            let own = if n.label.ends_with(suffix) { n.wall_secs } else { 0.0 };
            own + span_wall(&n.children, suffix)
        })
        .sum()
}

/// Replay `codec` over the workload's own stored blocks (each decoding to
/// `block_bytes`) and the fastest compressing codec of the lossless palette
/// over the same raw bytes: the `compress.*` rows.
pub fn compress_replay(it: &mut Iteration, codec: Codec, stored: &[Vec<u8>], block_bytes: usize) {
    if stored.is_empty() {
        return;
    }
    let t = Instant::now();
    let raw: Vec<Vec<u8>> = stored
        .iter()
        .map(|b| codec.decode(b, block_bytes).expect("stored block decodes with its codec"))
        .collect();
    let decode_s = t.elapsed().as_secs_f64();
    let raw_total: usize = raw.iter().map(Vec::len).sum();
    let (encode_s, stored_total) = encode_all(codec, &raw);
    it.set("compress.decode_mb_s", ratio(raw_total as f64, decode_s) / 1e6);
    it.set("compress.encode_mb_s", ratio(raw_total as f64, encode_s) / 1e6);
    it.set("compress.ratio", ratio(stored_total as f64, raw_total as f64));
    // Raw is left out: its "decode" is a copy, which host.memcpy_gb_s
    // already bounds.
    let mut best: f64 = 0.0;
    for other in Codec::lossless_palette(4).into_iter().filter(|c| *c != Codec::Raw) {
        let encoded: Vec<Vec<u8>> =
            raw.iter().map(|r| other.encode(r).expect("palette codec encodes")).collect();
        let t = Instant::now();
        for e in &encoded {
            std::hint::black_box(other.decode(e, block_bytes).expect("palette codec decodes"));
        }
        best = best.max(ratio(raw_total as f64, t.elapsed().as_secs_f64()) / 1e6);
    }
    it.set("compress.best_decode_mb_s", best);
}

fn encode_all(codec: Codec, raw: &[Vec<u8>]) -> (f64, usize) {
    let t = Instant::now();
    let total = raw.iter().map(|r| codec.encode(r).expect("dataset codec encodes").len()).sum();
    (t.elapsed().as_secs_f64(), total)
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Copy bandwidth over a buffer at least four times the last-level cache
/// (GB/s, best of three): the roofline for gather and scatter.
pub fn memcpy_gb_s() -> f64 {
    let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .ok()
        .and_then(|s| {
            let s = s.trim();
            let kib: u64 = s.trim_end_matches('K').parse().ok()?;
            Some(if s.ends_with('K') { kib << 10 } else { kib })
        })
        .unwrap_or(32 << 20);
    let len = (4 * llc).clamp(64 << 20, 256 << 20) as usize;
    let src = vec![1u8; len];
    let mut dst = vec![0u8; len];
    let mut best: f64 = 0.0;
    for _ in 0..3 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&dst);
        best = best.max(len as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    best
}

/// Logical cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A disk-tier directory under `.perfbench_tmp/` in the working directory.
///
/// Iterations get it back emptied of every file but with its directory tree
/// kept, the state a long-lived disk tier's directory is in, and the tree
/// stays behind for the next run. Deleting the thousands of directories a
/// disk tier fans out into after every run slowed the runs that followed by
/// up to 2× on an ext4 filesystem that discards freed blocks online.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// The first scratch directory tagged `tag` not in use in this process
    /// (so successive runs reuse the same trees), emptied of files.
    pub fn new(tag: &str) -> std::io::Result<Scratch> {
        let root = {
            let mut in_use = IN_USE.lock().expect("scratch registry lock poisoned");
            let root = (0..)
                .map(|n| Path::new(SCRATCH).join(format!("{tag}-{n}")))
                .find(|root| !in_use.contains(root))
                .expect("an unused scratch slot");
            in_use.insert(root.clone());
            root
        };
        let scratch = Scratch { root };
        std::fs::create_dir_all(&scratch.root)?;
        remove_files(&scratch.root)?;
        Ok(scratch)
    }

    /// The directory, emptied of every file.
    pub fn fresh_dir(&self) -> std::io::Result<&Path> {
        remove_files(&self.root)?;
        Ok(&self.root)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = remove_files(&self.root);
        if let Ok(mut in_use) = IN_USE.lock() {
            in_use.remove(&self.root);
        }
    }
}

/// Scratch roots currently held in this process.
static IN_USE: Mutex<BTreeSet<PathBuf>> = Mutex::new(BTreeSet::new());

/// Delete every file below `dir`, keeping the directories.
fn remove_files(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            remove_files(&entry.path())?;
        } else {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

const SCRATCH: &str = ".perfbench_tmp";
