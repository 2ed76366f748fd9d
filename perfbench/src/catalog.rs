//! `catalog`: register records into a sharded LSM catalog on local disk,
//! compact, serve point lookups and prefix searches, close and recover.

use crate::layers::{self, Scratch};
use crate::report::{median, percentile, Iteration};
use crate::timed::{IoStats, TimedStore};
use nsdf_catalog::{Catalog, CatalogConfig, Record};
use nsdf_storage::LocalStore;
use nsdf_util::obs::Obs;
use nsdf_util::{splitmix64, Result, SimClock};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SOURCES: [&str; 4] = ["dataverse", "seal", "materials-commons", "osdf"];

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Records registered.
    pub records: usize,
    /// Records per `ingest` batch.
    pub batch: usize,
    /// Catalog shards.
    pub shards: usize,
    /// Point lookups, half of them for ids never registered.
    pub gets: usize,
    /// Prefix searches.
    pub searches: usize,
}

/// The benchmark size: 200 k records in 1000-record batches, 16 shards,
/// 100 k lookups, 50 searches.
pub const FULL: Size =
    Size { records: 200_000, batch: 1000, shards: 16, gets: 100_000, searches: 50 };

/// Records, queries and the `BTreeMap` oracle, built once per process.
pub struct Setup {
    size: Size,
    records: Vec<Record>,
    gets: Vec<u64>,
    prefixes: Vec<String>,
    scratch: Scratch,
    /// What the catalog must hold, by id.
    pub oracle: BTreeMap<u64, Record>,
    /// Ids each prefix search must return, ascending.
    pub expected_search: Vec<Vec<u64>>,
}

/// Generate records and queries from `seed`.
pub fn setup(seed: u64, size: Size) -> Result<Setup> {
    let mut state = splitmix64(seed);
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let mut oracle = BTreeMap::new();
    let mut records = Vec::with_capacity(size.records);
    while records.len() < size.records {
        let (id, r) = (next() >> 1, next());
        if oracle.contains_key(&id) {
            continue;
        }
        let source = SOURCES[(r % 4) as usize];
        let name = format!(
            "{source}/p{:03}/run{:04}/field-{:x}.idx",
            (r >> 8) % 200,
            (r >> 20) % 5000,
            next() & 0xffff_ffff
        );
        let record = Record::new(id, name, source, (r >> 32) % (1 << 30), next())?;
        oracle.insert(id, record.clone());
        records.push(record);
    }
    let gets = (0..size.gets)
        .map(|i| {
            if i % 2 == 0 {
                records[(next() % records.len() as u64) as usize].id
            } else {
                next() >> 1
            }
        })
        .collect();
    let prefixes = (0..size.searches)
        .map(|_| {
            let r = next();
            format!("{}/p{:03}/", SOURCES[(r % 4) as usize], (r >> 8) % 200)
        })
        .collect::<Vec<String>>();
    let mut by_name: Vec<(&str, u64)> = records.iter().map(|r| (r.name.as_str(), r.id)).collect();
    by_name.sort_unstable();
    let expected_search = prefixes
        .iter()
        .map(|p| {
            let from = by_name.partition_point(|(name, _)| *name < p.as_str());
            let mut ids: Vec<u64> = by_name[from..]
                .iter()
                .take_while(|(name, _)| name.starts_with(p.as_str()))
                .map(|(_, id)| *id)
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect();
    Ok(Setup {
        size,
        records,
        gets,
        prefixes,
        scratch: Scratch::new("catalog")?,
        oracle,
        expected_search,
    })
}

fn open(
    dir: &Path,
    traced: bool,
    clock: &SimClock,
    shards: usize,
) -> Result<(Catalog, Option<Arc<IoStats>>, Obs)> {
    let (store, io) = TimedStore::wrap_if(traced, Arc::new(LocalStore::open(dir)?));
    let obs = Obs::new(clock.clone());
    let catalog = Catalog::open(store, clock.clone(), CatalogConfig::new(shards))?.with_obs(&obs);
    Ok((catalog, io, obs))
}

/// One full catalog lifetime in a fresh directory.
pub fn iterate(s: &Setup, traced: bool) -> Result<Iteration> {
    let mut it = Iteration::default();
    let dir = s.scratch.fresh_dir()?;
    let clock = SimClock::new();
    let size = s.size;

    // The catalog takes its records by value: copy them before timing, so
    // the timed batches hold only the catalog's own work.
    let batches: Vec<Vec<Record>> = s.records.chunks(size.batch).map(<[Record]>::to_vec).collect();
    // Timed in parts: open, each batch, flush, compact, the lookups, each
    // search, close, reopen.
    let mut lap = Instant::now();
    let (catalog, io, obs) = open(dir, traced, &clock, size.shards)?;
    it.lap(&mut lap);
    let mut ingest_s = 0.0;
    for batch in batches {
        let len = batch.len() as u64;
        let n = catalog.ingest(batch);
        ingest_s += it.lap(&mut lap);
        it.check(n.is_ok_and(|n| n == len));
    }
    let flushed = catalog.flush();
    let flush_s = it.lap(&mut lap);
    it.check(flushed.is_ok());
    let compacted = catalog.compact();
    let compact_s = it.lap(&mut lap);
    it.check(compacted.is_ok());

    let mut lookups = Vec::with_capacity(s.gets.len());
    let mut found = Vec::with_capacity(s.gets.len());
    for &id in &s.gets {
        let t = Instant::now();
        let r = catalog.get(id);
        lookups.push(t.elapsed().as_secs_f64());
        found.push(r);
    }
    it.lap(&mut lap);
    let mut searches = Vec::with_capacity(s.prefixes.len());
    let mut results = Vec::with_capacity(s.prefixes.len());
    for prefix in &s.prefixes {
        let r = catalog.find_by_prefix(prefix);
        searches.push(it.lap(&mut lap));
        results.push(r);
    }
    let snap = obs.snapshot();
    let closed = catalog.close();
    drop(catalog);
    it.lap(&mut lap);
    it.check(closed.is_ok());
    let reopened = open(dir, traced, &clock, size.shards);
    let recover_s = it.lap(&mut lap);
    it.virtual_s = clock.now_ns() as f64 / 1e9;

    for (id, got) in s.gets.iter().zip(&found) {
        it.check(got.as_ref() == s.oracle.get(id));
    }
    for (want, got) in s.expected_search.iter().zip(&results) {
        it.check(
            got.iter().map(|r| r.id).eq(want.iter().copied())
                && got.iter().all(|r| s.oracle.get(&r.id) == Some(r)),
        );
    }
    let live = s.oracle.len();
    let reopened = reopened.as_ref().ok();
    it.check(reopened.is_some_and(|(c, _, _)| c.len() == live as u64));

    it.set("lookup_p50_us", median(&lookups) * 1e6);
    it.set("lookup_p99_us", percentile(&lookups, 99.0) * 1e6);
    it.set("search_p50_ms", median(&searches) * 1e3);
    if traced {
        let mut local = io.expect("traced runs wrap the store").snapshot();
        if let Some((_, Some(io), _)) = reopened {
            local = local.plus(&io.snapshot());
        }
        layers::local_layer(&mut it, &local);
        it.set("catalog.ingest_wall_s", ingest_s);
        it.set("catalog.flush_wall_s", flush_s);
        it.set("catalog.compact_wall_s", compact_s);
        it.set("catalog.recover_wall_s", recover_s);
        let user_bytes: usize = s.records.iter().map(Record::approx_bytes).sum();
        it.set("catalog.write_amp", local.bytes_written as f64 / user_bytes as f64);
        let probes = snap.counter("catalog.bloom_hit") + snap.counter("catalog.bloom_fp");
        it.set("catalog.segment_reads_per_lookup", probes as f64 / s.gets.len() as f64);
    }
    Ok(it)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size { records: 3000, batch: 100, shards: 4, gets: 1000, searches: 5 };

    #[test]
    fn same_seed_gives_identical_exact_metrics() {
        let a = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        let b = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        crate::report::assert_exact_eq(&a, &b);
        assert_eq!((a.failed, b.failed), (0, 0));
        assert!(a.virtual_s > 0.0, "compaction charges modeled merge time");
    }

    #[test]
    fn checks_reject_a_corrupted_oracle() {
        let mut s = setup(4, TINY).unwrap();
        let hit = s.gets[0];
        s.oracle.get_mut(&hit).unwrap().size ^= 1;
        let failed = iterate(&s, false).unwrap().failed;
        assert!(failed >= 1, "the lookup of {hit} must disagree");
        let mut s = setup(4, TINY).unwrap();
        s.expected_search[0].pop();
        assert_eq!(iterate(&s, false).unwrap().failed, 1);
        let mut s = setup(4, TINY).unwrap();
        let extra = Record::new(u64::MAX, "x/y", "seal", 1, 1).unwrap();
        s.oracle.insert(u64::MAX, extra);
        assert_eq!(iterate(&s, false).unwrap().failed, 1, "record count after reopen");
    }
}
