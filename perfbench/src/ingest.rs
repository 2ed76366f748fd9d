//! `ingest`: publish a multi-timestep DEM as IDX to `seal` through a
//! disk-tiered client, then read every timestep back through a restarted
//! client over the same disk tier.

use crate::layers::{self, IdxAcct, Scratch};
use crate::report::Iteration;
use crate::timed::{BlockCapture, IoStats, TimedStore, Wrapped};
use nsdf_core::{DagConfig, NsdfClient};
use nsdf_geotiled::DemConfig;
use nsdf_idx::{Field, IdxDataset, IdxMeta};
use nsdf_storage::LocalStore;
use nsdf_util::{derive_seed, Box2i, DType, Raster, Result};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const BASE: &str = "ingest/conus";
const FIELD: &str = "elevation";

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Raster width and height in pixels.
    pub px: usize,
    /// Timesteps; the last is written as a grid of unaligned boxes.
    pub timesteps: u32,
    /// Boxes per axis of the box-written timestep.
    pub boxes: usize,
}

/// The benchmark size: 1024², 4 timesteps, the last one as 3×3 boxes.
pub const FULL: Size = Size { px: 1024, timesteps: 4, boxes: 3 };

/// Inputs and oracle, built once per process.
pub struct Setup {
    seed: u64,
    size: Size,
    rasters: Vec<Raster<f32>>,
    scratch: Scratch,
    /// What the read-back must equal, bit for bit.
    pub expected: Vec<Raster<f32>>,
}

/// Generate one DEM per timestep from `seed`.
pub fn setup(seed: u64, size: Size) -> Result<Setup> {
    let rasters: Vec<Raster<f32>> = (0..size.timesteps)
        .map(|t| {
            DemConfig::conus_like(size.px, size.px, derive_seed(seed, &format!("t{t}"))).generate()
        })
        .collect();
    Ok(Setup { seed, size, expected: rasters.clone(), rasters, scratch: Scratch::new("ingest")? })
}

fn meta(size: Size) -> Result<IdxMeta> {
    let defaults = DagConfig::small(0);
    IdxMeta::new_2d(
        "ingest",
        size.px as u64,
        size.px as u64,
        vec![Field::new(FIELD, DType::F32)?],
        defaults.bits_per_block,
        defaults.codec,
    )?
    .with_timesteps(size.timesteps)
}

/// Open the disk tier, wrapped in a timing wrapper when traced.
fn disk(dir: &Path, traced: bool) -> Result<Wrapped> {
    Ok(TimedStore::wrap_if(traced, Arc::new(LocalStore::open(dir)?)))
}

/// One publish plus one restarted read-back, in a fresh disk tier.
pub fn iterate(s: &Setup, traced: bool) -> Result<Iteration> {
    let mut it = Iteration::default();
    let mut acct = IdxAcct::default();
    let dir = s.scratch.fresh_dir()?;
    let capture = BlockCapture::new(8 << 20);
    let meta = meta(s.size)?;
    let block_bytes = meta.block_samples() as usize * 4;
    let codec = meta.codec;
    let raster_bytes = s.size.px * s.size.px * 4;

    let (disk1, local1) = disk(dir, traced)?;
    // Timed in parts: client and dataset creation, each write, then the
    // restarted client's opening and each read-back.
    let mut lap = Instant::now();
    let client = NsdfClient::simulated_tiered(s.seed, disk1)?;
    let before = client.obs().snapshot();
    let v0 = client.clock().now_ns();
    let endpoint = client.store("seal")?;
    let (endpoint, stack1) = if traced {
        let (store, io) = TimedStore::capturing(endpoint, Arc::clone(&capture));
        (store, Some(io))
    } else {
        (endpoint, None)
    };
    let ds = IdxDataset::create(endpoint, BASE, meta)?.with_obs(&client.obs().scoped("seal"));
    it.lap(&mut lap);
    let last = s.size.timesteps - 1;
    for (t, raster) in s.rasters.iter().enumerate().take(last as usize) {
        let stats = ds.write_raster(FIELD, t as u32, raster);
        let secs = it.lap(&mut lap);
        it.check(stats.is_ok());
        if let Ok(stats) = stats {
            acct.write(secs, raster_bytes, &stats);
        }
    }
    let edges: Vec<usize> = (0..=s.size.boxes).map(|i| i * s.size.px / s.size.boxes).collect();
    for y in edges.windows(2) {
        for x in edges.windows(2) {
            let b = Box2i::new(x[0] as i64, y[0] as i64, x[1] as i64, y[1] as i64);
            let tile = s.rasters[last as usize].window(b)?;
            lap = Instant::now();
            let stats = ds.write_box(FIELD, last, x[0] as u64, y[0] as u64, &tile);
            let secs = it.lap(&mut lap);
            it.check(stats.is_ok());
            if let Ok(stats) = stats {
                acct.write(secs, tile.len() * 4, &stats);
            }
        }
    }
    it.virtual_s = (client.clock().now_ns() - v0) as f64 / 1e9;
    let after_write = client.obs().snapshot();
    let stored: u64 = client
        .store("seal")?
        .list(&format!("{BASE}/"))?
        .iter()
        .filter(|m| m.key.ends_with(".bin"))
        .map(|m| m.size)
        .sum();
    it.set("stored_ratio", stored as f64 / (raster_bytes as f64 * s.size.timesteps as f64));
    drop(ds);
    drop(client);

    let (disk2, local2) = disk(dir, traced)?;
    lap = Instant::now();
    let restarted = NsdfClient::simulated_tiered(s.seed, disk2)?;
    let (endpoint, stack2) = TimedStore::wrap_if(traced, restarted.store("seal")?);
    let ds = IdxDataset::open(endpoint, BASE)?.with_obs(&restarted.obs().scoped("seal"));
    it.lap(&mut lap);
    let mut backs = Vec::new();
    for t in 0..s.size.timesteps {
        let back = ds.read_full::<f32>(FIELD, t);
        let secs = it.lap(&mut lap);
        if let Ok((_, stats)) = &back {
            acct.read(secs, stats);
        }
        backs.push(back);
    }
    it.virtual_s += restarted.clock().now_ns() as f64 / 1e9;

    for (back, want) in backs.iter().zip(&s.expected) {
        it.check(back.as_ref().is_ok_and(|(r, _)| bitwise_eq(r, want)));
    }
    let read_back = restarted.obs().snapshot();
    it.check(read_back.sum_counter_across_scopes("wan.read_ops") == 0);

    if traced {
        layers::storage_layers(&mut it, &before, &after_write);
        // The restarted client's registry starts empty: add its reads.
        let mut second = Iteration::default();
        layers::storage_layers(&mut second, &Default::default(), &read_back);
        for name in
            ["tiercache.lookups", "tiercache.ram_hits", "tiercache.disk_hits", "wan.read_ops"]
        {
            it.add(name, second.get(name));
        }
        let lookups = it.get("tiercache.lookups");
        let hits = it.get("tiercache.ram_hits") + it.get("tiercache.disk_hits");
        it.set("tiercache.hit_ratio", if lookups > 0.0 { hits / lookups } else { 0.0 });
        let sum = |a: Option<Arc<IoStats>>, b: Option<Arc<IoStats>>| {
            let snap =
                |io: Option<Arc<IoStats>>| io.expect("traced runs wrap the stores").snapshot();
            snap(a).plus(&snap(b))
        };
        layers::local_layer(&mut it, &sum(local1, local2));
        layers::stack_layer(&mut it, &sum(stack1, stack2));
        acct.finish(&mut it);
        layers::compress_replay(&mut it, codec, &capture.take(), block_bytes);
    }
    Ok(it)
}

fn bitwise_eq(a: &Raster<f32>, b: &Raster<f32>) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size { px: 96, timesteps: 2, boxes: 2 };

    #[test]
    fn same_seed_gives_identical_exact_metrics() {
        let a = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        let b = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        crate::report::assert_exact_eq(&a, &b);
        assert_eq!((a.failed, b.failed), (0, 0));
        assert!(a.get("idx.rmw_fetches") > 0.0, "unaligned boxes read-modify-write");
    }

    #[test]
    fn checks_reject_a_corrupted_oracle() {
        let mut s = setup(4, TINY).unwrap();
        s.expected[1].data_mut()[7] += 1.0;
        assert_eq!(iterate(&s, false).unwrap().failed, 1);
    }
}
