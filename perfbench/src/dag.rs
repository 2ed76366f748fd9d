//! `dag`: a cold GEOtiled/SOMOSPIE task-DAG run, then a one-cell DEM edit
//! rerun incrementally against the same manifest.

use crate::layers::{self, cores, IdxAcct};
use crate::report::Iteration;
use crate::timed::{BlockCapture, TimedStore};
use nsdf_core::{build_terrain_graph, DagConfig, EndpointKind, NsdfClient, StorageEndpoint};
use nsdf_geotiled::{compute_terrain, DemEdit, Sun, TerrainParam, TilePlan};
use nsdf_somospie::downscale_tile;
use nsdf_tiff::{read_tiff, write_tiff, TiffCompression};
use nsdf_util::{derive_seed, Box2i, GeoTransform, NsdfError, Raster, Result};
use nsdf_workflow::{GraphRun, RunOptions, TaskStatus};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// DEM width and height in pixels.
    pub px: usize,
    /// Tiles per axis.
    pub tiles: usize,
}

/// The benchmark size: 512² in 4×4 tiles (1024² takes ~10× longer, with
/// KNN dominating).
pub const FULL: Size = Size { px: 512, tiles: 4 };

/// Everything an iteration needs, built once per process.
pub struct Setup {
    seed: u64,
    cfg: DagConfig,
    edit: DemEdit,
    /// Field digests of a from-scratch run with the edit applied.
    pub oracle_digests: BTreeMap<String, String>,
    /// Tasks a change to the edited tile can reach.
    pub cone: BTreeSet<String>,
    /// The generation task of the edited tile.
    pub edited_task: String,
}

/// Build the configuration, pick the edited cell from `seed`, and run the
/// from-scratch oracle.
pub fn setup(seed: u64, size: Size) -> Result<Setup> {
    let mut cfg = DagConfig::small(seed);
    (cfg.width, cfg.height, cfg.tiles, cfg.threads) =
        (size.px, size.px, (size.tiles, size.tiles), cores());
    let pick = derive_seed(seed, "dag-edit");
    let edit = DemEdit {
        x: (pick % size.px as u64) as usize,
        y: ((pick >> 32) % size.px as u64) as usize,
        delta_m: 25.0,
    };
    let plan = TilePlan::new(size.tiles, size.tiles, 1)?;
    let mut edited_task = None;
    for ty in 0..size.tiles {
        for tx in 0..size.tiles {
            if edit.within(&plan.tile_box(size.px, size.px, tx, ty)) {
                edited_task = Some(format!("gen/{tx}_{ty}"));
            }
        }
    }
    let edited_task = edited_task.ok_or_else(|| NsdfError::invalid("edit outside every tile"))?;

    let mut edited = cfg.clone();
    edited.edits = vec![edit];
    let oracle = NsdfClient::simulated(seed);
    let (graph, store) = build_terrain_graph(&oracle, &edited)?;
    let cone = graph.dependency_cone(&[edited_task.as_str()]);
    let run = graph.run(&run_options(&oracle, &edited, store.clone()))?;
    if !run.succeeded() {
        return Err(NsdfError::invalid("oracle DAG run failed"));
    }
    let oracle_digests = digests(&*store, &edited)?;
    Ok(Setup { seed, cfg, edit, oracle_digests, cone, edited_task })
}

fn run_options(
    client: &NsdfClient,
    cfg: &DagConfig,
    store: Arc<dyn nsdf_storage::ObjectStore>,
) -> RunOptions {
    RunOptions::new(client.clock().clone())
        .with_threads(cfg.threads)
        .with_store(store)
        .with_manifest(manifest_key(cfg))
}

/// Store key of the engine's manifest.
fn manifest_key(cfg: &DagConfig) -> String {
    let key = cfg.manifest_key.as_deref().expect("DagConfig::small keeps a manifest");
    format!("{}/{key}", cfg.prefix)
}

fn digests(
    store: &dyn nsdf_storage::ObjectStore,
    cfg: &DagConfig,
) -> Result<BTreeMap<String, String>> {
    DagConfig::field_names()
        .into_iter()
        .map(|field| {
            let bytes = store.get(&format!("{}/validated/{field}", cfg.prefix))?;
            Ok((field.to_string(), String::from_utf8_lossy(&bytes).into_owned()))
        })
        .collect()
}

/// One cold run plus one incremental rerun on a fresh simulated client.
pub fn iterate(s: &Setup, traced: bool) -> Result<Iteration> {
    let mut it = Iteration::default();
    let capture = BlockCapture::new(8 << 20);
    let mut client = NsdfClient::simulated(s.seed);
    let mut cfg = s.cfg.clone();
    let stack_io = if traced {
        // Route the DAG through a timed handle on the same endpoint.
        let (store, io) = TimedStore::capturing(client.store("seal")?, Arc::clone(&capture));
        client.add_endpoint(StorageEndpoint {
            name: "seal-timed".into(),
            kind: EndpointKind::PrivateCloud,
            store,
        });
        cfg.storage_endpoint = "seal-timed".into();
        Some(io)
    } else {
        None
    };
    let mut edited = cfg.clone();
    edited.edits = vec![s.edit];
    let mut engine_io = Vec::new();

    let clock = client.clock().clone();
    let before = client.obs().snapshot();
    let (v0, mut lap) = (clock.now_ns(), Instant::now());
    let (mut build_s, mut run_s) = (0.0, 0.0);
    let mut run = |cfg: &DagConfig| -> Result<GraphRun> {
        let tb = Instant::now();
        let (graph, store) = build_terrain_graph(&client, cfg)?;
        build_s += tb.elapsed().as_secs_f64();
        let store = if traced {
            let (store, io) = TimedStore::watching(store, &manifest_key(cfg));
            engine_io.push(io);
            store
        } else {
            store
        };
        let tr = Instant::now();
        let run = graph.run(&run_options(&client, cfg, store))?;
        run_s += tr.elapsed().as_secs_f64();
        Ok(run)
    };
    let cold = run(&cfg)?;
    it.lap(&mut lap);
    let inc = run(&edited)?;
    it.lap(&mut lap);
    it.virtual_s = (clock.now_ns() - v0) as f64 / 1e9;
    let after = client.obs().snapshot();
    let stack = stack_io.map(|io| io.snapshot());

    for record in cold.records.iter().chain(&inc.records) {
        it.check(!matches!(record.status, TaskStatus::Failed | TaskStatus::Skipped));
    }
    let executed: BTreeSet<&str> = inc.executed().into_iter().collect();
    it.check(executed.contains(s.edited_task.as_str()));
    it.check(executed.iter().all(|t| s.cone.contains(*t)));
    let got = digests(&*client.store(&cfg.storage_endpoint)?, &cfg)?;
    for (field, want) in &s.oracle_digests {
        it.check(got.get(field) == Some(want));
    }

    if traced {
        layers::storage_layers(&mut it, &before, &after);
        layers::stack_layer(&mut it, &stack.expect("traced runs wrap the endpoint"));
        it.set("workflow.build_wall_s", build_s);
        it.set("workflow.run_wall_s", run_s);
        it.set("workflow.waves", (cold.waves + inc.waves) as f64);
        it.set("workflow.tasks_executed", (cold.executed().len() + inc.executed().len()) as f64);
        it.set(
            "workflow.tasks_up_to_date",
            (cold.up_to_date().len() + inc.up_to_date().len()) as f64,
        );
        let manifest_calls: u64 = engine_io.iter().map(|io| io.snapshot().watched_calls).sum();
        it.set("workflow.manifest_ops", manifest_calls as f64);
        it.set(
            "workflow.unreported_virtual_s",
            it.virtual_s - cold.virtual_secs() - inc.virtual_secs(),
        );
        idx_layers(&mut it, &client, &before, &after, &cfg);
        let block_bytes = (1usize << cfg.bits_per_block) * 4;
        layers::compress_replay(&mut it, cfg.codec, &capture.take(), block_bytes);
        kernel_replays(&mut it, &edited)?;
    }
    Ok(it)
}

/// The DAG's IDX calls run inside tasks, so their wall split comes from the
/// spans of the client's Obs registry and their counts from its counters.
fn idx_layers(
    it: &mut Iteration,
    client: &NsdfClient,
    before: &nsdf_util::obs::MetricsSnapshot,
    after: &nsdf_util::obs::MetricsSnapshot,
    cfg: &DagConfig,
) {
    let spans = client.obs().span_tree();
    let wall = |suffix: &str| layers::span_wall(&spans, suffix);
    let d = |name: &str| layers::delta(before, after, name) as f64;
    let raw_bytes = d("idx.writes") * (cfg.width * cfg.height * 4) as f64;
    let mut acct = IdxAcct::default();
    let write = nsdf_idx::WriteStats {
        blocks_written: d("idx.blocks_written") as u64,
        rmw_fetches: d("idx.rmw_fetches") as u64,
        put_batches: d("idx.put_batches") as u64,
        encode_secs: wall(".idx.encode"),
        put_secs: wall(".idx.put"),
        ..Default::default()
    };
    acct.write(wall(".idx.write_raster") + wall(".idx.write_box"), raw_bytes as usize, &write);
    let read = nsdf_idx::QueryStats {
        samples_out: (d("idx.queries") as usize * cfg.width * cfg.height) as u64,
        blocks_decoded: d("idx.blocks_decoded") as u64,
        decoded_cache_hits: d("idx.decoded_cache_hits") as u64,
        fetch_secs: wall(".idx.fetch"),
        decode_secs: wall(".idx.decode"),
        ..Default::default()
    };
    acct.read(wall(".idx.read_box"), &read);
    acct.finish(it);
}

/// Replay the DAG's kernels on the run's own inputs: DEM generation per
/// tile, terrain per parameter, KNN per tile and the tile TIFF round trip.
fn kernel_replays(it: &mut Iteration, cfg: &DagConfig) -> Result<()> {
    let dem_cfg = nsdf_geotiled::DemConfig::conus_like(cfg.width, cfg.height, cfg.seed);
    let plan = TilePlan::new(cfg.tiles.0, cfg.tiles.1, 1)?;
    let boxes = plan.tiles(cfg.width, cfg.height);

    let t = Instant::now();
    let mut dem = Raster::<f32>::zeros(cfg.width, cfg.height);
    for b in &boxes {
        let edits: Vec<DemEdit> = cfg.edits.iter().copied().filter(|e| e.within(b)).collect();
        dem.paste(&dem_cfg.generate_window(*b, &edits)?, b.x0 as usize, b.y0 as usize)?;
    }
    it.set("geotiled.dem_wall_s", t.elapsed().as_secs_f64());
    let dem = dem.with_geo(GeoTransform::north_up(0.0, 0.0, dem_cfg.pixel_size_m));

    let t = Instant::now();
    let mut terrain = BTreeMap::new();
    for param in TerrainParam::all() {
        terrain.insert(param.name(), compute_terrain(&dem, param, Sun::default())?);
    }
    it.set("geotiled.terrain_wall_s", t.elapsed().as_secs_f64());
    it.set("geotiled.px", (cfg.width * cfg.height * (1 + TerrainParam::all().len())) as f64);

    let tiles: Vec<(Box2i, [Raster<f32>; 3])> = boxes
        .iter()
        .map(|b| {
            let w = |name: &str| terrain[name].window(*b);
            Ok((*b, [w("elevation")?, w("slope")?, w("aspect")?]))
        })
        .collect::<Result<_>>()?;
    let t = Instant::now();
    let (mut train, mut predicted) = (0, 0);
    let mut moisture = Vec::new();
    for (_, [elev, slope, aspect]) in &tiles {
        let m = downscale_tile(elev, slope, aspect, &cfg.moisture)?;
        train += m.train_points;
        predicted += m.predicted.len();
        moisture.push(m.predicted);
    }
    it.set("somospie.knn_wall_s", t.elapsed().as_secs_f64());
    it.set("somospie.train_points", train as f64);
    it.set("somospie.predicted_px", predicted as f64);

    let t = Instant::now();
    for b in &boxes {
        for field in terrain.values() {
            let bytes = write_tiff(&field.window(*b)?, TiffCompression::None)?;
            std::hint::black_box(read_tiff::<f32>(&bytes)?);
        }
    }
    for m in &moisture {
        std::hint::black_box(read_tiff::<f32>(&write_tiff(m, TiffCompression::None)?)?);
    }
    it.set("tiff.wall_s", t.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size { px: 64, tiles: 2 };

    #[test]
    fn same_seed_gives_identical_exact_metrics() {
        let a = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        let b = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        crate::report::assert_exact_eq(&a, &b);
        assert_eq!((a.failed, b.failed), (0, 0));
        // Each of the two runs loads and saves the manifest: a handful of
        // calls, far fewer than the artifact I/O of the same runs.
        let manifest = a.get("workflow.manifest_ops");
        assert!((2.0..=8.0).contains(&manifest), "manifest calls {manifest}");
        assert!(a.get("stack.calls") > 10.0 * manifest);
    }

    #[test]
    fn checks_reject_a_corrupted_oracle() {
        let mut s = setup(4, TINY).unwrap();
        s.oracle_digests.values_mut().next().unwrap().push('x');
        assert_eq!(iterate(&s, false).unwrap().failed, 1);
        let mut s = setup(4, TINY).unwrap();
        s.cone.clear();
        assert_eq!(iterate(&s, false).unwrap().failed, 1, "executed tasks outside the cone");
    }
}
