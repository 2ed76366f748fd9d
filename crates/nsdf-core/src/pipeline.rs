//! The four-step tutorial workflow (paper §IV, Figs. 3–4): data
//! generation → conversion to IDX → static visualization/validation →
//! interactive visualization & analysis — as a four-task [`TaskGraph`]
//! named `nsdf-tutorial` over an [`NsdfClient`].
//!
//! The steps form a chain of exclusive tasks, so each runs on the caller
//! thread inside its own span (`tutorial.1-data-generation`, ...). A step
//! uploads its artifacts to the storage endpoint with one `put_many`
//! inside that span and returns them as payloads; the graph runs without
//! a store, so the engine hands the payloads to downstream steps in
//! memory and issues no I/O of its own. Every artifact in the run report
//! is therefore a real object at its location, and every WAN byte is
//! attributed to a step.
//!
//! Timing model: storage operations charge the shared virtual clock
//! through the WAN simulation; compute is charged per pixel with the same
//! model as the tile-level DAG ([`crate::dag`]), so virtual time is a
//! pure function of the seed.

use crate::client::NsdfClient;
use crate::dag::{GEN_NS_PER_PX, INGEST_NS_PER_PX, TERRAIN_NS_PER_PX, VALIDATE_NS_PER_PX};
use nsdf_compress::Codec;
use nsdf_dashboard::{Colormap, Dashboard, FrameInfo, RangeMode};
use nsdf_geotiled::{compute_terrain_tiled_obs, DemConfig, Sun, TerrainParam, TilePlan};
use nsdf_idx::{Field, IdxDataset, IdxMeta, QueryStats, WriteStats};
use nsdf_storage::ObjectStore;
use nsdf_tiff::{read_tiff, write_tiff, TiffCompression};
use nsdf_util::{AccuracyReport, Box2i, DType, NsdfError, Raster, Result};
use nsdf_workflow::{GraphRun, RunOptions, TaskCtx, TaskGraph, TaskOutput};
use std::sync::{Arc, Mutex};

/// Configuration of one tutorial run.
#[derive(Debug, Clone)]
pub struct TutorialConfig {
    /// DEM width in pixels.
    pub width: usize,
    /// DEM height in pixels.
    pub height: usize,
    /// Master seed.
    pub seed: u64,
    /// GEOtiled tile grid.
    pub tiles: (usize, usize),
    /// Worker threads for tiled computation.
    pub threads: usize,
    /// Block codec for the IDX dataset.
    pub codec: Codec,
    /// log2 samples per IDX block.
    pub bits_per_block: u32,
    /// Blocks uploaded per `put_many` batch during Step 2's conversion.
    pub write_concurrency: usize,
    /// Storage endpoint holding the TIFFs and the IDX dataset
    /// (`"local"`, `"dataverse"`, or `"seal"` on a simulated client).
    pub storage_endpoint: String,
    /// Dashboard viewport size in pixels.
    pub viewport_px: usize,
}

impl TutorialConfig {
    /// A Tennessee-scale run that completes in seconds.
    pub fn small(seed: u64) -> TutorialConfig {
        TutorialConfig {
            width: 512,
            height: 256,
            seed,
            tiles: (4, 2),
            threads: 4,
            codec: Codec::LzssHuff { sample_size: 4 },
            bits_per_block: 12,
            write_concurrency: 8,
            storage_endpoint: "seal".into(),
            viewport_px: 256,
        }
    }
}

/// One recorded dashboard interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Interaction {
    /// Interaction label (`"overview"`, `"zoom"`, ...).
    pub label: String,
    /// Virtual seconds the interaction took (storage time).
    pub virtual_secs: f64,
    /// Frame metadata, when the interaction rendered one.
    pub frame: Option<FrameInfo>,
}

/// Everything a tutorial run produces.
#[derive(Debug)]
pub struct TutorialReport {
    /// Run report of the four steps: per-step artifacts, lineage and
    /// virtual timings.
    pub run: GraphRun,
    /// Total bytes of the four TIFFs (Step 1 output).
    pub tiff_bytes: u64,
    /// Total stored bytes of the IDX dataset (Step 2 output).
    pub idx_bytes: u64,
    /// Merged ingest accounting across Step 2's per-parameter writes.
    pub ingest: WriteStats,
    /// Merged read-back accounting across Step 3's validation queries.
    pub readback: QueryStats,
    /// Per-parameter accuracy of IDX-read-back vs the original rasters
    /// (Step 3's validation).
    pub accuracy: Vec<(TerrainParam, AccuracyReport)>,
    /// Scripted dashboard interactions (Step 4).
    pub interactions: Vec<Interaction>,
    /// End-to-end virtual seconds.
    pub total_virtual_secs: f64,
}

impl TutorialReport {
    /// IDX size as a fraction of TIFF size — the §IV-B "~20 % smaller"
    /// number is `1 - size_ratio`.
    pub fn size_ratio(&self) -> f64 {
        if self.tiff_bytes == 0 {
            1.0
        } else {
            self.idx_bytes as f64 / self.tiff_bytes as f64
        }
    }

    /// True when every parameter validated bit-exactly in Step 3.
    pub fn validation_exact(&self) -> bool {
        !self.accuracy.is_empty() && self.accuracy.iter().all(|(_, r)| r.is_exact())
    }

    /// Wall-clock codec encode throughput of Step 2's ingest, in MB/s
    /// (raw bytes over `encode_secs`), when any encoding was timed.
    pub fn encode_mb_s(&self) -> Option<f64> {
        (self.ingest.encode_secs > 0.0)
            .then(|| self.ingest.bytes_raw as f64 / (1 << 20) as f64 / self.ingest.encode_secs)
    }

    /// Wall-clock codec decode throughput of Step 3's read-back, in MB/s
    /// (decoded bytes over `decode_secs`), when any decoding was timed.
    pub fn decode_mb_s(&self) -> Option<f64> {
        (self.readback.decode_secs > 0.0).then(|| {
            self.readback.bytes_decoded as f64 / (1 << 20) as f64 / self.readback.decode_secs
        })
    }

    /// Human-readable run summary: sizes, validation, timings, and the
    /// wall-clock codec throughput both directions.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("== NSDF tutorial summary ==\n");
        let _ = writeln!(out, "TIFF bytes:   {}", self.tiff_bytes);
        let _ = writeln!(
            out,
            "IDX bytes:    {} ({:.1} % of TIFF)",
            self.idx_bytes,
            self.size_ratio() * 100.0
        );
        let _ = writeln!(
            out,
            "validation:   {}",
            if self.validation_exact() { "bit-exact" } else { "lossy" }
        );
        let _ = writeln!(out, "virtual time: {:.3}s", self.total_virtual_secs);
        if let Some(v) = self.encode_mb_s() {
            let _ = writeln!(out, "encode:       {v:.1} MB/s (wall clock)");
        }
        if let Some(v) = self.decode_mb_s() {
            let _ = writeln!(out, "decode:       {v:.1} MB/s (wall clock)");
        }
        out
    }
}

/// The four steps, in order.
const STEPS: [&str; 4] =
    ["1-data-generation", "2-convert-to-idx", "3-static-visualization", "4-interactive-dashboard"];

/// Object-key prefix of the IDX dataset Step 2 writes.
const IDX_BASE: &str = "tutorial/idx";

/// Typed results Steps 2–4 hand back to [`run_tutorial`]. The steps are
/// exclusive tasks on the caller thread, so one shared slot suffices.
#[derive(Default)]
struct StepResults {
    ingest: WriteStats,
    readback: QueryStats,
    accuracy: Vec<(TerrainParam, AccuracyReport)>,
    interactions: Vec<Interaction>,
}

type Slot = Arc<Mutex<StepResults>>;

fn fill(slot: &Slot, f: impl FnOnce(&mut StepResults)) {
    f(&mut slot.lock().expect("tutorial result slot poisoned"));
}

/// Upload `(name, key, bytes)` artifacts with one `put_many` and return
/// them as payloads for the steps downstream.
fn publish(
    store: &dyn ObjectStore,
    artifacts: Vec<(String, String, Vec<u8>)>,
) -> Result<Vec<TaskOutput>> {
    let items: Vec<(&str, &[u8])> =
        artifacts.iter().map(|(_, key, bytes)| (key.as_str(), bytes.as_slice())).collect();
    for put in store.put_many(&items) {
        put?;
    }
    Ok(artifacts
        .into_iter()
        .map(|(name, key, bytes)| TaskOutput::payload(name, key, bytes))
        .collect())
}

fn tiff_name(param: TerrainParam) -> String {
    format!("{}.tif", param.name())
}

/// Step 1's rasters, decoded from the TIFF artifacts a step consumes.
fn input_rasters(ctx: &TaskCtx) -> Result<Vec<(TerrainParam, Raster<f32>)>> {
    TerrainParam::all()
        .into_iter()
        .map(|p| Ok((p, read_tiff::<f32>(ctx.input_bytes(&tiff_name(p))?)?)))
        .collect()
}

/// Run the four-step workflow. See module docs for the timing model.
pub fn run_tutorial(client: &NsdfClient, cfg: &TutorialConfig) -> Result<TutorialReport> {
    if cfg.width == 0 || cfg.height == 0 {
        return Err(NsdfError::invalid("tutorial grid must be non-empty"));
    }
    let store = client.store(&cfg.storage_endpoint)?;
    let obs = client.obs().scoped("tutorial");
    let slot = Slot::default();
    let definition = format!("{cfg:?}");
    let mut g = TaskGraph::new("nsdf-tutorial");

    // ---- Step 1: data generation (GEOtiled) -------------------------------
    g.add_exclusive_task(STEPS[0], &[], &definition, {
        let (cfg, store, obs) = (cfg.clone(), Arc::clone(&store), obs.clone());
        move |ctx| {
            let _step_span = obs.span(STEPS[0]);
            let dem = DemConfig::conus_like(cfg.width, cfg.height, cfg.seed).generate();
            ctx.charge_compute_ns(dem.len() as u64 * GEN_NS_PER_PX);
            let plan = TilePlan::new(cfg.tiles.0, cfg.tiles.1, 1)?;
            let mut tiffs = Vec::new();
            for param in TerrainParam::all() {
                let (raster, tiled) = compute_terrain_tiled_obs(
                    &dem,
                    param,
                    Sun::default(),
                    &plan,
                    cfg.threads,
                    &obs,
                )?;
                ctx.charge_compute_ns(tiled.pixels_computed * TERRAIN_NS_PER_PX);
                let key = format!("tutorial/tiff/{}.tif", param.name());
                tiffs.push((tiff_name(param), key, write_tiff(&raster, TiffCompression::None)?));
            }
            publish(&*store, tiffs)
        }
    })?;

    // ---- Step 2: conversion to IDX ----------------------------------------
    g.add_exclusive_task(STEPS[1], &[STEPS[0]], &definition, {
        let (cfg, store, obs, slot) = (cfg.clone(), Arc::clone(&store), obs.clone(), slot.clone());
        move |ctx| {
            let _step_span = obs.span(STEPS[1]);
            // The conversion decodes the TIFF artifacts Step 1 stored, as
            // in Fig. 3, not Step 1's in-memory rasters.
            let rasters = input_rasters(ctx)?;
            let fields = rasters
                .iter()
                .map(|(p, _)| Field::new(p.name(), DType::F32))
                .collect::<Result<Vec<_>>>()?;
            let mut meta = IdxMeta::new_2d(
                "tutorial-terrain",
                cfg.width as u64,
                cfg.height as u64,
                fields,
                cfg.bits_per_block,
                cfg.codec,
            )?;
            if let Some(g) = rasters[0].1.geo {
                meta = meta.with_geo(g);
            }
            let ds = IdxDataset::create(Arc::clone(&store), IDX_BASE, meta)?
                .with_obs(&obs)
                .with_write_concurrency(cfg.write_concurrency);
            let mut ingest = WriteStats::default();
            for (param, raster) in &rasters {
                ingest.merge(&ds.write_raster(param.name(), 0, raster)?);
                ctx.charge_compute_ns(raster.len() as u64 * INGEST_NS_PER_PX);
            }
            // Each field's artifact is the receipt of its stored blocks
            // (`<base>/f<F>/...`): one `key size checksum` line per block,
            // from one listing of the whole dataset.
            let stored = store.list(&format!("{IDX_BASE}/f"))?;
            let listings = rasters
                .iter()
                .enumerate()
                .map(|(f, (param, _))| {
                    let prefix = format!("{IDX_BASE}/f{f}/");
                    let text: String = stored
                        .iter()
                        .filter(|m| m.key.starts_with(&prefix))
                        .map(|m| format!("{} {} {:016x}\n", m.key, m.size, m.checksum))
                        .collect();
                    let name = format!("{}.idx-blocks", param.name());
                    (name.clone(), format!("{IDX_BASE}/{name}"), text.into_bytes())
                })
                .collect();
            fill(&slot, |r| r.ingest = ingest);
            publish(&*store, listings)
        }
    })?;

    // ---- Step 3: static visualization & validation -------------------------
    // Depends on Step 1 too: validation compares against the original
    // rasters, which lossless TIFF carries bit-exactly.
    g.add_exclusive_task(STEPS[2], &[STEPS[0], STEPS[1]], &definition, {
        let (store, obs, slot) = (Arc::clone(&store), obs.clone(), slot.clone());
        move |ctx| {
            let _step_span = obs.span(STEPS[2]);
            let ds = IdxDataset::open(Arc::clone(&store), IDX_BASE)?.with_obs(&obs);
            let mut accuracy = Vec::new();
            let mut readback = QueryStats::default();
            let mut images = Vec::new();
            for (param, original) in input_rasters(ctx)? {
                let (from_idx, q) = ds.read_full::<f32>(param.name(), 0)?;
                readback.merge(&q);
                accuracy.push((param, AccuracyReport::compare(&original, &from_idx)?));
                let img = nsdf_dashboard::render(&from_idx, Colormap::Terrain, RangeMode::Dynamic)?;
                ctx.charge_compute_ns(from_idx.len() as u64 * VALIDATE_NS_PER_PX);
                images.push((
                    format!("{}.ppm", param.name()),
                    format!("tutorial/static/{}.ppm", param.name()),
                    img.to_ppm(),
                ));
            }
            fill(&slot, |r| (r.accuracy, r.readback) = (accuracy, readback));
            publish(&*store, images)
        }
    })?;

    // ---- Step 4: interactive visualization & analysis ----------------------
    g.add_exclusive_task(STEPS[3], &[STEPS[1], STEPS[2]], &definition, {
        let (cfg, store, obs, slot) = (cfg.clone(), Arc::clone(&store), obs.clone(), slot.clone());
        move |ctx| {
            let _step_span = obs.span(STEPS[3]);
            let ds = Arc::new(IdxDataset::open(Arc::clone(&store), IDX_BASE)?.with_obs(&obs));
            let mut dash = Dashboard::new();
            dash.set_obs(&obs);
            dash.add_dataset("tutorial-terrain", ds);
            dash.select_dataset("tutorial-terrain")?;
            dash.set_viewport_px(cfg.viewport_px)?;
            dash.set_colormap(Colormap::Terrain);

            let clock = ctx.clock().clone();
            let mut interactions = Vec::new();
            let mut record = |label: &str, frame: Option<FrameInfo>, t0: f64| {
                interactions.push(Interaction {
                    label: label.to_string(),
                    virtual_secs: clock.now_secs() - t0,
                    frame,
                });
            };

            let t = clock.now_secs();
            let (_, info) = dash.render_frame()?;
            record("overview", Some(info), t);

            let t = clock.now_secs();
            dash.zoom(4.0)?;
            let (_, info) = dash.render_frame()?;
            record("zoom-4x", Some(info), t);

            let t = clock.now_secs();
            dash.pan((cfg.width / 8) as i64, 0)?;
            let (_, info) = dash.render_frame()?;
            record("pan", Some(info), t);

            let t = clock.now_secs();
            dash.select_field("slope")?;
            let (_, info) = dash.render_frame()?;
            record("switch-field", Some(info), t);

            let t = clock.now_secs();
            let region = dash.region();
            let quarter = Box2i::new(
                region.x0,
                region.y0,
                region.x0 + (region.width() / 2).max(1),
                region.y0 + (region.height() / 2).max(1),
            );
            let snip = dash.snip(quarter)?;
            record("snip", None, t);

            fill(&slot, |r| r.interactions = interactions);
            publish(
                &*store,
                vec![
                    (
                        "snippet.py".into(),
                        "tutorial/snippets/extract.py".into(),
                        snip.python_script.into_bytes(),
                    ),
                    (
                        "snippet.tif".into(),
                        "tutorial/snippets/region.tif".into(),
                        write_tiff(&snip.raster, TiffCompression::None)?,
                    ),
                ],
            )
        }
    })?;

    let run = {
        let _run_span = obs.span("run");
        g.run(&RunOptions::new(client.clock().clone()))?
    };
    if !run.succeeded() {
        let failed = run.first_error().unwrap_or("unknown step failure");
        return Err(NsdfError::invalid(format!("tutorial workflow failed: {failed}")));
    }
    let results = std::mem::take(&mut *slot.lock().expect("tutorial result slot poisoned"));
    Ok(TutorialReport {
        tiff_bytes: run.records[0].produced.iter().map(|a| a.bytes).sum(),
        idx_bytes: results.ingest.bytes_stored,
        ingest: results.ingest,
        readback: results.readback,
        accuracy: results.accuracy,
        interactions: results.interactions,
        total_virtual_secs: run.virtual_secs(),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_small(endpoint: &str) -> TutorialReport {
        let client = NsdfClient::simulated(5);
        let mut cfg = TutorialConfig::small(5);
        cfg.width = 128;
        cfg.height = 64;
        cfg.tiles = (2, 2);
        cfg.storage_endpoint = endpoint.into();
        run_tutorial(&client, &cfg).unwrap()
    }

    #[test]
    fn four_steps_all_succeed() {
        let report = run_small("seal");
        assert_eq!(report.run.name, "nsdf-tutorial");
        assert_eq!(report.run.records.len(), 4);
        assert!(report.run.succeeded());
        let names: Vec<&str> = report.run.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "1-data-generation",
                "2-convert-to-idx",
                "3-static-visualization",
                "4-interactive-dashboard"
            ]
        );
        // A chain: one step per wave, so the steps' virtual spans tile
        // the run with no gap and no overlap.
        for (wave, pair) in report.run.records.windows(2).enumerate() {
            assert_eq!(pair[0].wave, wave as u64);
            assert_eq!(pair[0].ended_ns, pair[1].started_ns);
        }
        assert_eq!(report.run.records[0].started_ns, report.run.started_ns);
        assert_eq!(report.run.records[3].ended_ns, report.run.ended_ns);
    }

    #[test]
    fn every_artifact_is_a_stored_object() {
        let client = NsdfClient::simulated(7);
        let mut cfg = TutorialConfig::small(7);
        cfg.width = 128;
        cfg.height = 64;
        cfg.tiles = (2, 2);
        let report = run_tutorial(&client, &cfg).unwrap();
        let store = client.store(&cfg.storage_endpoint).unwrap();
        let artifacts: Vec<_> = report.run.records.iter().flat_map(|r| &r.produced).collect();
        assert_eq!(artifacts.len(), 4 + 4 + 4 + 2);
        for a in artifacts {
            let head = store.head(&a.location).unwrap();
            assert_eq!((head.size, head.checksum), (a.bytes, a.checksum), "{}", a.name);
        }
        // Step 2's block listing accounts for every stored block byte.
        let listed: u64 = TerrainParam::all()
            .iter()
            .map(|p| store.get(&format!("{IDX_BASE}/{}.idx-blocks", p.name())).unwrap())
            .flat_map(|text| {
                let text = String::from_utf8(text).unwrap();
                text.lines()
                    .map(|l| l.split(' ').nth(1).unwrap().parse::<u64>().unwrap())
                    .collect::<Vec<_>>()
            })
            .sum();
        assert_eq!(listed, report.idx_bytes);
    }

    #[test]
    fn idx_is_smaller_than_tiff_and_lossless() {
        let report = run_small("seal");
        assert!(report.tiff_bytes > 0 && report.idx_bytes > 0);
        assert!(
            report.size_ratio() < 1.0,
            "IDX {} vs TIFF {}",
            report.idx_bytes,
            report.tiff_bytes
        );
        assert!(report.validation_exact(), "lossless codec must validate exactly");
        assert_eq!(report.accuracy.len(), 4);
        // Step 2's merged ingest accounting agrees with the byte totals and
        // records the batched upload pipeline.
        assert_eq!(report.ingest.bytes_stored, report.idx_bytes);
        assert!(report.ingest.blocks_written > 0);
        assert_eq!(report.ingest.write_concurrency, 8);
        assert!(report.ingest.put_batches > 0);
        assert_eq!(report.ingest.rmw_fetches, 0, "full-raster conversion never RMWs");
        // Step 3's read-back accounting yields the wall-clock codec
        // throughput the summary panel prints.
        assert!(report.readback.blocks_decoded > 0);
        assert!(report.readback.bytes_decoded >= report.ingest.bytes_raw);
        assert!(report.encode_mb_s().unwrap() > 0.0);
        assert!(report.decode_mb_s().unwrap() > 0.0);
        let summary = report.summary();
        assert!(summary.contains("encode:") && summary.contains("decode:"), "{summary}");
        assert!(summary.contains("bit-exact"), "{summary}");
    }

    #[test]
    fn dashboard_interactions_recorded_with_time() {
        let report = run_small("dataverse");
        let labels: Vec<&str> = report.interactions.iter().map(|i| i.label.as_str()).collect();
        assert_eq!(labels, vec!["overview", "zoom-4x", "pan", "switch-field", "snip"]);
        // Step 2's write-through cache keeps step-4 reads warm (that is the
        // caching behaviour §III-A advertises), so interactions are nearly
        // free; the uploads earlier in the run must still have cost time.
        assert!(report.interactions.iter().all(|i| i.virtual_secs >= 0.0));
        assert!(report.total_virtual_secs > 0.0);
        assert!(report.interactions[0].frame.as_ref().unwrap().stats.blocks_touched > 0);
    }

    #[test]
    fn local_endpoint_has_zero_storage_time_for_interactions() {
        let report = run_small("local");
        // All data local: interactions only cost (tiny) recorded wall time
        // for reads, which the memory store does not charge.
        assert!(report.interactions.iter().all(|i| i.virtual_secs < 0.5));
        assert!(report.validation_exact());
    }

    #[test]
    fn provenance_lineage_links_steps() {
        let report = run_small("seal");
        let p = &report.run;
        assert_eq!(p.producer_of("elevation.tif").unwrap().name, "1-data-generation");
        let consumers = p.consumers_of("elevation.idx-blocks");
        assert_eq!(consumers.len(), 2); // steps 3 and 4
    }

    #[test]
    fn tutorial_spans_attribute_steps_and_layers() {
        let client = NsdfClient::simulated(12);
        let mut cfg = TutorialConfig::small(12);
        cfg.width = 128;
        cfg.height = 64;
        cfg.tiles = (2, 2);
        run_tutorial(&client, &cfg).unwrap();

        let roots = client.obs().span_tree();
        assert_eq!(roots.len(), 1, "one root span for the whole run");
        assert_eq!(roots[0].label, "tutorial.run");
        let steps: Vec<&str> = roots[0].children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            steps,
            vec![
                "tutorial.1-data-generation",
                "tutorial.2-convert-to-idx",
                "tutorial.3-static-visualization",
                "tutorial.4-interactive-dashboard"
            ]
        );
        // Layers below the steps landed in the same registry.
        let snap = client.obs().snapshot();
        assert!(snap.counter("tutorial.geotiled.tiles") > 0);
        assert!(snap.counter("tutorial.idx.queries") > 0);
        assert!(snap.counter("tutorial.dashboard.frames") > 0);
        assert!(snap.counter("seal.wan.bytes_up") > 0, "tutorial stored on seal");
    }

    #[test]
    fn lossy_codec_reports_inexact_validation() {
        let client = NsdfClient::simulated(6);
        let mut cfg = TutorialConfig::small(6);
        cfg.width = 64;
        cfg.height = 64;
        cfg.tiles = (2, 2);
        cfg.codec = Codec::FixedRate { bits: 12 };
        cfg.storage_endpoint = "local".into();
        let report = run_tutorial(&client, &cfg).unwrap();
        assert!(!report.validation_exact());
        // But still close: PSNR above 40 dB for 12-bit terrain.
        for (p, acc) in &report.accuracy {
            assert!(acc.psnr_db > 40.0, "{}: {} dB", p.name(), acc.psnr_db);
        }
        assert!(report.size_ratio() < 0.5);
    }
}
