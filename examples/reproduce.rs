//! Regenerate every table and figure of the paper from the Rust stack.
//!
//! Usage: `cargo run --release --example reproduce -- [target]`
//! where `target` is one of `table1`, `fig3`, `fig4`, `fig5`, `fig6`,
//! `fig7`, `fig8`, `hz`, `compress`, `fuse`, `catalog`, `plugin`, `cloud`,
//! or `all` (default).
//!
//! Three sections print wall-clock measurements of this host, which vary
//! from run to run: `fig5`'s `seq_ms`/`par_ms`/`speedup` columns,
//! `compress`'s `enc_MB/s`/`dec_MB/s` columns, and `catalog`'s ingest
//! rate and query time. Everything else — virtual seconds included — is
//! deterministic for the fixed seed.

use nsdf::catalog::{Catalog, Record};
use nsdf::compress::CompressionStats;
use nsdf::fuse::{run_workload, Mapping, OpMix};
use nsdf::idx::{blocks_touched, Layout};
use nsdf::plugin::{run_campaign, select_entry_point, select_entry_point_oracle};
use nsdf::prelude::*;
use nsdf::util::samples_to_bytes;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 2024;

fn main() -> Result<()> {
    let target = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let all = target == "all";
    let mut ran = false;
    macro_rules! section {
        ($name:literal, $f:expr) => {
            if all || target == $name {
                println!("\n================ {} ================", $name);
                $f?;
                ran = true;
            }
        };
    }
    section!("table1", table1());
    section!("fig8", fig8());
    section!("fig3", fig3());
    section!("fig4", fig4());
    section!("fig5", fig5());
    section!("fig6", fig6());
    section!("fig7", fig7());
    section!("hz", hz_locality());
    section!("compress", compress_table());
    section!("fuse", fuse_table());
    section!("catalog", catalog_table());
    section!("plugin", plugin_table());
    section!("cloud", cloud_table());
    if !ran {
        eprintln!("unknown target {target:?}");
        std::process::exit(2);
    }
    Ok(())
}

/// Table I: participants per session.
fn table1() -> Result<()> {
    print!("{}", format_table1(&Session::paper_sessions()));
    Ok(())
}

/// Fig. 8: survey Likert histograms (simulated cohorts; see DESIGN.md).
fn fig8() -> Result<()> {
    let tallies = SurveyModel::new(SEED).run(&Session::paper_sessions())?;
    for t in &tallies {
        println!("\n(Fig. {}) {}", t.question.panel(), t.question.text());
        println!(
            "  n={} mean={:.2} positive={:.0}%",
            t.total(),
            t.mean(),
            t.positive_fraction() * 100.0
        );
        print!("{}", t.ascii());
    }
    Ok(())
}

/// Fig. 3: the data-conversion flow across storage environments.
fn fig3() -> Result<()> {
    println!("TIFF->IDX conversion pipeline routed through each environment:");
    println!(
        "{:<12} {:>12} {:>12} {:>10} {:>14}",
        "endpoint", "tiff_bytes", "idx_bytes", "ratio", "virt_secs"
    );
    for endpoint in ["local", "dataverse", "seal"] {
        let client = NsdfClient::simulated(SEED);
        let mut cfg = TutorialConfig::small(SEED);
        cfg.storage_endpoint = endpoint.into();
        let report = run_tutorial(&client, &cfg)?;
        println!(
            "{:<12} {:>12} {:>12} {:>10.3} {:>14.2}",
            endpoint,
            report.tiff_bytes,
            report.idx_bytes,
            report.size_ratio(),
            report.total_virtual_secs
        );
    }
    Ok(())
}

/// Fig. 4: the four-step workflow with per-step timing and artifacts.
fn fig4() -> Result<()> {
    let client = NsdfClient::simulated(SEED);
    let report = run_tutorial(&client, &TutorialConfig::small(SEED))?;
    println!("{:<28} {:>10} {:>10} {:>14}", "step", "secs", "artifacts", "bytes");
    for r in &report.run.records {
        let bytes: u64 = r.produced.iter().map(|a| a.bytes).sum();
        println!(
            "{:<28} {:>10.3} {:>10} {:>14}",
            r.name,
            r.virtual_secs(),
            r.produced.len(),
            bytes
        );
    }
    println!("validation exact: {}", report.validation_exact());
    for i in &report.interactions {
        println!("  interaction {:<14} {:>8.3}s", i.label, i.virtual_secs);
    }
    Ok(())
}

/// Fig. 5: GEOtiled — tiling preserves accuracy while parallelising.
fn fig5() -> Result<()> {
    println!(
        "{:<10} {:<8} {:<6} {:>9} {:>9} {:>9} {:>12}",
        "grid", "tiles", "halo", "seq_ms", "par_ms", "speedup", "max_err"
    );
    for &size in &[256usize, 512] {
        let dem = DemConfig::conus_like(size, size, SEED).generate();
        let t0 = Instant::now();
        let (reference, _) = compute_terrain_tiled(
            &dem,
            TerrainParam::Slope,
            Sun::default(),
            &TilePlan::new(1, 1, 1)?,
            1,
        )?;
        let seq_ms = t0.elapsed().as_secs_f64() * 1e3;
        for (tiles, halo) in [(4usize, 1usize), (8, 1), (8, 0)] {
            let plan = TilePlan::new(tiles, tiles, halo)?;
            let t1 = Instant::now();
            let (tiled, _) =
                compute_terrain_tiled(&dem, TerrainParam::Slope, Sun::default(), &plan, 8)?;
            let par_ms = t1.elapsed().as_secs_f64() * 1e3;
            let acc = AccuracyReport::compare(&reference, &tiled)?;
            println!(
                "{:<10} {:<8} {:<6} {:>9.1} {:>9.1} {:>8.2}x {:>12.2e}",
                format!("{size}x{size}"),
                format!("{tiles}x{tiles}"),
                halo,
                seq_ms,
                par_ms,
                seq_ms / par_ms,
                acc.max_abs_err
            );
        }
    }
    Ok(())
}

/// Fig. 6 + §IV-B: TIFF-vs-IDX static validation and the ~20 % size claim.
fn fig6() -> Result<()> {
    let dem = DemConfig::conus_like(512, 512, SEED).generate();
    let slope = nsdf::geotiled::compute_terrain(&dem, TerrainParam::Slope, Sun::default())?;
    let tiff = write_tiff(&slope, TiffCompression::None)?;
    println!("slope raster 512x512 f32; uncompressed TIFF = {} bytes", tiff.len());
    println!(
        "{:<16} {:>12} {:>10} {:>12} {:>10}",
        "idx codec", "idx_bytes", "vs_tiff", "max_err", "psnr_dB"
    );
    for codec in [
        Codec::Raw,
        Codec::PackBits,
        Codec::Lz4,
        Codec::Lzss,
        Codec::ShuffleLzss { sample_size: 4 },
        Codec::LzssHuff { sample_size: 4 },
        Codec::FixedRate { bits: 16 },
        Codec::FixedRate { bits: 10 },
    ] {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let meta =
            IdxMeta::new_2d("fig6", 512, 512, vec![Field::new("slope", DType::F32)?], 12, codec)?;
        let ds = IdxDataset::create(store, "fig6", meta)?;
        let stats = ds.write_raster("slope", 0, &slope)?;
        let (back, _) = ds.read_full::<f32>("slope", 0)?;
        let acc = AccuracyReport::compare(&slope, &back)?;
        println!(
            "{:<16} {:>12} {:>9.3} {:>12.4e} {:>10.1}",
            codec.name(),
            stats.bytes_stored,
            stats.bytes_stored as f64 / tiff.len() as f64,
            acc.max_abs_err,
            acc.psnr_db
        );
    }
    Ok(())
}

/// Fig. 7: interactive dashboard latencies over local vs Seal storage.
fn fig7() -> Result<()> {
    let dem = DemConfig::conus_like(1024, 1024, SEED).generate();
    for (label, remote) in [("local", false), ("seal", true)] {
        let clock = SimClock::new();
        let base: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let store: Arc<dyn ObjectStore> = if remote {
            Arc::new(TierCache::new(
                Arc::new(CloudStore::new(
                    base,
                    NetworkProfile::private_seal(),
                    clock.clone(),
                    SEED,
                )),
                128 << 20,
            ))
        } else {
            base
        };
        let meta = IdxMeta::new_2d(
            "conus-30m",
            1024,
            1024,
            vec![Field::new("elevation", DType::F32)?],
            12,
            Codec::ShuffleLzss { sample_size: 4 },
        )?;
        let ds = Arc::new(IdxDataset::create(store.clone(), "fig7", meta)?);
        ds.write_raster("elevation", 0, &dem)?;
        // Cold dashboard: drop the transfer cache.
        if remote {
            // Rebuild a fresh cache so interactive reads start cold.
            let inner: Arc<dyn ObjectStore> = Arc::new(CloudStore::new(
                Arc::new(MemoryStore::new()),
                NetworkProfile::private_seal(),
                clock.clone(),
                SEED,
            ));
            // Copy published objects into the fresh WAN store.
            for m in store.list("fig7")? {
                inner.put(&m.key, &store.get(&m.key)?)?;
            }
            let cold: Arc<dyn ObjectStore> = Arc::new(TierCache::new(inner, 128 << 20));
            let ds = Arc::new(IdxDataset::open(cold, "fig7")?);
            run_session(label, ds, &clock)?;
        } else {
            run_session(label, ds, &clock)?;
        }
    }
    Ok(())
}

fn run_session(label: &str, ds: Arc<IdxDataset>, clock: &SimClock) -> Result<()> {
    let mut dash = Dashboard::new();
    dash.add_dataset("conus", ds);
    dash.select_dataset("conus")?;
    dash.set_viewport_px(512)?;
    println!("-- {label} storage --");
    println!(
        "{:<18} {:>8} {:>10} {:>12} {:>10}",
        "interaction", "level", "blocks", "bytes", "virt_ms"
    );
    let shot = |name: &str, dash: &Dashboard| -> Result<()> {
        let t = clock.now_secs();
        let (_, info) = dash.render_frame()?;
        println!(
            "{:<18} {:>8} {:>10} {:>12} {:>10.1}",
            name,
            info.level,
            info.stats.blocks_touched,
            info.stats.bytes_fetched,
            (clock.now_secs() - t) * 1e3
        );
        Ok(())
    };
    shot("overview-cold", &dash)?;
    shot("overview-warm", &dash)?;
    dash.zoom(4.0)?;
    shot("zoom-4x", &dash)?;
    dash.pan(128, 128)?;
    shot("pan", &dash)?;
    dash.zoom(4.0)?;
    shot("zoom-16x", &dash)?;
    Ok(())
}

/// §III-A ablation: blocks touched per layout (HZ vs Z vs row-major).
fn hz_locality() -> Result<()> {
    let curve = HzCurve::for_dims_2d(1024, 1024)?;
    let bpb = 12;
    println!("1024x1024 grid, 4096-sample blocks; blocks touched per query:");
    println!("{:<34} {:>8} {:>10} {:>11}", "query", "hz", "z-order", "row-major");
    let max = curve.max_level();
    let cases = [
        ("full grid, overview (1/64 res)", Box2i::new(0, 0, 1024, 1024), max - 6),
        ("full grid, half res", Box2i::new(0, 0, 1024, 1024), max - 2),
        ("128x128 region, full res", Box2i::new(448, 448, 576, 576), max),
        ("64x64 region, full res", Box2i::new(100, 900, 164, 964), max),
    ];
    for (name, region, level) in cases {
        let counts: Vec<u64> = Layout::all()
            .iter()
            .map(|&l| blocks_touched(&curve, l, region, level, bpb))
            .collect::<Result<_>>()?;
        println!("{:<34} {:>8} {:>10} {:>11}", name, counts[0], counts[1], counts[2]);
    }
    Ok(())
}

/// §III-A/IV-B: codec ratio/throughput table on terrain data.
fn compress_table() -> Result<()> {
    let dem = DemConfig::conus_like(512, 512, SEED).generate();
    let raw = samples_to_bytes(dem.data());
    println!("512x512 f32 DEM = {} bytes raw", raw.len());
    println!(
        "{:<16} {:>10} {:>8} {:>12} {:>12}",
        "codec", "bytes", "ratio", "enc_MB/s", "dec_MB/s"
    );
    let mb = raw.len() as f64 / 1e6;
    for codec in [
        Codec::PackBits,
        Codec::Lz4,
        Codec::Lzss,
        Codec::ShuffleLzss { sample_size: 4 },
        Codec::LzssHuff { sample_size: 4 },
        Codec::FixedRate { bits: 16 },
    ] {
        let t0 = Instant::now();
        let enc = codec.encode(&raw)?;
        let enc_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let _ = codec.decode(&enc, raw.len())?;
        let dec_s = t1.elapsed().as_secs_f64();
        let stats = CompressionStats { codec, raw_bytes: raw.len(), compressed_bytes: enc.len() };
        println!(
            "{:<16} {:>10} {:>8.2} {:>12.1} {:>12.1}",
            codec.name(),
            enc.len(),
            stats.ratio(),
            mb / enc_s,
            mb / dec_s
        );
    }
    Ok(())
}

/// §III-B NSDF-FUSE: mapping-package comparison.
fn fuse_table() -> Result<()> {
    println!(
        "{:<14} {:<12} {:>10} {:>10} {:>12}",
        "workload", "mapping", "store_rd", "store_wr", "virt_secs"
    );
    for (name, mix) in
        [("small-files", OpMix::small_files()), ("large-files", OpMix::large_files())]
    {
        for mapping in Mapping::palette() {
            let r = run_workload(mapping, NetworkProfile::public_dataverse(), mix, SEED)?;
            println!(
                "{:<14} {:<12} {:>10} {:>10} {:>12.2}",
                name,
                mapping.name(),
                r.store_read_ops,
                r.store_write_ops,
                r.virtual_secs
            );
        }
    }
    Ok(())
}

/// §III-B NSDF-Catalog: ingest/query throughput + extrapolation.
fn catalog_table() -> Result<()> {
    let cat = Catalog::new(64)?;
    let n = 200_000u64;
    let t0 = Instant::now();
    cat.ingest((0..n).map(|i| {
        Record::new(i, format!("d{:03}/o{i:07}", i % 200), "dataverse", 4096, i % 50_000)
            .expect("valid")
    }))?;
    let rate = n as f64 / t0.elapsed().as_secs_f64();
    println!("ingest: {rate:.0} records/s (single node)");
    println!("1.59e9 records => {:.1} h single-node ingest", 1.59e9 / rate / 3600.0);
    let t1 = Instant::now();
    let hits = cat.find_by_prefix("d077/");
    println!("prefix query: {} hits in {:.1} ms", hits.len(), t1.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

/// §III / Fig. 2 computing services: NSDF-Cloud ad-hoc clusters.
fn cloud_table() -> Result<()> {
    use nsdf::cloud::{provision, ClusterRequest, Job, Provider};
    let providers = Provider::nsdf_federation();
    println!("bag of 256 jobs x 10 core-minutes over the NSDF federation:");
    println!("{:<8} {:>12} {:>12} {:>10} {:>8}", "nodes", "makespan_s", "cost_$", "util_%", "$/h");
    let jobs: Vec<Job> = (0..256).map(|id| Job { id, work: 600.0 }).collect();
    for nodes in [4u32, 16, 36, 64] {
        let cluster = provision(&providers, &ClusterRequest { nodes, max_cost_per_hour: 50.0 })?;
        let clock = SimClock::new();
        let report = cluster.run_jobs(&jobs, &clock)?;
        println!(
            "{:<8} {:>12.0} {:>12.2} {:>10.1} {:>8.2}",
            nodes,
            report.makespan_secs,
            report.cost_dollars,
            report.utilisation * 100.0,
            cluster.cost_per_hour()
        );
    }
    Ok(())
}

/// §III-B NSDF-Plugin: constraints matrix summary + selection quality.
fn plugin_table() -> Result<()> {
    let tb = nsdf::plugin::Testbed::nsdf_default();
    let matrix = run_campaign(&tb, 50, SEED)?;
    let mut worst: (f64, &str, &str) = (0.0, "", "");
    let mut best: (f64, &str, &str) = (f64::INFINITY, "", "");
    for p in &matrix.pairs {
        if p.from != p.to {
            if p.rtt_mean_ms > worst.0 {
                worst = (p.rtt_mean_ms, &p.from, &p.to);
            }
            if p.rtt_mean_ms < best.0 {
                best = (p.rtt_mean_ms, &p.from, &p.to);
            }
        }
    }
    println!("8-site campaign, 50 probes/pair:");
    println!("  fastest pair: {} -> {} ({:.1} ms)", best.1, best.2, best.0);
    println!("  slowest pair: {} -> {} ({:.1} ms)", worst.1, worst.2, worst.0);
    let replicas = ["utah", "sdsc", "mghpcc", "tacc"];
    let mut agree = 0;
    let clients = ["utk", "umich", "clemson", "jhu"];
    for c in clients {
        let (got, _) = select_entry_point(&matrix, c, &replicas, 1 << 30)?;
        let (want, _) = select_entry_point_oracle(&tb, c, &replicas, 1 << 30)?;
        if got == want {
            agree += 1;
        }
    }
    println!("  entry-point selection matches oracle: {agree}/{} clients", clients.len());
    Ok(())
}
