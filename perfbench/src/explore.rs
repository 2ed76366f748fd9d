//! `explore`: a classroom of participants, each a scheduler tenant with its
//! own `QuerySession`, scripting a dashboard exploration of a published
//! multi-timestep dataset on `dataverse` through a fault-injecting client.

use crate::layers::{self, IdxAcct};
use crate::report::{median, percentile, Iteration};
use crate::timed::TimedStore;
use nsdf_core::{DagConfig, EndpointPolicy, NsdfClient};
use nsdf_dashboard::{render, Colormap, RangeMode};
use nsdf_geotiled::DemConfig;
use nsdf_idx::{Field, IdxDataset, IdxMeta, QuerySession, QueryStats, SessionFrame};
use nsdf_storage::{FailScope, FaultPlan, MemoryStore, ObjectStore, RetryPolicy, TenantPolicy};
use nsdf_util::{derive_seed, Box2i, DType, Fnv1a, NsdfError, Raster, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const BASE: &str = "explore/conus";
const FIELD: &str = "elevation";
const FAULT_SEED: u64 = 41;

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Dataset width and height in pixels.
    pub px: usize,
    /// Timesteps.
    pub timesteps: u32,
    /// Participants (tenants 1..=n).
    pub participants: u32,
    /// Side of the zoomed viewport, in full-resolution pixels.
    pub view: i64,
    /// RAM tier budget of the endpoint, below the dataset's stored size.
    pub ram_bytes: u64,
}

/// The benchmark size: 1024² × 4 timesteps, 8 participants, 256² views and
/// a 4 MiB RAM tier against ~13 MB of stored blocks.
pub const FULL: Size =
    Size { px: 1024, timesteps: 4, participants: 8, view: 256, ram_bytes: 4 << 20 };

/// One scripted interaction.
#[derive(Debug, Clone, Copy)]
enum Step {
    Overview,
    Zoom,
    Pan(i64, i64),
    Time(u32),
}

/// Each participant's script: overview, zoom to its own region, 12 pans
/// right, 8 pans down, then playback twice over the timesteps.
fn script(timesteps: u32, view: i64) -> Vec<Step> {
    let step = view / 8;
    let mut s = vec![Step::Overview, Step::Zoom];
    s.extend(std::iter::repeat_n(Step::Pan(step, 0), 12));
    s.extend(std::iter::repeat_n(Step::Pan(0, step), 8));
    s.extend((1..=2 * timesteps).map(|i| Step::Time(i % timesteps)));
    s
}

/// The published dataset's objects and the fault-free oracle.
pub struct Setup {
    seed: u64,
    size: Size,
    /// Every object of the published dataset, uploaded to a fresh client
    /// before each iteration.
    published: Vec<(String, Vec<u8>)>,
    /// The same dataset written separately on a plain `MemoryStore`: frames
    /// must equal its `read_box` of the same region and level.
    pub oracle: Arc<IdxDataset>,
    /// Digests of oracle reads already made, by timestep, region and level.
    expected: Mutex<HashMap<(u32, Box2i, u32), u64>>,
}

impl Setup {
    /// Digest of the oracle's `read_box` of `region` at `level`; the
    /// first iteration (a warm-up) pays for the reads.
    fn expected(&self, time: u32, region: Box2i, level: u32) -> Result<u64> {
        let mut cache = self.expected.lock().expect("oracle cache lock poisoned");
        if let Some(d) = cache.get(&(time, region, level)) {
            return Ok(*d);
        }
        let (want, _) = self.oracle.read_box::<f32>(FIELD, time, region, level)?;
        let d = digest(&want);
        cache.insert((time, region, level), d);
        Ok(d)
    }
}

/// FNV-1a over a raster's shape and sample bits.
fn digest(r: &Raster<f32>) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&(r.width() as u64).to_le_bytes());
    h.update(&(r.height() as u64).to_le_bytes());
    for v in r.data() {
        h.update(&v.to_bits().to_le_bytes());
    }
    h.digest()
}

/// Generate the timesteps, encode the published dataset and write the
/// oracle copy.
pub fn setup(seed: u64, size: Size) -> Result<Setup> {
    let defaults = DagConfig::small(seed);
    let meta = IdxMeta::new_2d(
        "explore",
        size.px as u64,
        size.px as u64,
        vec![Field::new(FIELD, DType::F32)?],
        defaults.bits_per_block,
        defaults.codec,
    )?
    .with_timesteps(size.timesteps)?;
    let publish_store = Arc::new(MemoryStore::new());
    let publish =
        IdxDataset::create(Arc::clone(&publish_store) as Arc<dyn ObjectStore>, BASE, meta.clone())?;
    let oracle = IdxDataset::create(Arc::new(MemoryStore::new()), BASE, meta)?;
    for t in 0..size.timesteps {
        let dem =
            DemConfig::conus_like(size.px, size.px, derive_seed(seed, &format!("t{t}"))).generate();
        publish.write_raster(FIELD, t, &dem)?;
        oracle.write_raster(FIELD, t, &dem)?;
    }
    let published = publish_store
        .list("")?
        .into_iter()
        .map(|m| Ok((m.key.clone(), publish_store.get(&m.key)?)))
        .collect::<Result<_>>()?;
    Ok(Setup { seed, size, published, oracle: Arc::new(oracle), expected: Mutex::default() })
}

/// A fresh chaos client (read faults: 5 % failures, 1 % corruption) with
/// the participants registered as tenants and the dataset uploaded to
/// `dataverse`, its RAM tier cleared. A fresh client per iteration keeps
/// every iteration's fault sequence, and so its virtual time, identical.
fn classroom(s: &Setup) -> Result<NsdfClient> {
    // The fault plan is fixed; the workload seed varies the data and the
    // WAN jitter only.
    let plan = FaultPlan::new(FAULT_SEED)
        .with_scope(FailScope::Reads)
        .with_fault_rate(0.05)
        .with_corrupt_rate(0.01);
    // Six attempts, the budget the repository's own chaos tests use: with
    // three, some of the ~1000 WAN reads of an iteration exhaust their
    // retries at these rates.
    let policy = EndpointPolicy {
        retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
        cache_bytes: s.size.ram_bytes,
        ..EndpointPolicy::default()
    };
    let client = NsdfClient::simulated_chaos(s.seed, &plan, &policy)?;
    for t in 1..=s.size.participants {
        let label = format!("participant-{t}");
        client.scheduler().register_tenant(t, &label, TenantPolicy::unthrottled());
    }
    let store = client.store("dataverse")?;
    for batch in s.published.chunks(64) {
        let items: Vec<(&str, &[u8])> =
            batch.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect();
        for r in store.put_many(&items) {
            r?;
        }
    }
    client
        .tiercache("dataverse")
        .ok_or_else(|| NsdfError::not_found("dataverse tier"))?
        .clear_ram();
    Ok(client)
}

/// The classroom, round-robin and closed loop: every participant's next
/// interaction waits for the previous participant's frame.
pub fn iterate(s: &Setup, traced: bool) -> Result<Iteration> {
    let mut it = Iteration::default();
    let mut acct = IdxAcct::default();
    let client = classroom(s)?;
    let (endpoint, stack) = TimedStore::wrap_if(traced, client.store("dataverse")?);
    let obs = client.obs().scoped("dataverse");
    // Each participant opens the dataset itself, so reuse across
    // participants goes through the endpoint's shared tier cache.
    let size = s.size;
    let mut sessions = (1..=size.participants)
        .map(|t| {
            let ds = Arc::new(IdxDataset::open(Arc::clone(&endpoint), BASE)?.with_obs(&obs));
            Ok(QuerySession::<f32>::new(ds, FIELD)?.with_obs(&obs).with_tenant(t))
        })
        .collect::<Result<Vec<_>>>()?;
    let max = s.oracle.max_level();
    let (overview_level, zoom_level) = (max.saturating_sub(4), max);
    let steps = script(size.timesteps, size.view);

    let clock = client.clock().clone();
    let before = client.obs().snapshot();
    let v0 = clock.now_ns();
    let (mut frame_wall, mut frame_virtual) = (Vec::new(), Vec::new());
    let (mut refine_s, mut render_s, mut plan_s) = (0.0, 0.0, 0.0);
    let (mut pixels, mut planned) = (0u64, 0u64);
    for step in &steps {
        for (p, session) in sessions.iter_mut().enumerate() {
            let (t0, f0) = (Instant::now(), clock.now_ns());
            let frames = interact(session, *step, p, size, overview_level, zoom_level);
            let refined = t0.elapsed().as_secs_f64();
            // Render every delivered frame, coarse to fine, as the dashboard
            // does while a view refines.
            let images: Vec<_> = frames
                .iter()
                .flatten()
                .map(|f| render(&f.raster, Colormap::Viridis, RangeMode::Dynamic))
                .collect();
            let wall = t0.elapsed().as_secs_f64();
            frame_wall.push(wall);
            frame_virtual.push((clock.now_ns() - f0) as f64 / 1e9);
            refine_s += refined;
            render_s += wall - refined;
            let Ok(frames) = frames else {
                it.check(false);
                continue;
            };
            for (frame, image) in frames.iter().zip(&images) {
                let ok = match image {
                    Ok(img) => {
                        pixels += (img.width * img.height) as u64;
                        s.expected(session.time(), session.region(), frame.level)?
                            == digest(&frame.raster)
                    }
                    Err(_) => false,
                };
                it.check(ok);
            }
            if traced {
                let mut stats = QueryStats::default();
                for frame in &frames {
                    stats.merge(&frame.stats);
                    let tp = Instant::now();
                    let blocks =
                        session.dataset().blocks_for_query(session.region(), frame.level)?;
                    plan_s += tp.elapsed().as_secs_f64();
                    planned += blocks.len() as u64;
                }
                acct.read(refined, &stats);
            }
        }
    }
    it.virtual_s = (clock.now_ns() - v0) as f64 / 1e9;
    it.set("frame_wall_p50_ms", median(&frame_wall) * 1e3);
    it.set("frame_wall_p95_ms", percentile(&frame_wall, 95.0) * 1e3);
    it.set("frame_virtual_p95_ms", percentile(&frame_virtual, 95.0) * 1e3);
    it.parts = frame_wall;

    if traced {
        let after = client.obs().snapshot();
        layers::storage_layers(&mut it, &before, &after);
        layers::stack_layer(&mut it, &stack.expect("traced runs wrap the endpoint").snapshot());
        acct.finish(&mut it);
        let (fetched, reused, prefetch_hits) =
            sessions.iter().map(QuerySession::stats).fold((0, 0, 0), |(f, r, p), st| {
                (f + st.blocks_fetched, r + st.blocks_reused, p + st.prefetch_hits)
            });
        it.set("session.refine_wall_s", refine_s);
        it.set("session.blocks_fetched", fetched as f64);
        it.set("session.blocks_reused", reused as f64);
        it.set("session.prefetch_hits", prefetch_hits as f64);
        let touched = (fetched + reused) as f64;
        it.set("session.reuse_ratio", if touched > 0.0 { reused as f64 / touched } else { 0.0 });
        it.set("hz.plan_wall_s", plan_s);
        it.set("hz.blocks_planned", planned as f64);
        it.set("dashboard.render_wall_s", render_s);
        it.set("dashboard.pixels", pixels as f64);
        let block_bytes = s.oracle.meta().block_samples() as usize * 4;
        let blocks: Vec<Vec<u8>> = s
            .published
            .iter()
            .filter(|(k, _)| k.ends_with(".bin"))
            .map(|(_, v)| v.clone())
            .collect();
        layers::compress_replay(&mut it, s.oracle.meta().codec, &blocks, block_bytes);
    }
    Ok(it)
}

/// Apply one scripted step and refine the view to its target; returns
/// every frame delivered, coarse to fine.
fn interact(
    session: &mut QuerySession<f32>,
    step: Step,
    participant: usize,
    size: Size,
    overview_level: u32,
    zoom_level: u32,
) -> Result<Vec<SessionFrame<f32>>> {
    match step {
        Step::Overview => {
            let full = Box2i::new(0, 0, size.px as i64, size.px as i64);
            session.set_view(full, overview_level.saturating_sub(6), overview_level)?;
        }
        Step::Zoom => {
            // Eight distinct starting views; pans then stay inside bounds.
            let p = participant as i64;
            let (x0, y0) = ((p % 4) * size.view / 2, (p / 4) * size.view * 3 / 2);
            let region = Box2i::new(x0, y0, x0 + size.view, y0 + size.view);
            session.set_view(region, zoom_level.saturating_sub(4), zoom_level)?;
        }
        Step::Pan(dx, dy) => {
            session.set_view(session.region(), zoom_level, zoom_level)?;
            session.pan(dx, dy)?;
        }
        Step::Time(t) => session.set_time(t)?,
    }
    let run = session.refine()?;
    if run.cancelled_at.is_some() {
        return Err(NsdfError::invalid("refinement was cancelled"));
    }
    if run.frames.is_empty() {
        return Err(NsdfError::invalid("interaction delivered no frame"));
    }
    Ok(run.frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size =
        Size { px: 128, timesteps: 2, participants: 2, view: 32, ram_bytes: 64 << 10 };

    #[test]
    fn same_seed_gives_identical_exact_metrics() {
        let a = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        let b = iterate(&setup(3, TINY).unwrap(), true).unwrap();
        crate::report::assert_exact_eq(&a, &b);
        assert_eq!((a.failed, b.failed), (0, 0));
        // 26 interactions each: the overview refines through 7 levels and
        // the zoom through 5, the other 24 deliver one frame.
        assert_eq!(a.attempted, 2 * (7 + 5 + 24));
    }

    #[test]
    fn checks_reject_a_corrupted_oracle() {
        let s = setup(4, TINY).unwrap();
        let flat = Raster::<f32>::zeros(TINY.px, TINY.px);
        s.oracle.write_raster(FIELD, 1, &flat).unwrap();
        let it = iterate(&s, false).unwrap();
        // Playback visits timestep 1 twice per participant.
        assert_eq!(it.failed, 2 * 2);
    }
}
