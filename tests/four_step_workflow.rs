//! Integration: the full four-step tutorial workflow across every storage
//! endpoint, codec, and scale — the cross-crate path from DEM synthesis
//! through TIFF, IDX, validation, and the dashboard.
//!
//! Both pipelines run on the one task-graph engine. `run_tutorial` is the
//! four coarse steps (the smoke path: every endpoint and lossless codec,
//! seed-deterministic virtual time, artifact lineage). The tile-level DAG
//! (`run_terrain_dag`) carries the headline claims — endpoint-independent
//! digests, hash-verified incremental recompute that is bitwise equal to
//! a from-scratch run, chaos transparency, and a parallel schedule
//! strictly faster than the sequential baseline on both WAN profiles.

use nsdf::core::{run_terrain_dag, DagConfig, EndpointPolicy};
use nsdf::geotiled::DemEdit;
use nsdf::prelude::*;
use nsdf::storage::{FaultPlan, RetryPolicy};
use nsdf::workflow::TaskStatus;

fn config(seed: u64) -> TutorialConfig {
    let mut cfg = TutorialConfig::small(seed);
    cfg.width = 160;
    cfg.height = 96;
    cfg.tiles = (2, 2);
    cfg
}

#[test]
fn tutorial_runs_on_every_endpoint() {
    for endpoint in ["local", "dataverse", "seal"] {
        let client = NsdfClient::simulated(11);
        let mut cfg = config(11);
        cfg.storage_endpoint = endpoint.into();
        let report = run_tutorial(&client, &cfg).unwrap();
        assert!(report.run.succeeded(), "{endpoint}");
        assert!(report.validation_exact(), "{endpoint}");
        assert_eq!(report.interactions.len(), 5, "{endpoint}");
    }
}

#[test]
fn remote_endpoints_cost_more_virtual_time_than_local() {
    let run = |endpoint: &str| {
        let client = NsdfClient::simulated(12);
        let mut cfg = config(12);
        cfg.storage_endpoint = endpoint.into();
        run_tutorial(&client, &cfg).unwrap().total_virtual_secs
    };
    let local = run("local");
    let dataverse = run("dataverse");
    let seal = run("seal");
    assert!(dataverse > local, "dataverse {dataverse} vs local {local}");
    assert!(seal > local, "seal {seal} vs local {local}");
    // Dataverse's WAN profile is slower than Seal's.
    assert!(dataverse > seal, "dataverse {dataverse} vs seal {seal}");
}

#[test]
fn every_lossless_codec_validates_exactly_end_to_end() {
    for codec in Codec::lossless_palette(4) {
        let client = NsdfClient::simulated(13);
        let mut cfg = config(13);
        cfg.codec = codec;
        cfg.storage_endpoint = "local".into();
        let report = run_tutorial(&client, &cfg).unwrap();
        assert!(report.validation_exact(), "codec {codec}");
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let client = NsdfClient::simulated(14);
        let report = run_tutorial(&client, &config(14)).unwrap();
        (
            report.tiff_bytes,
            report.idx_bytes,
            report.total_virtual_secs.to_bits(),
            report.run.to_json(),
        )
    };
    let (t1, i1, v1, j1) = run();
    let (t2, i2, v2, j2) = run();
    assert_eq!(t1, t2);
    assert_eq!(i1, i2);
    assert_eq!(v1, v2, "virtual time is a pure function of the seed");
    assert_eq!(j1, j2, "run reports are byte-identical");
}

/// One DEM-cell edit strictly inside tile (1,1)'s interior (x 32..64,
/// y 24..48 on the 128x96 / 4x4 grid), at least 2 px from the tile
/// boundary so no neighbor's 1-px halo strip sees it.
fn interior_edit() -> DemEdit {
    DemEdit { x: 48, y: 36, delta_m: 40.0 }
}

#[test]
fn dag_digests_are_identical_on_every_endpoint() {
    let mut digests = Vec::new();
    for endpoint in ["local", "dataverse", "seal"] {
        let client = NsdfClient::simulated(21);
        let mut cfg = DagConfig::small(21);
        cfg.storage_endpoint = endpoint.into();
        let report = run_terrain_dag(&client, &cfg).unwrap();
        assert!(report.run.succeeded(), "{endpoint}");
        assert_eq!(report.run.count(TaskStatus::Succeeded), 107, "{endpoint}");
        digests.push(report.digests);
    }
    // The WAN profile changes time and retries, never bytes.
    assert_eq!(digests[0], digests[1]);
    assert_eq!(digests[1], digests[2]);
}

#[test]
fn incremental_rerun_executes_exactly_the_dependency_cone() {
    let client = NsdfClient::simulated(22);
    let cfg = DagConfig::small(22);
    let cold = run_terrain_dag(&client, &cfg).unwrap();
    assert_eq!(cold.run.count(TaskStatus::Succeeded), 107);

    // Edit one DEM cell and rerun against the same store + manifest.
    let mut edited = cfg.clone();
    edited.edits = vec![interior_edit()];
    let inc = run_terrain_dag(&client, &edited).unwrap();

    // The cone: 1 gen + 9 tiles x 4 terrain params + 1 moisture (the 8
    // neighbor moistures are cut off early because re-executed neighbor
    // terrain emits byte-identical tiles) + 5 ingests + 5 validates.
    assert_eq!(inc.run.count(TaskStatus::Succeeded), 1 + 36 + 1 + 5 + 5);
    assert_eq!(inc.run.count(TaskStatus::UpToDate), 59);
    assert_eq!(inc.run.count(TaskStatus::Failed), 0);
    assert_eq!(inc.run.count(TaskStatus::Skipped), 0);
    for name in ["gen/1_1", "moisture/1_1", "ingest/elevation", "validate/moisture"] {
        assert_eq!(inc.run.record(name).unwrap().status, TaskStatus::Succeeded, "{name}");
    }
    for name in ["gen/3_3", "moisture/0_1", "moisture/2_2"] {
        assert_eq!(inc.run.record(name).unwrap().status, TaskStatus::UpToDate, "{name}");
    }

    // Differential oracle: a from-scratch run with the same edit on a
    // fresh client must produce bitwise-identical field digests.
    let fresh = NsdfClient::simulated(22);
    let scratch = run_terrain_dag(&fresh, &edited).unwrap();
    assert_eq!(scratch.run.count(TaskStatus::Succeeded), 107);
    assert_eq!(inc.digests, scratch.digests);
    assert_ne!(inc.digests, cold.digests, "the edit must actually change the fields");

    // Rerunning the edited config again does no work at all.
    let again = run_terrain_dag(&client, &edited).unwrap();
    assert_eq!(again.run.count(TaskStatus::UpToDate), 107);
}

#[test]
fn dag_under_chaos_matches_fault_free_oracle() {
    let oracle_client = NsdfClient::simulated(23);
    let cfg = DagConfig::small(23);
    let oracle = run_terrain_dag(&oracle_client, &cfg).unwrap();

    let plan = FaultPlan::new(23).with_fault_rate(0.20).with_corrupt_rate(0.05);
    // At a 20% injected fault rate a write-heavy pipeline needs the
    // hardened retry budget (the same one the client's own chaos tests
    // use): with 3 attempts the chance some put exhausts its budget over
    // hundreds of ops is near 1; with 6 it is negligible.
    let policy = EndpointPolicy {
        retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
        ..EndpointPolicy::default()
    };
    let chaos_client = NsdfClient::simulated_chaos(23, &plan, &policy).unwrap();
    let chaotic = run_terrain_dag(&chaos_client, &cfg).unwrap();

    assert!(chaotic.run.succeeded());
    assert_eq!(chaotic.digests, oracle.digests, "resilience stack must be transparent");
    let snap = chaos_client.obs().snapshot();
    assert!(snap.counter("seal.fault.injected") > 0, "the plan actually injected faults");
    assert!(snap.counter("seal.retry.retries") > 0, "retries absorbed them");
}

#[test]
fn parallel_dag_beats_sequential_baseline_on_both_wan_profiles() {
    for endpoint in ["dataverse", "seal"] {
        let run = |sequential: bool| {
            let client = NsdfClient::simulated(24);
            let mut cfg = DagConfig::small(24);
            cfg.storage_endpoint = endpoint.into();
            cfg.sequential = sequential;
            run_terrain_dag(&client, &cfg).unwrap()
        };
        let par = run(false);
        let seq = run(true);
        assert_eq!(par.digests, seq.digests, "{endpoint}: schedule must not change bytes");
        assert!(
            par.virtual_secs < seq.virtual_secs,
            "{endpoint}: parallel {} >= sequential {}",
            par.virtual_secs,
            seq.virtual_secs
        );
        assert!(par.run.waves < seq.run.waves, "{endpoint}");
    }
}

#[test]
fn provenance_covers_all_artifacts() {
    let client = NsdfClient::simulated(15);
    let report = run_tutorial(&client, &config(15)).unwrap();
    let p = &report.run;
    for name in ["elevation.tif", "slope.tif", "aspect.tif", "hillshade.tif"] {
        assert_eq!(p.producer_of(name).unwrap().name, "1-data-generation");
    }
    for name in ["elevation.idx-blocks", "hillshade.idx-blocks"] {
        assert_eq!(p.producer_of(name).unwrap().name, "2-convert-to-idx");
    }
    assert!(p.producer_of("snippet.py").is_some());
    assert!(p.records.iter().flat_map(|r| &r.produced).map(|a| a.bytes).sum::<u64>() > 0);
}
