//! Property tests for the task-graph engine over seeded random DAGs.
//!
//! Four invariants the DAG scheduler rests on:
//!
//! 1. **Topological validity**: for every dependency edge `d -> t`, task
//!    `d` runs in a strictly earlier wave than `t`, whatever the random
//!    graph shape.
//! 2. **Deterministic schedule**: the full run report — statuses, waves,
//!    fingerprints, artifact checksums, virtual timestamps — serialises
//!    to byte-identical JSON across fresh runs and across worker-thread
//!    counts (1 vs 8).
//! 3. **Exact incremental dirty set**: after editing the definitions of
//!    a random subset of tasks, a manifest-backed rerun re-executes
//!    *exactly* the dependency cone of the edited tasks — every task in
//!    the cone is `Succeeded`, every task outside it is `UpToDate`, and
//!    nothing is skipped or failed.
//! 4. **Batched store I/O**: apart from the manifest's own get and put,
//!    the engine talks to the store only in batches — per wave at most
//!    one `head_many`, then one `get_many`, then one `put_many`, each
//!    holding its keys in task-id order.
//!
//! A regression test pins failure isolation inside a batch: one faulted
//! key of a wave's `put_many` fails only its task and skips only its cone.

use nsdf_storage::{FailScope, FaultPlan, FaultStore, MemoryStore, ObjectMeta, ObjectStore};
use nsdf_util::{Fnv1a, Result, SimClock};
use nsdf_workflow::{GraphRun, RunOptions, TaskGraph, TaskOutput, TaskStatus};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A random DAG: `deps[i]` lists dependencies with indices `< i`, so the
/// graph is acyclic by construction (matching `add_task`'s contract).
#[derive(Debug, Clone)]
struct DagSpec {
    deps: Vec<Vec<usize>>,
}

impl DagSpec {
    fn from_seed(seed: u64) -> DagSpec {
        let mut rng = seed | 1;
        let n = 2 + (xorshift(&mut rng) % 18) as usize;
        let mut deps = Vec::with_capacity(n);
        for i in 0..n {
            let mut d = Vec::new();
            for j in 0..i {
                if xorshift(&mut rng).is_multiple_of(3) {
                    d.push(j);
                }
            }
            deps.push(d);
        }
        DagSpec { deps }
    }

    fn len(&self) -> usize {
        self.deps.len()
    }

    /// Build the graph. Each task's payload is an FNV chain over its own
    /// name, its `version`, and every consumed artifact's checksum and
    /// bytes — so any upstream content change propagates a content change
    /// down every path, and a version bump always changes the definition
    /// fingerprint.
    fn build(&self, versions: &[u64]) -> TaskGraph {
        let mut g = TaskGraph::new("prop-dag");
        for (i, dep_ids) in self.deps.iter().enumerate() {
            let name = format!("t{i}");
            let dep_names: Vec<String> = dep_ids.iter().map(|j| format!("t{j}")).collect();
            let deps: Vec<&str> = dep_names.iter().map(String::as_str).collect();
            let version = versions[i];
            let task_name = name.clone();
            g.add_task(name, &deps, &format!("v{version}"), move |ctx| {
                let mut h = Fnv1a::new();
                h.update(task_name.as_bytes());
                h.update(&version.to_le_bytes());
                for input in ctx.inputs() {
                    h.update(input.artifact.name.as_bytes());
                    h.update(&input.artifact.checksum.to_le_bytes());
                    h.update(&input.bytes);
                }
                ctx.charge_compute_ns(1_000 + (version % 7) * 500);
                let mut bytes = h.digest().to_le_bytes().to_vec();
                bytes.extend_from_slice(task_name.as_bytes());
                Ok(vec![TaskOutput::payload(
                    format!("out/{task_name}"),
                    format!("prop/{task_name}"),
                    bytes,
                )])
            })
            .unwrap();
        }
        g
    }
}

fn run_fresh(spec: &DagSpec, versions: &[u64], threads: usize) -> GraphRun {
    let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
    let opts = RunOptions::new(SimClock::new()).with_threads(threads).with_store(store);
    spec.build(versions).run(&opts).unwrap()
}

const MANIFEST: &str = "prop/manifest.json";

/// One store call as the engine issued it.
#[derive(Debug, Clone, PartialEq)]
enum Call {
    Get(String),
    Put(String),
    Head(String),
    GetMany(Vec<String>),
    PutMany(Vec<String>),
    HeadMany(Vec<String>),
}

/// A store wrapper that logs every call, in order.
struct CountingStore {
    inner: Arc<dyn ObjectStore>,
    calls: Mutex<Vec<Call>>,
}

impl CountingStore {
    fn new(inner: Arc<dyn ObjectStore>) -> Arc<CountingStore> {
        Arc::new(CountingStore { inner, calls: Mutex::new(Vec::new()) })
    }

    fn log(&self, call: Call) {
        self.calls.lock().unwrap().push(call);
    }

    fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().unwrap())
    }
}

fn owned(keys: &[&str]) -> Vec<String> {
    keys.iter().map(|k| k.to_string()).collect()
}

impl ObjectStore for CountingStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        self.log(Call::Put(key.into()));
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.log(Call::Get(key.into()));
        self.inner.get(key)
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.log(Call::GetMany(owned(keys)));
        self.inner.get_many(keys)
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        let keys: Vec<&str> = items.iter().map(|(k, _)| *k).collect();
        self.log(Call::PutMany(owned(&keys)));
        self.inner.put_many(items)
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.log(Call::Head(key.into()));
        self.inner.head(key)
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.log(Call::HeadMany(owned(keys)));
        self.inner.head_many(keys)
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.inner.list(prefix)
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.inner.delete(key)
    }
}

/// The producing task id of a `prop/t{i}` output key.
fn producer(key: &str) -> usize {
    key.strip_prefix("prop/t").and_then(|i| i.parse().ok()).expect("a task output key")
}

/// Check the call log of one manifest-backed run against its report:
/// the manifest get opens the log and the manifest put closes it; in
/// between, every call is a batch, batches advance strictly through
/// (wave, head → get → put), and each batch's keys are in task-id order.
/// Heads cover exactly the up-to-date tasks, puts exactly the executed.
fn check_batches(calls: &[Call], run: &GraphRun) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(calls.first(), Some(&Call::Get(MANIFEST.into())));
    prop_assert_eq!(calls.last(), Some(&Call::Put(MANIFEST.into())));
    let inner = &calls[1..calls.len() - 1];
    let wave_of = |key: &str| run.records[producer(key)].wave;
    let (mut heads, mut puts) = (BTreeSet::new(), BTreeSet::new());
    let mut last: Option<(u64, u8)> = None;
    for (at, call) in inner.iter().enumerate() {
        let batch = match call {
            Call::HeadMany(keys) => Some((0, keys)),
            Call::GetMany(keys) => Some((1, keys)),
            Call::PutMany(keys) => Some((2, keys)),
            _ => None,
        };
        prop_assert!(batch.is_some(), "unbatched call {:?}", call);
        let (phase, keys) = batch.expect("checked above");
        let ids: Vec<usize> = keys.iter().map(|k| producer(k)).collect();
        prop_assert!(!ids.is_empty(), "empty batch {:?}", call);
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]), "batch not in task-id order: {:?}", call);
        // A get belongs to the wave of the put that persists its consumers.
        let wave = match call {
            Call::GetMany(_) => inner[at..]
                .iter()
                .find_map(|c| match c {
                    Call::PutMany(keys) => Some(wave_of(&keys[0])),
                    _ => None,
                })
                .expect("every prefetch is followed by its wave's persist"),
            _ => {
                let w = wave_of(&keys[0]);
                prop_assert!(keys.iter().all(|k| wave_of(k) == w), "batch spans waves: {:?}", call);
                w
            }
        };
        prop_assert!(last < Some((wave, phase)), "{:?} after {:?}", (wave, phase), last);
        last = Some((wave, phase));
        match call {
            Call::HeadMany(_) => heads.extend(ids),
            Call::PutMany(_) => puts.extend(ids),
            _ => {}
        }
    }
    let with = |status| -> BTreeSet<usize> {
        run.records.iter().enumerate().filter(|(_, r)| r.status == status).map(|(i, _)| i).collect()
    };
    prop_assert_eq!(heads, with(TaskStatus::UpToDate));
    prop_assert_eq!(puts, with(TaskStatus::Succeeded));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_edge_respects_wave_order(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let versions = vec![1u64; spec.len()];
        let run = run_fresh(&spec, &versions, 4);
        prop_assert!(run.succeeded());
        for (i, dep_ids) in spec.deps.iter().enumerate() {
            let ti = run.record(&format!("t{i}")).unwrap();
            for &j in dep_ids {
                let tj = run.record(&format!("t{j}")).unwrap();
                prop_assert!(
                    tj.wave < ti.wave,
                    "edge t{j} -> t{i}: waves {} !< {}", tj.wave, ti.wave
                );
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_across_runs_and_thread_counts(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let versions: Vec<u64> = (0..spec.len() as u64).map(|i| i % 5 + 1).collect();
        let a = run_fresh(&spec, &versions, 1).to_json();
        let b = run_fresh(&spec, &versions, 8).to_json();
        let c = run_fresh(&spec, &versions, 8).to_json();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&b, &c);
    }

    #[test]
    fn incremental_rerun_is_exactly_the_dirty_cone(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let n = spec.len();
        let mut versions = vec![1u64; n];

        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let opts = RunOptions::new(SimClock::new())
            .with_threads(4)
            .with_store(Arc::clone(&store))
            .with_manifest("prop/manifest.json");
        let cold = spec.build(&versions).run(&opts).unwrap();
        prop_assert_eq!(cold.count(TaskStatus::Succeeded), n);

        // Dirty a random non-empty subset by bumping versions.
        let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut dirty: Vec<usize> =
            (0..n).filter(|_| xorshift(&mut rng).is_multiple_of(4)).collect();
        if dirty.is_empty() {
            dirty.push((xorshift(&mut rng) % n as u64) as usize);
        }
        for &i in &dirty {
            versions[i] += 1;
        }

        let graph = spec.build(&versions);
        let dirty_names: Vec<String> = dirty.iter().map(|i| format!("t{i}")).collect();
        let seeds: Vec<&str> = dirty_names.iter().map(String::as_str).collect();
        let cone = graph.dependency_cone(&seeds);

        let rerun = graph.run(&opts).unwrap();
        prop_assert!(rerun.succeeded());
        prop_assert_eq!(rerun.count(TaskStatus::Failed), 0);
        prop_assert_eq!(rerun.count(TaskStatus::Skipped), 0);
        let executed: BTreeSet<String> = rerun
            .records
            .iter()
            .filter(|r| r.status == TaskStatus::Succeeded)
            .map(|r| r.name.clone())
            .collect();
        prop_assert_eq!(executed, cone, "dirty set {:?}", dirty_names);
    }

    #[test]
    fn store_io_is_batched_per_wave_in_task_order(seed in any::<u64>()) {
        let spec = DagSpec::from_seed(seed);
        let n = spec.len();
        let mut rng = seed ^ 0x5bd1_e995;
        let dirty: Vec<u64> = (0..n).map(|_| u64::from(xorshift(&mut rng).is_multiple_of(3))).collect();
        let edited: Vec<u64> = dirty.iter().map(|d| 1 + d).collect();
        let session = |threads: usize| {
            let store = CountingStore::new(Arc::new(MemoryStore::new()));
            let opts = RunOptions::new(SimClock::new())
                .with_threads(threads)
                .with_store(Arc::clone(&store) as Arc<dyn ObjectStore>)
                .with_manifest(MANIFEST);
            let cold = spec.build(&vec![1; n]).run(&opts).unwrap();
            let cold_calls = store.take();
            let rerun = spec.build(&edited).run(&opts).unwrap();
            (cold, cold_calls, rerun, store.take())
        };
        let (cold, cold_calls, rerun, rerun_calls) = session(1);
        prop_assert!(cold.succeeded() && rerun.succeeded());
        check_batches(&cold_calls, &cold)?;
        check_batches(&rerun_calls, &rerun)?;
        // The cold run holds every input in memory: it never fetches.
        prop_assert!(!cold_calls.iter().any(|c| matches!(c, Call::GetMany(_))));

        let (cold8, cold_calls8, rerun8, rerun_calls8) = session(8);
        prop_assert_eq!(cold.to_json(), cold8.to_json());
        prop_assert_eq!(rerun.to_json(), rerun8.to_json());
        prop_assert_eq!(cold_calls, cold_calls8);
        prop_assert_eq!(rerun_calls, rerun_calls8);
    }
}

/// Six independent roots r0..r5 (wave 0), each with one child c0..c5
/// (wave 1) and a sink over c0 and c1.
fn fan_graph() -> TaskGraph {
    let mut g = TaskGraph::new("fan");
    for i in 0..6 {
        let (r, c) = (format!("r{i}"), format!("c{i}"));
        let out = format!("fan/{r}");
        g.add_task(r.clone(), &[], "v1", move |_| {
            Ok(vec![TaskOutput::payload(
                format!("out/{out}"),
                out.clone(),
                out.clone().into_bytes(),
            )])
        })
        .unwrap();
        let out = format!("fan/{c}");
        g.add_task(c, &[r.as_str()], "v1", move |ctx| {
            let mut bytes = ctx.inputs()[0].bytes.to_vec();
            bytes.extend_from_slice(out.as_bytes());
            Ok(vec![TaskOutput::payload(format!("out/{out}"), out.clone(), bytes)])
        })
        .unwrap();
    }
    g.add_task("sink", &["c0", "c1"], "v1", |_| {
        Ok(vec![TaskOutput::payload("out/sink", "fan/sink", b"sink".to_vec())])
    })
    .unwrap();
    g
}

/// A write fault on one key of wave 0's `put_many` fails only the task
/// that owns the key and skips only its cone; the wave's other outputs
/// persist, and a rerun on the healed store verifies them up to date.
#[test]
fn one_faulted_put_fails_only_its_task_and_cone() {
    let written: Vec<String> = (0..6)
        .flat_map(|i| [format!("fan/r{i}"), format!("fan/c{i}")])
        .chain(["fan/sink".to_string(), MANIFEST.to_string()])
        .collect();
    // Per-key fault draws are pure in (seed, key, attempt): probe each
    // written key's first attempt and keep the first seed whose only
    // fault lands on a root.
    let plan = |seed| FaultPlan::new(seed).with_fault_rate(0.2).with_scope(FailScope::Writes);
    let (seed, faulted) = (0..)
        .find_map(|seed| {
            let probe =
                FaultStore::new(Arc::new(MemoryStore::new()), plan(seed), SimClock::new()).unwrap();
            let failed: Vec<&String> =
                written.iter().filter(|k| probe.put(k, b"x").is_err()).collect();
            match failed[..] {
                [k] if k.starts_with("fan/r") => Some((seed, k.clone())),
                _ => None,
            }
        })
        .unwrap();
    let root = faulted.trim_start_matches("fan/").to_string();
    let child = root.replacen('r', "c", 1);

    let healthy = Arc::new(MemoryStore::new());
    let clock = SimClock::new();
    let faulty =
        FaultStore::new(Arc::clone(&healthy) as Arc<dyn ObjectStore>, plan(seed), clock.clone())
            .unwrap();
    let g = fan_graph();
    let opts = |store: Arc<dyn ObjectStore>| {
        RunOptions::new(clock.clone()).with_threads(4).with_store(store).with_manifest(MANIFEST)
    };
    let run = g.run(&opts(Arc::new(faulty))).unwrap();
    let failed = run.record(&root).unwrap();
    assert_eq!(failed.status, TaskStatus::Failed);
    assert!(failed.error.as_deref().unwrap().contains("persist"), "{:?}", failed.error);
    assert!(failed.produced.is_empty());
    assert_eq!(run.record(&child).unwrap().status, TaskStatus::Skipped);
    let sink = if ["r0", "r1"].contains(&root.as_str()) {
        TaskStatus::Skipped
    } else {
        TaskStatus::Succeeded
    };
    assert_eq!(run.record("sink").unwrap().status, sink);
    let cone = g.dependency_cone(&[root.as_str()]);
    for r in &run.records {
        let expect = match r.status {
            TaskStatus::Failed => r.name == root,
            TaskStatus::Skipped => cone.contains(&r.name) && r.name != root,
            TaskStatus::Succeeded => !cone.contains(&r.name),
            TaskStatus::UpToDate => false,
        };
        assert!(expect, "{} is {:?}", r.name, r.status);
    }
    // Wave 0's other payloads landed despite the fault in their batch.
    for i in 0..6 {
        let key = format!("fan/r{i}");
        assert_eq!(healthy.exists(&key).unwrap(), key != faulted, "{key}");
    }

    // Rerun on the healed store: only the failed cone executes; every
    // other output verifies by head in one batch per wave.
    let counting = CountingStore::new(healthy);
    let rerun = g.run(&opts(Arc::clone(&counting) as Arc<dyn ObjectStore>)).unwrap();
    assert!(rerun.succeeded());
    let executed: BTreeSet<String> = rerun.executed().into_iter().map(String::from).collect();
    assert_eq!(executed, cone);
    assert_eq!(rerun.count(TaskStatus::UpToDate), g.len() - cone.len());
    let heads: Vec<usize> = counting
        .take()
        .iter()
        .filter_map(|c| match c {
            Call::HeadMany(keys) => Some(keys.len()),
            _ => None,
        })
        .collect();
    assert_eq!(heads.iter().sum::<usize>(), g.len() - cone.len());
    assert!(heads.len() <= 3, "at most one head_many per wave: {heads:?}");
}
