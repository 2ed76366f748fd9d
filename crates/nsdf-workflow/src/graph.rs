//! Scheduled task-graph engine with hash-verified incremental recompute.
//!
//! This is the production successor of the linear [`crate::engine`]
//! step list: tasks are typed nodes with explicit data dependencies
//! (GEOtiled halo-exchange edges make a terrain tile depend on its DEM
//! tile plus up to eight neighbors), and a ready-queue scheduler runs
//! each wave of independent tasks on a work-stealing thread pool over
//! the shared virtual clock.
//!
//! # Determinism contract
//!
//! The simulated WAN charges multiplicative jitter keyed to a global
//! operation counter and the tier cache admits by access order, so
//! *store traffic issued from worker threads would be racy*. The engine
//! therefore splits tasks into two kinds:
//!
//! - **parallel** tasks are pure functions of their prefetched inputs:
//!   the engine loads consumed artifacts and persists returned payloads
//!   itself, on the caller thread. Virtual time advances by the
//!   *maximum* compute charge of the wave — the tasks ran concurrently.
//! - **exclusive** tasks run serialized on the caller thread and may
//!   talk to object stores directly (dataset creation, IDX ingest,
//!   read-back validation). Virtual time advances by each task's own
//!   charge.
//!
//! The engine's own store I/O is batched by wave, so a wave of n tasks
//! pays for a few WAN round-trip waves instead of n serial requests.
//! Each wave makes, in this order and each in task-id order:
//!
//! 1. one `head_many` over every output of every ready task whose
//!    fingerprint matches the manifest (the up-to-date check);
//! 2. one deduplicated `get_many` over every input of the executing
//!    tasks that is not already in memory, ordered by producer task id;
//! 3. one `put_many` over the parallel tasks' payloads, issued before
//!    the wave's exclusive tasks run; each exclusive task's payloads then
//!    go in a `put_many` of their own.
//!
//! A batch never fails as a whole: a failed put or get fails only the
//! tasks that own or consume that key, and a failed head only makes its
//! task re-execute. Because all of this happens on the caller thread in
//! a fixed order, two runs of the same graph on the same seed produce
//! byte-identical run reports and manifests even at different thread
//! counts.
//!
//! # Incremental recompute
//!
//! Every task hashes its definition plus the content checksums of every
//! input artifact into a fingerprint. Fingerprints and output artifact
//! descriptors persist in a [`Manifest`] on any [`ObjectStore`]. On a
//! rerun, a task whose fingerprint matches the manifest *and* whose
//! outputs still verify by `head` (size + checksum) is marked
//! [`TaskStatus::UpToDate`] and skipped. Because fingerprints hash
//! recomputed *content*, a re-executed upstream task that reproduces
//! byte-identical output cuts the dirty cone off early.

use crate::artifact::Artifact;
use crate::json::{parse_hex_u64, push_hex_u64, push_json_string, JsonValue};
use nsdf_storage::ObjectStore;
use nsdf_util::{Fnv1a, NsdfError, Result, SimClock};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One prefetched input artifact handed to a task closure.
#[derive(Debug, Clone)]
pub struct TaskInput {
    /// Descriptor of the artifact (name, size, checksum, location).
    pub artifact: Artifact,
    /// Verified payload bytes.
    pub bytes: Arc<Vec<u8>>,
}

/// Execution context passed to a task closure.
pub struct TaskCtx {
    clock: SimClock,
    inputs: Vec<TaskInput>,
    compute_ns: u64,
}

impl TaskCtx {
    /// The shared virtual clock (read-only use from parallel tasks; the
    /// engine advances it on the caller thread).
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// All prefetched inputs, in dependency order.
    pub fn inputs(&self) -> &[TaskInput] {
        &self.inputs
    }

    /// The input artifact named `name`.
    pub fn input(&self, name: &str) -> Result<&TaskInput> {
        self.inputs
            .iter()
            .find(|i| i.artifact.name == name)
            .ok_or_else(|| NsdfError::invalid(format!("task input {name:?} not found")))
    }

    /// The payload bytes of the input artifact named `name`.
    pub fn input_bytes(&self, name: &str) -> Result<&[u8]> {
        Ok(self.input(name)?.bytes.as_slice())
    }

    /// Charge virtual compute time to this task. Parallel tasks in one
    /// wave overlap: the wave advances the clock by the maximum charge.
    pub fn charge_compute_ns(&mut self, ns: u64) {
        self.compute_ns = self.compute_ns.saturating_add(ns);
    }

    /// [`TaskCtx::charge_compute_ns`] in seconds.
    pub fn charge_compute_secs(&mut self, secs: f64) {
        self.charge_compute_ns(nsdf_util::secs_to_ns(secs));
    }
}

/// What a task hands back to the engine.
pub enum TaskOutput {
    /// A byte payload the *engine* persists (on the caller thread, in
    /// task-id order) — the only output kind parallel tasks may return.
    Payload {
        /// Artifact name (unique across the graph).
        name: String,
        /// Object key the payload is stored under.
        location: String,
        /// Payload bytes.
        bytes: Vec<u8>,
    },
    /// An artifact an *exclusive* task already persisted itself.
    Stored(Artifact),
}

impl TaskOutput {
    /// Convenience constructor for [`TaskOutput::Payload`].
    pub fn payload(
        name: impl Into<String>,
        location: impl Into<String>,
        bytes: Vec<u8>,
    ) -> TaskOutput {
        TaskOutput::Payload { name: name.into(), location: location.into(), bytes }
    }
}

/// Final state of one task in a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Executed this run.
    Succeeded,
    /// Fingerprint matched the manifest and outputs verified by hash —
    /// not re-executed.
    UpToDate,
    /// Closure (or its input prefetch / output persist) errored.
    Failed,
    /// Never ran because an upstream task failed or was skipped.
    Skipped,
}

impl TaskStatus {
    /// Stable wire name used in run-report JSON.
    pub fn wire_name(self) -> &'static str {
        match self {
            TaskStatus::Succeeded => "succeeded",
            TaskStatus::UpToDate => "up-to-date",
            TaskStatus::Failed => "failed",
            TaskStatus::Skipped => "skipped",
        }
    }
}

/// Execution record of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task name.
    pub name: String,
    /// Final status.
    pub status: TaskStatus,
    /// Scheduling wave the task was resolved in.
    pub wave: u64,
    /// Virtual compute charged by the closure (0 for up-to-date/skipped).
    pub compute_ns: u64,
    /// Input fingerprint (0 when skipped before fingerprinting).
    pub fingerprint: u64,
    /// Artifacts produced (for up-to-date tasks, from the manifest).
    pub produced: Vec<Artifact>,
    /// Names of input artifacts consumed.
    pub consumed: Vec<String>,
    /// Error message when failed.
    pub error: Option<String>,
}

impl TaskRecord {
    fn push_json(&self, out: &mut String) {
        out.push_str("{\"compute_ns\":");
        out.push_str(&self.compute_ns.to_string());
        out.push_str(",\"consumed\":[");
        for (i, c) in self.consumed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(c, out);
        }
        out.push_str("],\"error\":");
        match &self.error {
            Some(e) => push_json_string(e, out),
            None => out.push_str("null"),
        }
        out.push_str(",\"fingerprint\":");
        push_hex_u64(self.fingerprint, out);
        out.push_str(",\"name\":");
        push_json_string(&self.name, out);
        out.push_str(",\"produced\":[");
        for (i, a) in self.produced.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            a.push_json(out);
        }
        out.push_str("],\"status\":");
        push_json_string(self.status.wire_name(), out);
        out.push_str(",\"wave\":");
        out.push_str(&self.wave.to_string());
        out.push('}');
    }
}

/// Report of one [`TaskGraph::run`], records in task-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphRun {
    /// Graph name.
    pub name: String,
    /// One record per task, in task-id (insertion) order.
    pub records: Vec<TaskRecord>,
    /// Number of scheduling waves.
    pub waves: u64,
    /// Virtual time when the run started (ns).
    pub started_ns: u64,
    /// Virtual time when the run finished (ns).
    pub ended_ns: u64,
}

impl GraphRun {
    /// True when every task succeeded or was verified up-to-date.
    pub fn succeeded(&self) -> bool {
        self.records
            .iter()
            .all(|r| matches!(r.status, TaskStatus::Succeeded | TaskStatus::UpToDate))
    }

    /// Number of tasks with the given status.
    pub fn count(&self, status: TaskStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// The record of the task named `name`.
    pub fn record(&self, name: &str) -> Option<&TaskRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// The produced artifact named `name`, searched across all records.
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.records.iter().flat_map(|r| &r.produced).find(|a| a.name == name)
    }

    /// Names of tasks that actually executed this run.
    pub fn executed(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.status == TaskStatus::Succeeded)
            .map(|r| r.name.as_str())
            .collect()
    }

    /// Names of tasks skipped as hash-verified up-to-date.
    pub fn up_to_date(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.status == TaskStatus::UpToDate)
            .map(|r| r.name.as_str())
            .collect()
    }

    /// First recorded task error, if any.
    pub fn first_error(&self) -> Option<&str> {
        self.records.iter().find_map(|r| r.error.as_deref())
    }

    /// Virtual wall time of the run in seconds.
    pub fn virtual_secs(&self) -> f64 {
        (self.ended_ns.saturating_sub(self.started_ns)) as f64 / 1e9
    }

    /// Byte-stable JSON rendering (sorted keys, hex-string u64s) so two
    /// identically-seeded runs can be compared with `cmp`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"ended_ns\":");
        out.push_str(&self.ended_ns.to_string());
        out.push_str(",\"name\":");
        push_json_string(&self.name, &mut out);
        out.push_str(",\"records\":[");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.push_json(&mut out);
        }
        out.push_str("],\"started_ns\":");
        out.push_str(&self.started_ns.to_string());
        out.push_str(",\"waves\":");
        out.push_str(&self.waves.to_string());
        out.push('}');
        out
    }
}

/// Persisted fingerprint + outputs of one completed task.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Input fingerprint the task last succeeded with.
    pub fingerprint: u64,
    /// The artifacts that execution produced.
    pub outputs: Vec<Artifact>,
}

/// Persistent provenance manifest enabling incremental recompute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// Task name → last successful fingerprint and outputs.
    pub tasks: BTreeMap<String, ManifestEntry>,
}

impl Manifest {
    /// Byte-stable JSON rendering (sorted keys, hex-string u64s).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"tasks\":{");
        for (i, (name, entry)) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(name, &mut out);
            out.push_str(":{\"fingerprint\":");
            push_hex_u64(entry.fingerprint, &mut out);
            out.push_str(",\"outputs\":[");
            for (j, a) in entry.outputs.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                a.push_json(&mut out);
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parse a [`Manifest::to_json`] rendering back.
    pub fn from_json(text: &str) -> Result<Manifest> {
        let v = JsonValue::parse(text)?;
        let mut tasks = BTreeMap::new();
        for (name, entry) in v.field("tasks")?.obj_of("manifest.tasks")? {
            let fingerprint = parse_hex_u64(entry.field("fingerprint")?, "manifest.fingerprint")?;
            let outputs = entry
                .field("outputs")?
                .arr_of("manifest.outputs")?
                .iter()
                .map(Artifact::from_json_value)
                .collect::<Result<Vec<_>>>()?;
            tasks.insert(name.clone(), ManifestEntry { fingerprint, outputs });
        }
        Ok(Manifest { tasks })
    }

    /// Load the manifest at `key`, or an empty one if absent.
    pub fn load(store: &dyn ObjectStore, key: &str) -> Result<Manifest> {
        match store.get(key) {
            Ok(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|_| NsdfError::corrupt(format!("manifest {key:?} is not utf-8")))?;
                Manifest::from_json(&text)
            }
            Err(e) if e.is_not_found() => Ok(Manifest::default()),
            Err(e) => Err(e),
        }
    }

    /// Persist the manifest at `key`.
    pub fn save(&self, store: &dyn ObjectStore, key: &str) -> Result<()> {
        store.put(key, self.to_json().as_bytes())?;
        Ok(())
    }
}

/// Options for one [`TaskGraph::run`].
pub struct RunOptions {
    clock: SimClock,
    threads: usize,
    sequential: bool,
    store: Option<Arc<dyn ObjectStore>>,
    manifest_key: Option<String>,
}

impl RunOptions {
    /// Defaults: work-stealing over [`nsdf_util::par::num_threads`]
    /// workers, no persistence, no manifest.
    pub fn new(clock: SimClock) -> RunOptions {
        RunOptions {
            clock,
            threads: nsdf_util::par::num_threads(),
            sequential: false,
            store: None,
            manifest_key: None,
        }
    }

    /// Worker thread count for parallel waves.
    pub fn with_threads(mut self, threads: usize) -> RunOptions {
        self.threads = threads.max(1);
        self
    }

    /// Run one task per wave — the sequential baseline. Virtual time
    /// then sums every task's compute instead of taking per-wave maxima.
    pub fn sequential(mut self) -> RunOptions {
        self.sequential = true;
        self
    }

    /// Persist payload outputs (and read missing inputs) through `store`.
    pub fn with_store(mut self, store: Arc<dyn ObjectStore>) -> RunOptions {
        self.store = Some(store);
        self
    }

    /// Enable incremental recompute: load/update the fingerprint
    /// manifest at `key` on the configured store.
    pub fn with_manifest(mut self, key: impl Into<String>) -> RunOptions {
        self.manifest_key = Some(key.into());
        self
    }
}

type TaskFn = Box<dyn Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync>;

struct TaskDef {
    name: String,
    deps: Vec<usize>,
    def_fp: u64,
    exclusive: bool,
    run: TaskFn,
}

/// A typed task graph: nodes with explicit data dependencies, scheduled
/// in ready-queue waves. Acyclic by construction — a task may only
/// depend on tasks added before it.
pub struct TaskGraph {
    name: String,
    tasks: Vec<TaskDef>,
    index: BTreeMap<String, usize>,
    children: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// New empty graph.
    pub fn new(name: impl Into<String>) -> TaskGraph {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            index: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The id of the task named `name`.
    pub fn task_id(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Add a *parallel* task: a pure function of its prefetched inputs.
    /// It must not touch shared stores or the clock — the engine
    /// prefetches inputs and persists [`TaskOutput::Payload`]s on the
    /// caller thread. `definition` is hashed into the fingerprint, so
    /// changing parameters invalidates cached results.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        deps: &[&str],
        definition: &str,
        run: impl Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync + 'static,
    ) -> Result<usize> {
        self.add_inner(name.into(), deps, definition, false, Box::new(run))
    }

    /// Add an *exclusive* task: runs serialized on the caller thread and
    /// may perform its own store I/O (dataset creation, ingest,
    /// validation), returning [`TaskOutput::Stored`] artifacts.
    pub fn add_exclusive_task(
        &mut self,
        name: impl Into<String>,
        deps: &[&str],
        definition: &str,
        run: impl Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync + 'static,
    ) -> Result<usize> {
        self.add_inner(name.into(), deps, definition, true, Box::new(run))
    }

    fn add_inner(
        &mut self,
        name: String,
        deps: &[&str],
        definition: &str,
        exclusive: bool,
        run: TaskFn,
    ) -> Result<usize> {
        if name.is_empty() {
            return Err(NsdfError::invalid("task name must not be empty"));
        }
        if self.index.contains_key(&name) {
            return Err(NsdfError::invalid(format!("duplicate task name {name:?}")));
        }
        let mut dep_ids = Vec::with_capacity(deps.len());
        for &d in deps {
            let id = self.index.get(d).copied().ok_or_else(|| {
                NsdfError::invalid(format!(
                    "task {name:?}: unknown dependency {d:?} (dependencies must be added first)"
                ))
            })?;
            dep_ids.push(id);
        }
        let mut fp = Fnv1a::new();
        fp.update(name.as_bytes()).update(&[0]).update(definition.as_bytes());
        let id = self.tasks.len();
        for &d in &dep_ids {
            self.children[d].push(id);
        }
        self.tasks.push(TaskDef {
            name: name.clone(),
            deps: dep_ids,
            def_fp: fp.digest(),
            exclusive,
            run,
        });
        self.children.push(Vec::new());
        self.index.insert(name, id);
        Ok(id)
    }

    /// Every task reachable downstream from `seeds` (inclusive) — the
    /// set a change to those tasks can possibly dirty.
    pub fn dependency_cone(&self, seeds: &[&str]) -> BTreeSet<String> {
        let mut seen = vec![false; self.tasks.len()];
        let mut stack: Vec<usize> = seeds.iter().filter_map(|s| self.task_id(s)).collect();
        for &id in &stack {
            seen[id] = true;
        }
        while let Some(id) = stack.pop() {
            for &c in &self.children[id] {
                if !seen[c] {
                    seen[c] = true;
                    stack.push(c);
                }
            }
        }
        self.tasks
            .iter()
            .enumerate()
            .filter(|&(i, _)| seen[i])
            .map(|(_, t)| t.name.clone())
            .collect()
    }

    /// Fingerprint of task `i` given resolved dependency records:
    /// definition hash plus the name/size/checksum/location of every
    /// input artifact, in dependency order.
    fn fingerprint(&self, i: usize, records: &[Option<TaskRecord>]) -> u64 {
        let t = &self.tasks[i];
        let mut fp = Fnv1a::new();
        fp.update(t.name.as_bytes()).update(&[0]).update(&t.def_fp.to_le_bytes());
        for &d in &t.deps {
            let rec = records[d].as_ref().expect("dependency resolved before fingerprinting");
            fp.update(rec.name.as_bytes()).update(&[0]);
            for a in &rec.produced {
                fp.update(a.name.as_bytes())
                    .update(&[0])
                    .update(&a.bytes.to_le_bytes())
                    .update(&a.checksum.to_le_bytes())
                    .update(a.location.as_bytes())
                    .update(&[0]);
            }
        }
        fp.digest()
    }

    /// Names of the artifacts task `i` consumes, from resolved records.
    fn consumed(&self, i: usize, records: &[Option<TaskRecord>]) -> Vec<String> {
        let mut out = Vec::new();
        for &d in &self.tasks[i].deps {
            if let Some(rec) = records[d].as_ref() {
                out.extend(rec.produced.iter().map(|a| a.name.clone()));
            }
        }
        out
    }

    /// Execute the graph.
    ///
    /// Scheduling is wave-based: every wave resolves all tasks whose
    /// dependencies completed — hash-verified up-to-date tasks resolve
    /// instantly, parallel tasks run on the work-stealing pool (clock
    /// advances by the wave maximum), exclusive tasks then run
    /// serialized (clock advances per task). Store I/O is batched per
    /// wave: one `head_many` verifies, one `get_many` prefetches, and one
    /// `put_many` persists the parallel tasks' payloads. A failed task
    /// fails alone; only its downstream cone is skipped, and independent
    /// branches complete. The run report, including failures, is always
    /// returned. The reported window covers the manifest load and save.
    pub fn run(&self, opts: &RunOptions) -> Result<GraphRun> {
        if opts.manifest_key.is_some() && opts.store.is_none() {
            return Err(NsdfError::invalid("manifest requires a store"));
        }
        let n = self.tasks.len();
        let clock = &opts.clock;
        let started_ns = clock.now_ns();
        let prev = match (&opts.store, &opts.manifest_key) {
            (Some(store), Some(key)) => Manifest::load(store.as_ref(), key)?,
            _ => Manifest::default(),
        };

        let mut records: Vec<Option<TaskRecord>> = (0..n).map(|_| None).collect();
        let mut blackboard: BTreeMap<String, Arc<Vec<u8>>> = BTreeMap::new();
        let mut resolved = 0usize;
        let mut wave = 0u64;

        while resolved < n {
            // Propagate skips: deps have smaller ids, so one forward scan
            // closes the cone discovered this wave.
            for i in 0..n {
                if records[i].is_some() {
                    continue;
                }
                let blocked = self.tasks[i].deps.iter().any(|&d| {
                    matches!(
                        records[d].as_ref().map(|r| r.status),
                        Some(TaskStatus::Failed) | Some(TaskStatus::Skipped)
                    )
                });
                if blocked {
                    records[i] = Some(self.record(i, TaskStatus::Skipped, wave, 0, &records));
                    resolved += 1;
                }
            }
            if resolved == n {
                break;
            }

            let mut ready: Vec<usize> = (0..n)
                .filter(|&i| {
                    records[i].is_none() && self.tasks[i].deps.iter().all(|&d| records[d].is_some())
                })
                .collect();
            if ready.is_empty() {
                return Err(NsdfError::invalid("task graph made no progress (cycle?)"));
            }
            if opts.sequential {
                ready.truncate(1);
            }

            // Hash-verified fast path: fingerprint matches the manifest
            // and every recorded output still checks out on the store.
            let fps: Vec<(usize, u64)> =
                ready.iter().map(|&i| (i, self.fingerprint(i, &records))).collect();
            let verified = self.verify(&fps, &prev, opts);
            let mut execute = Vec::new();
            for ((i, fp), entry) in fps.into_iter().zip(verified) {
                match entry {
                    Some(e) => {
                        let mut rec = self.record(i, TaskStatus::UpToDate, wave, fp, &records);
                        rec.produced = e.outputs.clone();
                        records[i] = Some(rec);
                        resolved += 1;
                    }
                    None => execute.push((i, fp)),
                }
            }

            // Prefetch every missing input of the wave, then hand each
            // task its inputs or fail it with its first missing one.
            let missing = self.prefetch(&execute, &records, &mut blackboard, opts);
            let mut runnable: Vec<(usize, u64, Vec<TaskInput>)> = Vec::new();
            for (i, fp) in execute {
                match self.inputs(i, &records, &blackboard, &missing) {
                    Ok(inputs) => runnable.push((i, fp, inputs)),
                    Err(e) => {
                        let mut rec = self.record(i, TaskStatus::Failed, wave, fp, &records);
                        rec.error = Some(format!("input prefetch: {e}"));
                        records[i] = Some(rec);
                        resolved += 1;
                    }
                }
            }

            let (par, excl): (Vec<_>, Vec<_>) =
                runnable.into_iter().partition(|(i, _, _)| !self.tasks[*i].exclusive);

            // Parallel wave: pure closures on the work-stealing pool.
            // The closure returns its outcome; the outer error type is
            // never constructed, keeping per-task failures isolated.
            if !par.is_empty() {
                let outcomes =
                    nsdf_util::par::try_par_map_owned(par, opts.threads, |(i, fp, inputs)| {
                        let mut ctx = TaskCtx { clock: clock.clone(), inputs, compute_ns: 0 };
                        let result = (self.tasks[i].run)(&mut ctx);
                        Ok::<_, NsdfError>(Outcome {
                            task: i,
                            fp,
                            result,
                            compute_ns: ctx.compute_ns,
                        })
                    })?;
                let wave_compute = outcomes.iter().map(|o| o.compute_ns).max().unwrap_or(0);
                clock.advance_ns(wave_compute);
                for (i, rec) in self.persist(outcomes, wave, &records, &mut blackboard, opts) {
                    records[i] = Some(rec);
                    resolved += 1;
                }
            }

            // Exclusive tasks: serialized on the caller thread, own I/O.
            for (i, fp, inputs) in excl {
                let mut ctx = TaskCtx { clock: clock.clone(), inputs, compute_ns: 0 };
                let result = (self.tasks[i].run)(&mut ctx);
                clock.advance_ns(ctx.compute_ns);
                let outcome = Outcome { task: i, fp, result, compute_ns: ctx.compute_ns };
                for (i, rec) in self.persist(vec![outcome], wave, &records, &mut blackboard, opts) {
                    records[i] = Some(rec);
                    resolved += 1;
                }
            }

            wave += 1;
        }

        let records: Vec<TaskRecord> =
            records.into_iter().map(|r| r.expect("all tasks resolved")).collect();
        if let (Some(store), Some(key)) = (&opts.store, &opts.manifest_key) {
            // Merge into the previous manifest: tasks skipped this run
            // keep their last-known-good entries for future reruns.
            let mut manifest = prev;
            for r in &records {
                if matches!(r.status, TaskStatus::Succeeded | TaskStatus::UpToDate) {
                    manifest.tasks.insert(
                        r.name.clone(),
                        ManifestEntry { fingerprint: r.fingerprint, outputs: r.produced.clone() },
                    );
                }
            }
            manifest.save(store.as_ref(), key)?;
        }
        Ok(GraphRun {
            name: self.name.clone(),
            records,
            waves: wave,
            started_ns,
            ended_ns: clock.now_ns(),
        })
    }

    /// A record of task `i` with nothing produced and no error.
    fn record(
        &self,
        i: usize,
        status: TaskStatus,
        wave: u64,
        fingerprint: u64,
        records: &[Option<TaskRecord>],
    ) -> TaskRecord {
        TaskRecord {
            name: self.tasks[i].name.clone(),
            status,
            wave,
            compute_ns: 0,
            fingerprint,
            produced: Vec::new(),
            consumed: self.consumed(i, records),
            error: None,
        }
    }

    /// For each `(task, fingerprint)`, the manifest entry when the
    /// fingerprint matches and every recorded output still exists with
    /// the recorded size and checksum. All candidates' outputs are checked
    /// with one `head_many`, in task-id order. Artifacts recorded without
    /// a checksum can never verify, forcing a re-run — the conservative
    /// choice; a failed head likewise only forces its task to re-run.
    fn verify<'m>(
        &self,
        fps: &[(usize, u64)],
        prev: &'m Manifest,
        opts: &RunOptions,
    ) -> Vec<Option<&'m ManifestEntry>> {
        let Some(store) = &opts.store else { return vec![None; fps.len()] };
        let candidates: Vec<Option<&ManifestEntry>> = fps
            .iter()
            .map(|&(i, fp)| {
                prev.tasks
                    .get(&self.tasks[i].name)
                    .filter(|e| e.fingerprint == fp && e.outputs.iter().all(|a| a.checksum != 0))
            })
            .collect();
        let keys: Vec<&str> = candidates
            .iter()
            .flatten()
            .flat_map(|e| &e.outputs)
            .map(|a| a.location.as_str())
            .collect();
        let heads = if keys.is_empty() { Vec::new() } else { store.head_many(&keys) };
        let mut at = 0;
        candidates
            .into_iter()
            .map(|entry| {
                let e = entry?;
                let own = &heads[at..at + e.outputs.len()];
                at += own.len();
                let intact = e.outputs.iter().zip(own).all(|(a, head)| {
                    matches!(head, Ok(m) if m.size == a.bytes && m.checksum == a.checksum)
                });
                intact.then_some(e)
            })
            .collect()
    }

    /// Load every input of `execute` that is not yet in the blackboard
    /// with one deduplicated `get_many` in producer task-id order,
    /// checking content hashes on the way in. Returns the error of each
    /// artifact (by name) that could not be loaded.
    fn prefetch(
        &self,
        execute: &[(usize, u64)],
        records: &[Option<TaskRecord>],
        blackboard: &mut BTreeMap<String, Arc<Vec<u8>>>,
        opts: &RunOptions,
    ) -> BTreeMap<String, String> {
        let mut wanted: BTreeMap<(usize, usize), &Artifact> = BTreeMap::new();
        for &(i, _) in execute {
            for &d in &self.tasks[i].deps {
                let rec = records[d].as_ref().expect("dependency resolved before prefetch");
                for (k, a) in rec.produced.iter().enumerate() {
                    if !blackboard.contains_key(&a.name) {
                        wanted.insert((d, k), a);
                    }
                }
            }
        }
        let mut missing = BTreeMap::new();
        if wanted.is_empty() {
            return missing;
        }
        let Some(store) = &opts.store else {
            for a in wanted.values() {
                let msg = format!("artifact {:?} not in memory and no store configured", a.name);
                missing.insert(a.name.clone(), NsdfError::invalid(msg).to_string());
            }
            return missing;
        };
        let keys: Vec<&str> = wanted.values().map(|a| a.location.as_str()).collect();
        for (a, got) in wanted.values().zip(store.get_many(&keys)) {
            let checked = got.and_then(|data| {
                if a.checksum != 0 && nsdf_util::fnv1a64(&data) != a.checksum {
                    return Err(NsdfError::corrupt(format!(
                        "artifact {:?} at {:?} failed checksum verification",
                        a.name, a.location
                    )));
                }
                Ok(data)
            });
            match checked {
                Ok(data) => {
                    blackboard.insert(a.name.clone(), Arc::new(data));
                }
                Err(e) => {
                    missing.insert(a.name.clone(), e.to_string());
                }
            }
        }
        missing
    }

    /// The inputs of task `i`, in dependency order, from the blackboard.
    fn inputs(
        &self,
        i: usize,
        records: &[Option<TaskRecord>],
        blackboard: &BTreeMap<String, Arc<Vec<u8>>>,
        missing: &BTreeMap<String, String>,
    ) -> std::result::Result<Vec<TaskInput>, String> {
        let mut inputs = Vec::new();
        for &d in &self.tasks[i].deps {
            let rec = records[d].as_ref().expect("dependency resolved before prefetch");
            for a in &rec.produced {
                let bytes = blackboard.get(&a.name).ok_or_else(|| missing[&a.name].clone())?;
                inputs.push(TaskInput { artifact: a.clone(), bytes: Arc::clone(bytes) });
            }
        }
        Ok(inputs)
    }

    /// Turn closure outcomes into `(task, record)` pairs, persisting every payload output
    /// with one `put_many` in task-id order. A failed put fails only the
    /// task that owns the key; the others' payloads land in the blackboard.
    fn persist(
        &self,
        outcomes: Vec<Outcome>,
        wave: u64,
        records: &[Option<TaskRecord>],
        blackboard: &mut BTreeMap<String, Arc<Vec<u8>>>,
        opts: &RunOptions,
    ) -> Vec<(usize, TaskRecord)> {
        let mut out = Vec::with_capacity(outcomes.len());
        // (record slot, artifact name, location, bytes) per payload.
        let mut payloads: Vec<(usize, String, String, Vec<u8>)> = Vec::new();
        for o in outcomes {
            let mut rec = self.record(o.task, TaskStatus::Succeeded, wave, o.fp, records);
            rec.compute_ns = o.compute_ns;
            match o.result {
                Err(e) => (rec.status, rec.error) = (TaskStatus::Failed, Some(e.to_string())),
                Ok(outputs) => {
                    for output in outputs {
                        match output {
                            TaskOutput::Stored(a) => rec.produced.push(a),
                            TaskOutput::Payload { name, location, bytes } => {
                                rec.produced.push(Artifact::of_bytes(&name, &bytes, &location));
                                payloads.push((out.len(), name, location, bytes));
                            }
                        }
                    }
                }
            }
            out.push((o.task, rec));
        }
        if let Some(store) = opts.store.as_ref().filter(|_| !payloads.is_empty()) {
            let items: Vec<(&str, &[u8])> = payloads
                .iter()
                .map(|(_, _, loc, bytes)| (loc.as_str(), bytes.as_slice()))
                .collect();
            for ((slot, name, _, _), put) in payloads.iter().zip(store.put_many(&items)) {
                let rec = &mut out[*slot].1;
                if let (Err(e), None) = (put, &rec.error) {
                    rec.status = TaskStatus::Failed;
                    rec.error = Some(format!("persist {name:?}: {e}"));
                }
            }
        }
        for (slot, name, _, bytes) in payloads {
            let rec = &mut out[slot].1;
            if rec.status == TaskStatus::Failed {
                rec.produced.clear();
            } else {
                blackboard.insert(name, Arc::new(bytes));
            }
        }
        out
    }
}

/// What one executed closure returned, with its compute charge.
struct Outcome {
    task: usize,
    fp: u64,
    result: Result<Vec<TaskOutput>>,
    compute_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsdf_storage::MemoryStore;

    const MS: u64 = 1_000_000;

    fn emit(
        name: &str,
        payload: &[u8],
        compute_ms: u64,
    ) -> impl Fn(&mut TaskCtx) -> Result<Vec<TaskOutput>> + Send + Sync {
        let name = name.to_string();
        let payload = payload.to_vec();
        move |ctx| {
            ctx.charge_compute_ns(compute_ms * MS);
            Ok(vec![TaskOutput::payload(&name, format!("obj/{name}"), payload.clone())])
        }
    }

    /// gen → {a, b} → join; a and b must share a wave, and the wave
    /// charges max(a, b), not the sum.
    #[test]
    fn diamond_runs_in_waves_and_overlaps_compute() {
        let mut g = TaskGraph::new("diamond");
        g.add_task("gen", &[], "v1", emit("dem", b"dem-bytes", 10)).unwrap();
        g.add_task("a", &["gen"], "v1", |ctx| {
            let dem = ctx.input_bytes("dem")?.to_vec();
            ctx.charge_compute_ns(20 * MS);
            Ok(vec![TaskOutput::payload("a-out", "obj/a", dem)])
        })
        .unwrap();
        g.add_task("b", &["gen"], "v1", |ctx| {
            ctx.charge_compute_ns(30 * MS);
            Ok(vec![TaskOutput::payload("b-out", "obj/b", ctx.input_bytes("dem")?.to_vec())])
        })
        .unwrap();
        g.add_task("join", &["a", "b"], "v1", |ctx| {
            assert_eq!(ctx.inputs().len(), 2);
            ctx.charge_compute_ns(5 * MS);
            Ok(vec![])
        })
        .unwrap();

        let clock = SimClock::new();
        let run = g.run(&RunOptions::new(clock.clone()).with_threads(4)).unwrap();
        assert!(run.succeeded());
        assert_eq!(run.waves, 3);
        assert_eq!(run.record("a").unwrap().wave, 1);
        assert_eq!(run.record("b").unwrap().wave, 1);
        assert_eq!(run.record("join").unwrap().wave, 2);
        // 10 (gen) + max(20, 30) + 5 = 45 ms of virtual compute.
        assert_eq!(clock.now_ns(), 45 * MS);

        // Sequential baseline: 10 + 20 + 30 + 5 = 65 ms — strictly more.
        let seq_clock = SimClock::new();
        let seq = g.run(&RunOptions::new(seq_clock.clone()).sequential()).unwrap();
        assert!(seq.succeeded());
        assert_eq!(seq_clock.now_ns(), 65 * MS);
        assert_eq!(seq.waves, 4);
    }

    /// A failure poisons exactly its downstream cone; the independent
    /// branch still completes and the report is returned, not an Err.
    #[test]
    fn failure_skips_only_dependent_cone() {
        let mut g = TaskGraph::new("cone");
        g.add_task("root", &[], "v1", emit("r", b"r", 1)).unwrap();
        g.add_task("bad", &["root"], "v1", |_ctx| Err(NsdfError::invalid("boom"))).unwrap();
        g.add_task("good", &["root"], "v1", emit("g", b"g", 1)).unwrap();
        g.add_task("after-bad", &["bad"], "v1", emit("ab", b"ab", 1)).unwrap();
        g.add_task("after-both", &["bad", "good"], "v1", emit("x", b"x", 1)).unwrap();
        g.add_task("after-good", &["good"], "v1", emit("ag", b"ag", 1)).unwrap();

        let run = g.run(&RunOptions::new(SimClock::new())).unwrap();
        assert!(!run.succeeded());
        assert_eq!(run.record("bad").unwrap().status, TaskStatus::Failed);
        assert!(run.record("bad").unwrap().error.as_deref().unwrap().contains("boom"));
        assert_eq!(run.record("after-bad").unwrap().status, TaskStatus::Skipped);
        assert_eq!(run.record("after-both").unwrap().status, TaskStatus::Skipped);
        assert_eq!(run.record("good").unwrap().status, TaskStatus::Succeeded);
        assert_eq!(run.record("after-good").unwrap().status, TaskStatus::Succeeded);
        assert_eq!(run.count(TaskStatus::Skipped), 2);
        assert!(run.first_error().unwrap().contains("boom"));

        // The cone helper agrees with what actually got poisoned.
        let cone = g.dependency_cone(&["bad"]);
        assert_eq!(
            cone.iter().map(String::as_str).collect::<Vec<_>>(),
            vec!["after-bad", "after-both", "bad"]
        );
    }

    /// With a manifest, an unchanged rerun verifies every task by hash
    /// and re-executes nothing; deleting a stored artifact or changing a
    /// definition forces exactly the right tasks to re-run.
    #[test]
    fn manifest_enables_hash_verified_incremental_rerun() {
        let store: Arc<dyn ObjectStore> = Arc::new(MemoryStore::new());
        let build = |defn: &str| {
            let mut g = TaskGraph::new("inc");
            g.add_task("gen", &[], defn, emit("dem", b"dem-v1", 1)).unwrap();
            g.add_task("deriv", &["gen"], "v1", |ctx| {
                let mut out = ctx.input_bytes("dem")?.to_vec();
                out.reverse();
                Ok(vec![TaskOutput::payload("deriv-out", "obj/deriv", out)])
            })
            .unwrap();
            g.add_task("sink", &["deriv"], "v1", emit("sink-out", b"s", 1)).unwrap();
            g
        };
        let opts = |clock| {
            RunOptions::new(clock).with_store(Arc::clone(&store)).with_manifest("wf/manifest.json")
        };

        let g = build("v1");
        let first = g.run(&opts(SimClock::new())).unwrap();
        assert!(first.succeeded());
        assert_eq!(first.count(TaskStatus::Succeeded), 3);

        // Unchanged rerun: all three verify as up-to-date by hash.
        let second = g.run(&opts(SimClock::new())).unwrap();
        assert!(second.succeeded());
        assert_eq!(second.count(TaskStatus::UpToDate), 3);
        assert_eq!(second.count(TaskStatus::Succeeded), 0);
        // Up-to-date outputs still flow: produced lists match run 1.
        assert_eq!(
            second.record("deriv").unwrap().produced,
            first.record("deriv").unwrap().produced
        );

        // A vanished artifact fails head-verification → that task (and
        // its cone, whose input fingerprints change... here content is
        // identical so the cone cuts off) re-executes.
        store.delete("obj/deriv").unwrap();
        let third = g.run(&opts(SimClock::new())).unwrap();
        assert!(third.succeeded());
        assert_eq!(third.record("gen").unwrap().status, TaskStatus::UpToDate);
        assert_eq!(third.record("deriv").unwrap().status, TaskStatus::Succeeded);
        // deriv reproduced byte-identical output, so sink stays clean.
        assert_eq!(third.record("sink").unwrap().status, TaskStatus::UpToDate);
        assert_eq!(store.get("obj/deriv").unwrap(), b"1v-med".to_vec());

        // Changing a task definition dirties it and its consumers'
        // fingerprints only if content changes — gen emits the same
        // payload under "v2", so downstream stays up-to-date.
        let g2 = build("v2");
        let fourth = g2.run(&opts(SimClock::new())).unwrap();
        assert_eq!(fourth.record("gen").unwrap().status, TaskStatus::Succeeded);
        assert_eq!(fourth.record("deriv").unwrap().status, TaskStatus::UpToDate);
        assert_eq!(fourth.record("sink").unwrap().status, TaskStatus::UpToDate);
    }

    /// The report window covers the manifest load and save: over a WAN
    /// store, the reported virtual time equals the clock's advance across
    /// `run`, cold and on an up-to-date rerun.
    #[test]
    fn report_window_covers_manifest_io() {
        use nsdf_storage::{CloudStore, NetworkProfile};
        let clock = SimClock::new();
        let wan = CloudStore::new(
            Arc::new(MemoryStore::new()),
            NetworkProfile::private_seal(),
            clock.clone(),
            7,
        );
        let store: Arc<dyn ObjectStore> = Arc::new(wan);
        let mut g = TaskGraph::new("window");
        g.add_task("gen", &[], "v1", emit("dem", b"dem", 3)).unwrap();
        g.add_task("use", &["gen"], "v1", emit("out", b"out", 2)).unwrap();
        let opts = RunOptions::new(clock.clone())
            .with_store(Arc::clone(&store))
            .with_manifest("wf/manifest.json");
        for expect in [TaskStatus::Succeeded, TaskStatus::UpToDate] {
            let before = clock.now_ns();
            let run = g.run(&opts).unwrap();
            assert_eq!(run.count(expect), 2);
            assert_eq!(run.started_ns, before);
            assert_eq!(run.ended_ns, clock.now_ns());
            let advance = (clock.now_ns() - before) as f64 / 1e9;
            assert_eq!(run.virtual_secs(), advance);
        }
        assert!(store.exists("wf/manifest.json").unwrap());
    }

    /// Identical runs render byte-identical reports at any thread count.
    #[test]
    fn run_report_is_deterministic_across_thread_counts() {
        let build = || {
            let mut g = TaskGraph::new("det");
            let mut names: Vec<String> = Vec::new();
            for i in 0..12 {
                let name = format!("t{i:02}");
                let deps: Vec<&str> = if i == 0 { vec![] } else { vec![names[i / 2].as_str()] };
                g.add_task(
                    &name,
                    &deps,
                    "v1",
                    emit(&format!("o{i:02}"), name.as_bytes(), i as u64 + 1),
                )
                .unwrap();
                names.push(name);
            }
            g
        };
        let a = build().run(&RunOptions::new(SimClock::new()).with_threads(1)).unwrap();
        let b = build().run(&RunOptions::new(SimClock::new()).with_threads(8)).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.succeeded());
    }

    /// Manifest JSON round-trips byte-stably.
    #[test]
    fn manifest_round_trip() {
        let mut m = Manifest::default();
        m.tasks.insert(
            "b-task".into(),
            ManifestEntry {
                fingerprint: u64::MAX,
                outputs: vec![Artifact::of_bytes("o", b"xy", "obj/o")],
            },
        );
        m.tasks.insert("a-task".into(), ManifestEntry { fingerprint: 7, outputs: vec![] });
        let json = m.to_json();
        let back = Manifest::from_json(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), json);
    }

    /// Graph construction rejects duplicates, empty names, and unknown
    /// (i.e. forward/cyclic) dependencies.
    #[test]
    fn construction_validation() {
        let mut g = TaskGraph::new("v");
        g.add_task("a", &[], "v1", emit("a", b"a", 1)).unwrap();
        assert!(g.add_task("a", &[], "v1", emit("a2", b"a", 1)).is_err());
        assert!(g.add_task("", &[], "v1", emit("e", b"e", 1)).is_err());
        assert!(g.add_task("b", &["zzz"], "v1", emit("b", b"b", 1)).is_err());
        assert_eq!(g.len(), 1);
        // A manifest without a store is rejected up front.
        let err = g.run(&RunOptions::new(SimClock::new()).with_manifest("m")).unwrap_err();
        assert!(err.to_string().contains("store"));
    }
}
