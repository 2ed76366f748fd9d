//! The NSDF client: named storage endpoints over one virtual timeline.
//!
//! Mirrors the paper's entry-point model (§III, Fig. 2): a user session
//! reaches NSDF through an entry point that can address several storage
//! services — local scratch, a public commons (Dataverse-class), and a
//! private cloud (Seal-class) — all fronted by caches. In this
//! reproduction the remote services are the deterministic WAN simulation
//! from `nsdf-storage`, sharing a single [`SimClock`] so cross-service
//! workflows report coherent end-to-end times.

use nsdf_idx::{IdxDataset, QuerySession};
use nsdf_storage::{
    BreakerPolicy, BreakerStore, CloudStore, FaultPlan, FaultStore, HedgePolicy, IntegrityStore,
    MemoryStore, NetworkProfile, ObjectStore, RetryPolicy, RetryStore, SchedConfig, SchedStore,
    Scheduler, TenantPolicy, TierCache,
};
use nsdf_util::obs::Obs;
use nsdf_util::{derive_seed, NsdfError, Result, SimClock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tenant id the client's own traffic is admitted under.
const CLIENT_TENANT: u32 = 0;

/// Disk-tier byte budget for the tiered constructors.
const DEFAULT_DISK_TIER_BYTES: u64 = 1 << 30;

/// Resilience policy for a simulated remote endpoint: how its store stack
/// retries, hedges, sheds load, and verifies payloads.
///
/// Applied by [`NsdfClient::simulated_chaos`], which assembles each remote
/// endpoint as
///
/// ```text
/// SchedStore → TierCache → RetryStore → IntegrityStore → BreakerStore → FaultStore → CloudStore
/// ```
///
/// so a fault injected at the bottom is first seen by the breaker (endpoint
/// health), then surfaced as a checksum failure if it was silent
/// corruption, then retried/hedged, and finally hidden from warm reads by
/// the cache tiers — only verified payloads are ever cached or persisted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointPolicy {
    /// Exponential-backoff retry policy.
    pub retry: RetryPolicy,
    /// Hedged backup waves for batch reads; `None` disables hedging.
    pub hedge: Option<HedgePolicy>,
    /// Per-endpoint circuit breaker; `None` disables the breaker.
    pub breaker: Option<BreakerPolicy>,
    /// Verify payload checksums against object metadata, turning silent
    /// corruption into retryable I/O errors.
    pub verify_checksums: bool,
    /// Read-cache budget in bytes.
    pub cache_bytes: u64,
}

impl Default for EndpointPolicy {
    /// Defaults tolerate sustained ~20% fault rates without tripping: three
    /// retry attempts with one 20 ms hedge wave, a breaker that only opens
    /// on 16 consecutive failures, checksum verification on, and the same
    /// 256 MiB cache as [`NsdfClient::simulated`].
    fn default() -> Self {
        EndpointPolicy {
            retry: RetryPolicy::default(),
            hedge: Some(HedgePolicy::default()),
            breaker: Some(BreakerPolicy {
                failure_threshold: 16,
                cooldown_secs: 0.05,
                success_threshold: 2,
            }),
            verify_checksums: true,
            cache_bytes: 256 << 20,
        }
    }
}

/// Classes of storage endpoint the tutorial distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// Local scratch (Option A in tutorial Steps 3–4).
    Local,
    /// Public commons, Dataverse-class.
    PublicCommons,
    /// Private cloud, Seal-class (Option B in tutorial Steps 3–4).
    PrivateCloud,
}

/// One named storage endpoint.
pub struct StorageEndpoint {
    /// Endpoint name (e.g. `"seal"`).
    pub name: String,
    /// Endpoint class.
    pub kind: EndpointKind,
    /// The store, already wrapped in WAN simulation and caching as
    /// appropriate for its class.
    pub store: Arc<dyn ObjectStore>,
}

impl std::fmt::Debug for StorageEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageEndpoint")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("store", &self.store.describe())
            .finish()
    }
}

/// The client session.
pub struct NsdfClient {
    clock: SimClock,
    obs: Obs,
    sched: Arc<Scheduler>,
    tiers: BTreeMap<String, Arc<TierCache>>,
    endpoints: BTreeMap<String, StorageEndpoint>,
}

impl NsdfClient {
    /// A fully simulated client with the tutorial's three endpoints:
    /// `"local"`, `"dataverse"` (public), and `"seal"` (private), the two
    /// remote ones behind WAN models and a 256 MiB read cache each.
    ///
    /// All endpoints report into one observability registry on the shared
    /// clock; metrics are namespaced per endpoint (`seal.wan.bytes_down`,
    /// `dataverse.cache.hits`, ...). Get it via [`NsdfClient::obs`].
    pub fn simulated(seed: u64) -> NsdfClient {
        Self::simulated_inner(seed, None, None).expect("RAM-only wiring cannot fail")
    }

    /// [`NsdfClient::simulated`] with a shared persistent disk tier under
    /// both remote endpoints: every remote read lands a content-addressed
    /// shard in `disk` (namespaced per endpoint), so a *new* client opened
    /// over the same store — after a restart, or for another tenant —
    /// serves previously-read regions with zero `wan.read_ops`.
    pub fn simulated_tiered(seed: u64, disk: Arc<dyn ObjectStore>) -> Result<NsdfClient> {
        Self::simulated_inner(seed, None, Some(disk))
    }

    /// Wire `"dataverse"` and `"seal"` over their WAN models. With `chaos`,
    /// each WAN runs the fault plan behind the policy's resilience stack
    /// and the policy's cache budget; without it, the WAN sits directly
    /// under a cache of [`EndpointPolicy::default`]'s size.
    fn simulated_inner(
        seed: u64,
        chaos: Option<(&FaultPlan, &EndpointPolicy)>,
        disk: Option<Arc<dyn ObjectStore>>,
    ) -> Result<NsdfClient> {
        let mut client = Self::empty();
        let (clock, obs) = (client.clock.clone(), client.obs.clone());
        for (name, kind, profile, label) in [
            (
                "dataverse",
                EndpointKind::PublicCommons,
                NetworkProfile::public_dataverse(),
                "wan-dataverse",
            ),
            ("seal", EndpointKind::PrivateCloud, NetworkProfile::private_seal(), "wan-seal"),
        ] {
            let ep_obs = obs.scoped(name);
            let wan = Arc::new(
                CloudStore::new(
                    Arc::new(MemoryStore::new()),
                    profile,
                    clock.clone(),
                    derive_seed(seed, label),
                )
                .with_obs(&ep_obs),
            );
            let (stack, cache_bytes) = match chaos {
                None => (wan as Arc<dyn ObjectStore>, EndpointPolicy::default().cache_bytes),
                Some((plan, policy)) => {
                    let mut ep_plan = plan.clone();
                    ep_plan.seed = derive_seed(plan.seed, name);
                    (resilience_stack(wan, ep_plan, policy, &clock, &ep_obs)?, policy.cache_bytes)
                }
            };
            client.wire_remote(name, kind, stack, &ep_obs, cache_bytes, disk.as_ref())?;
        }
        Ok(client)
    }

    /// A client skeleton: local scratch endpoint, shared clock/registry,
    /// and the admission scheduler the remote endpoints sit under.
    fn empty() -> NsdfClient {
        let clock = SimClock::new();
        let obs = Obs::new(clock.clone());
        let sched = Arc::new(Scheduler::new(clock.clone(), SchedConfig::default()).with_obs(&obs));
        sched.register_tenant(CLIENT_TENANT, "client", TenantPolicy::unthrottled());
        let mut client =
            NsdfClient { clock, obs, sched, tiers: BTreeMap::new(), endpoints: BTreeMap::new() };
        client.add_endpoint(StorageEndpoint {
            name: "local".into(),
            kind: EndpointKind::Local,
            store: Arc::new(MemoryStore::new()),
        });
        client
    }

    /// Front a remote endpoint's resilience stack with the two-tier cache
    /// and put it under scheduler admission, so shed-and-reissued prefetch
    /// warms the shared tiers for every tenant of this entry point.
    fn wire_remote(
        &mut self,
        name: &str,
        kind: EndpointKind,
        stack: Arc<dyn ObjectStore>,
        ep_obs: &Obs,
        cache_bytes: u64,
        disk: Option<&Arc<dyn ObjectStore>>,
    ) -> Result<()> {
        let mut tier = TierCache::new(stack, cache_bytes);
        if let Some(d) = disk {
            tier = tier.with_disk(Arc::clone(d), name, DEFAULT_DISK_TIER_BYTES)?;
        }
        let tier = Arc::new(tier.with_obs(ep_obs));
        self.tiers.insert(name.to_string(), Arc::clone(&tier));
        let admitted: Arc<dyn ObjectStore> = Arc::new(SchedStore::new(
            tier as Arc<dyn ObjectStore>,
            Arc::clone(&self.sched),
            CLIENT_TENANT,
        ));
        self.add_endpoint(StorageEndpoint { name: name.into(), kind, store: admitted });
        Ok(())
    }

    /// A simulated client whose remote endpoints run a scripted fault plan
    /// behind the full resilience stack described by [`EndpointPolicy`].
    ///
    /// Both remotes execute the same `plan` timeline, but every stochastic
    /// draw is salted per endpoint (`derive_seed(plan.seed, name)`), so
    /// "dataverse" and "seal" fail independently while staying
    /// seed-deterministic. Breaker, retry, hedge, integrity, fault, WAN,
    /// and cache metrics all land in the endpoint's scope of one shared
    /// registry (`seal.breaker.opened`, `dataverse.fault.injected`, ...).
    pub fn simulated_chaos(
        seed: u64,
        plan: &FaultPlan,
        policy: &EndpointPolicy,
    ) -> Result<NsdfClient> {
        Self::simulated_inner(seed, Some((plan, policy)), None)
    }

    /// [`NsdfClient::simulated_chaos`] with a shared persistent disk tier
    /// under both remote endpoints (see [`NsdfClient::simulated_tiered`]).
    /// The disk tier sits *above* the resilience stack, so only payloads
    /// that survived retry + checksum verification are ever persisted.
    pub fn simulated_chaos_tiered(
        seed: u64,
        plan: &FaultPlan,
        policy: &EndpointPolicy,
        disk: Arc<dyn ObjectStore>,
    ) -> Result<NsdfClient> {
        Self::simulated_inner(seed, Some((plan, policy)), Some(disk))
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The session-wide observability registry all simulated endpoints
    /// report into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The admission scheduler every remote endpoint submits through.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// The two-tier cache fronting a remote endpoint, for dashboard
    /// attachment and tier introspection. `None` for endpoints (like
    /// `"local"`) that are not cache-fronted.
    pub fn tiercache(&self, name: &str) -> Option<Arc<TierCache>> {
        self.tiers.get(name).cloned()
    }

    /// Register an endpoint (replacing any existing one with the name).
    pub fn add_endpoint(&mut self, ep: StorageEndpoint) {
        self.endpoints.insert(ep.name.clone(), ep);
    }

    /// Endpoint names, sorted.
    pub fn endpoint_names(&self) -> Vec<String> {
        self.endpoints.keys().cloned().collect()
    }

    /// Look up an endpoint.
    pub fn endpoint(&self, name: &str) -> Result<&StorageEndpoint> {
        self.endpoints.get(name).ok_or_else(|| NsdfError::not_found(format!("endpoint {name:?}")))
    }

    /// The store behind an endpoint.
    pub fn store(&self, name: &str) -> Result<Arc<dyn ObjectStore>> {
        Ok(self.endpoint(name)?.store.clone())
    }

    /// Upload bytes to an endpoint. Returns the stored size.
    pub fn upload(&self, endpoint: &str, key: &str, data: &[u8]) -> Result<u64> {
        let meta = self.store(endpoint)?.put(key, data)?;
        Ok(meta.size)
    }

    /// Download bytes from an endpoint.
    pub fn download(&self, endpoint: &str, key: &str) -> Result<Vec<u8>> {
        self.store(endpoint)?.get(key)
    }

    /// Copy one object between endpoints (download then upload, which is
    /// how a client-side transfer actually moves bytes). Returns the size.
    pub fn transfer(&self, from: &str, key: &str, to: &str, to_key: &str) -> Result<u64> {
        let data = self.download(from, key)?;
        self.upload(to, to_key, &data)
    }

    /// Open an IDX dataset stored under `base` at an endpoint, wired into
    /// the client's registry under the endpoint's scope
    /// (`seal.idx.fetch_vns`, ...) on the shared clock.
    pub fn open_dataset(&self, endpoint: &str, base: &str) -> Result<Arc<IdxDataset>> {
        let store = self.store(endpoint)?;
        Ok(Arc::new(IdxDataset::open(store, base)?.with_obs(&self.obs.scoped(endpoint))))
    }

    /// Open an interactive [`QuerySession`] on `field` of the dataset at
    /// `endpoint`/`base` — the stateful progressive-query engine one viewer
    /// owns (level-delta refinement, cancellation, prefetch). Session
    /// counters land under the endpoint's scope (`seal.session.*`), where
    /// `session.fetch_vns` reconciles exactly with `wan.busy_vns` for cold
    /// reads.
    pub fn open_session(
        &self,
        endpoint: &str,
        base: &str,
        field: &str,
    ) -> Result<QuerySession<f32>> {
        let ds = self.open_dataset(endpoint, base)?;
        Ok(QuerySession::<f32>::new(ds, field)?.with_obs(&self.obs.scoped(endpoint)))
    }
}

/// The fault-injected resilience stack over one endpoint's WAN, bottom up:
/// fault plan, breaker, checksum verification, then retry with hedging —
/// each layer optional as `policy` says.
fn resilience_stack(
    wan: Arc<CloudStore>,
    plan: FaultPlan,
    policy: &EndpointPolicy,
    clock: &SimClock,
    ep_obs: &Obs,
) -> Result<Arc<dyn ObjectStore>> {
    let mut stack: Arc<dyn ObjectStore> =
        Arc::new(FaultStore::new(wan, plan, clock.clone())?.with_obs(ep_obs));
    if let Some(breaker) = policy.breaker {
        stack = Arc::new(BreakerStore::new(stack, breaker, clock.clone())?.with_obs(ep_obs));
    }
    if policy.verify_checksums {
        stack = Arc::new(IntegrityStore::new(stack).with_obs(ep_obs));
    }
    let mut retry = RetryStore::new(stack, policy.retry, clock.clone())?;
    if let Some(hedge) = policy.hedge {
        retry = retry.with_hedging(hedge)?;
    }
    Ok(Arc::new(retry.with_obs(ep_obs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_client_has_three_endpoints() {
        let c = NsdfClient::simulated(1);
        assert_eq!(c.endpoint_names(), vec!["dataverse", "local", "seal"]);
        assert_eq!(c.endpoint("local").unwrap().kind, EndpointKind::Local);
        assert_eq!(c.endpoint("seal").unwrap().kind, EndpointKind::PrivateCloud);
        assert!(c.endpoint("gcs").unwrap_err().is_not_found());
    }

    #[test]
    fn upload_download_roundtrip_charges_time_on_remote() {
        let c = NsdfClient::simulated(2);
        let t0 = c.clock().now_ns();
        c.upload("local", "a", b"payload").unwrap();
        assert_eq!(c.clock().now_ns(), t0, "local is free");
        c.upload("seal", "a", &vec![0u8; 1 << 20]).unwrap();
        assert!(c.clock().now_ns() > t0, "seal upload costs virtual time");
        assert_eq!(c.download("seal", "a").unwrap().len(), 1 << 20);
    }

    #[test]
    fn transfer_moves_between_endpoints() {
        let c = NsdfClient::simulated(3);
        c.upload("dataverse", "dem.tif", b"tiff-bytes").unwrap();
        let n = c.transfer("dataverse", "dem.tif", "local", "scratch/dem.tif").unwrap();
        assert_eq!(n, 10);
        assert_eq!(c.download("local", "scratch/dem.tif").unwrap(), b"tiff-bytes");
    }

    #[test]
    fn remote_reads_are_cached() {
        let c = NsdfClient::simulated(4);
        c.upload("seal", "blob", &vec![7u8; 4 << 20]).unwrap();
        let t0 = c.clock().now_ns();
        c.download("seal", "blob").unwrap(); // warm (put populated cache)
        assert_eq!(c.clock().now_ns(), t0, "cached read skips the WAN");
    }

    #[test]
    fn endpoints_share_one_namespaced_registry() {
        let c = NsdfClient::simulated(9);
        c.upload("seal", "a", &vec![0u8; 1 << 20]).unwrap();
        c.upload("dataverse", "b", &vec![0u8; 1 << 20]).unwrap();
        c.download("seal", "a").unwrap(); // cache hit, no WAN
        let snap = c.obs().snapshot();
        assert_eq!(snap.counter("seal.wan.bytes_up"), 1 << 20);
        assert_eq!(snap.counter("dataverse.wan.bytes_up"), 1 << 20);
        assert_eq!(snap.counter("seal.cache.hits"), 1);
        assert_eq!(snap.counter("seal.wan.read_ops"), 0);
        // WAN busy time across both endpoints mirrors the shared clock.
        assert_eq!(
            snap.counter("seal.wan.busy_vns") + snap.counter("dataverse.wan.busy_vns"),
            c.clock().now_ns()
        );
    }

    #[test]
    fn deterministic_virtual_time() {
        let run = |seed| {
            let c = NsdfClient::simulated(seed);
            c.upload("dataverse", "x", &vec![1u8; 123_456]).unwrap();
            c.transfer("dataverse", "x", "seal", "x").unwrap();
            c.clock().now_ns()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn chaos_client_masks_faults_behind_the_stack() {
        let plan = FaultPlan::new(41).with_fault_rate(0.2).with_corrupt_rate(0.05);
        let policy = EndpointPolicy {
            retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
            ..EndpointPolicy::default()
        };
        let c = NsdfClient::simulated_chaos(5, &plan, &policy).unwrap();
        // Writes and reads succeed despite a 20% injected fault rate: the
        // retry/hedge layers absorb the failures.
        for i in 0..20 {
            let key = format!("obj/{i}");
            c.upload("seal", &key, &vec![i as u8; 32 << 10]).unwrap();
        }
        for i in 0..20 {
            let key = format!("obj/{i}");
            assert_eq!(c.download("seal", &key).unwrap(), vec![i as u8; 32 << 10]);
        }
        let snap = c.obs().snapshot();
        assert!(snap.counter("seal.fault.injected") > 0, "faults were actually injected");
        assert!(snap.counter("seal.retry.retries") > 0, "retries absorbed them");
    }

    #[test]
    fn chaos_stack_batched_writes_survive_write_faults() {
        use nsdf_storage::FailScope;
        let plan = FaultPlan::new(77)
            .with_scope(FailScope::Writes)
            .with_fault_rate(0.2)
            .with_corrupt_rate(0.05);
        let policy = EndpointPolicy {
            retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
            ..EndpointPolicy::default()
        };
        let c = NsdfClient::simulated_chaos(5, &plan, &policy).unwrap();
        let store = c.store("seal").unwrap();
        let keys: Vec<String> = (0..32).map(|i| format!("batch/{i}")).collect();
        let payloads: Vec<Vec<u8>> = (0..32).map(|i| vec![i as u8; 8 << 10]).collect();
        let items: Vec<(&str, &[u8])> =
            keys.iter().zip(&payloads).map(|(k, d)| (k.as_str(), d.as_slice())).collect();
        let metas = store.put_many(&items);
        assert!(metas.iter().all(|m| m.is_ok()), "retry + integrity absorb write faults");
        for (k, d) in &items {
            assert_eq!(&store.get(k).unwrap(), d, "stored bytes are the clean payload");
        }
        let snap = c.obs().snapshot();
        assert!(snap.counter("seal.fault.injected") > 0, "write faults were injected");
        assert!(snap.counter("seal.retry.retries") > 0, "the retry layer absorbed them");
    }

    #[test]
    fn chaos_endpoints_fail_independently_but_deterministically() {
        let run = || {
            let plan = FaultPlan::new(23).with_fault_rate(0.3);
            let c = NsdfClient::simulated_chaos(9, &plan, &EndpointPolicy::default()).unwrap();
            c.upload("dataverse", "x", &vec![1u8; 64 << 10]).unwrap();
            c.transfer("dataverse", "x", "seal", "x").unwrap();
            let snap = c.obs().snapshot();
            (
                c.clock().now_ns(),
                snap.counter("dataverse.fault.injected"),
                snap.counter("seal.fault.injected"),
                snap.to_json(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "chaos stack is fully seed-deterministic");
        // Per-endpoint seed salting: same plan, different draw streams.
        let key = |ep: &str| {
            let plan = FaultPlan::new(23).with_fault_rate(0.5);
            let c = NsdfClient::simulated_chaos(9, &plan, &EndpointPolicy::default()).unwrap();
            (0..16).map(|i| c.upload(ep, &format!("k{i}"), b"x").is_ok()).collect::<Vec<_>>()
        };
        assert_ne!(key("dataverse"), key("seal"), "endpoints draw independent fault streams");
    }

    #[test]
    fn tiered_client_restart_serves_warm_disk_with_zero_wan_reads() {
        let disk = Arc::new(MemoryStore::new());
        let payload = vec![42u8; 1 << 20];
        {
            let c = NsdfClient::simulated_tiered(11, Arc::clone(&disk) as Arc<dyn ObjectStore>)
                .unwrap();
            c.upload("seal", "warm/blob", &payload).unwrap();
            // The write-through persisted a shard; nothing read the WAN.
            assert!(c.tiercache("seal").unwrap().tier_stats().disk_resident_bytes > 0);
            assert_eq!(c.obs().snapshot().counter("seal.wan.read_ops"), 0);
        }
        // "Restart": a new client (fresh clock, fresh WAN without the
        // object) over the same disk store.
        let c2 =
            NsdfClient::simulated_tiered(12, Arc::clone(&disk) as Arc<dyn ObjectStore>).unwrap();
        let t0 = c2.clock().now_ns();
        assert_eq!(c2.download("seal", "warm/blob").unwrap(), payload);
        assert_eq!(c2.obs().snapshot().counter("seal.wan.read_ops"), 0, "served from disk tier");
        assert_eq!(c2.clock().now_ns(), t0, "warm-disk read costs no WAN virtual time");
        let stats = c2.tiercache("seal").unwrap().tier_stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.lookups, stats.ram_hits + stats.disk_hits + stats.wan_fetches);
        // Endpoint namespaces keep tiers disjoint: dataverse never sees it.
        assert!(c2.download("dataverse", "warm/blob").is_err());
        assert_eq!(c2.tiercache("dataverse").unwrap().tier_stats().disk_hits, 0);
    }

    #[test]
    fn chaos_breaker_opens_during_outage() {
        let plan = FaultPlan::new(3).outage(5.0, 60.0);
        let policy = EndpointPolicy {
            breaker: Some(BreakerPolicy {
                failure_threshold: 2,
                cooldown_secs: 10.0,
                success_threshold: 1,
            }),
            hedge: None,
            // No read cache: every download must cross the WAN, so the
            // outage is visible to the breaker.
            cache_bytes: 0,
            ..EndpointPolicy::default()
        };
        let c = NsdfClient::simulated_chaos(1, &plan, &policy).unwrap();
        c.upload("seal", "a", b"payload").unwrap();
        c.clock().advance_secs(10.0);
        // Enough failing reads to trip the breaker (each burns 3 attempts).
        for _ in 0..4 {
            assert!(c.download("seal", "a").is_err());
        }
        let snap = c.obs().snapshot();
        assert!(snap.counter("seal.breaker.opened") >= 1, "breaker opened during outage");
        assert!(snap.counter("seal.breaker.fast_failures") > 0, "open breaker shed requests");
        assert_eq!(snap.counter("dataverse.breaker.opened"), 0, "dataverse untouched");
    }
}
