//! A timing wrapper the benchmark puts around every `ObjectStore` handle it
//! creates or passes in, so a layer's wall time and operation counts are
//! measured from outside the program.

use nsdf_storage::{ObjectMeta, ObjectStore};
use nsdf_util::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Operation counts and wall time seen by one [`TimedStore`].
#[derive(Debug, Default)]
pub struct IoStats {
    calls: AtomicU64,
    get_ops: AtomicU64,
    get_ns: AtomicU64,
    put_ops: AtomicU64,
    put_ns: AtomicU64,
    bytes_written: AtomicU64,
    watched_calls: AtomicU64,
}

/// A frozen copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoSnapshot {
    /// Trait calls of any kind.
    pub calls: u64,
    /// Objects read (a `get_many` of n keys counts n).
    pub get_ops: u64,
    /// Wall seconds inside read calls.
    pub get_wall_s: f64,
    /// Objects written.
    pub put_ops: u64,
    /// Wall seconds inside write calls.
    pub put_wall_s: f64,
    /// Payload bytes written.
    pub bytes_written: u64,
    /// Calls that named the watched key (see [`TimedStore::watching`]).
    pub watched_calls: u64,
}

impl IoSnapshot {
    /// Activity of `self` and `other` together.
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            calls: self.calls + other.calls,
            get_ops: self.get_ops + other.get_ops,
            get_wall_s: self.get_wall_s + other.get_wall_s,
            put_ops: self.put_ops + other.put_ops,
            put_wall_s: self.put_wall_s + other.put_wall_s,
            bytes_written: self.bytes_written + other.bytes_written,
            watched_calls: self.watched_calls + other.watched_calls,
        }
    }
}

impl IoStats {
    /// Current totals.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            calls: self.calls.load(Ordering::Relaxed),
            get_ops: self.get_ops.load(Ordering::Relaxed),
            get_wall_s: self.get_ns.load(Ordering::Relaxed) as f64 / 1e9,
            put_ops: self.put_ops.load(Ordering::Relaxed),
            put_wall_s: self.put_ns.load(Ordering::Relaxed) as f64 / 1e9,
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            watched_calls: self.watched_calls.load(Ordering::Relaxed),
        }
    }
}

/// Encoded IDX block payloads copied from the writes a [`TimedStore`] saw,
/// for replaying the codec on the workload's own stored blocks.
#[derive(Debug, Default)]
pub struct BlockCapture {
    budget: u64,
    blocks: Mutex<Vec<Vec<u8>>>,
    bytes: AtomicU64,
}

impl BlockCapture {
    /// Keep at most `budget` bytes of block payloads.
    pub fn new(budget: u64) -> Arc<BlockCapture> {
        Arc::new(BlockCapture { budget, ..BlockCapture::default() })
    }

    fn offer(&self, key: &str, data: &[u8]) {
        if !key.ends_with(".bin") || self.bytes.load(Ordering::Relaxed) >= self.budget {
            return;
        }
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.blocks.lock().expect("capture lock poisoned").push(data.to_vec());
    }

    /// The captured payloads, in write order.
    pub fn take(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut *self.blocks.lock().expect("capture lock poisoned"))
    }
}

/// A store handle and, when timed, the stats of its wrapper.
pub type Wrapped = (Arc<dyn ObjectStore>, Option<Arc<IoStats>>);

/// Pass-through `ObjectStore` that times every call.
pub struct TimedStore {
    inner: Arc<dyn ObjectStore>,
    stats: Arc<IoStats>,
    capture: Option<Arc<BlockCapture>>,
    watch: Option<String>,
}

impl TimedStore {
    /// Wrap `inner`; the returned stats handle stays valid after the store
    /// is moved into the program.
    pub fn wrap(inner: Arc<dyn ObjectStore>) -> (Arc<dyn ObjectStore>, Arc<IoStats>) {
        let stats = Arc::new(IoStats::default());
        let store = TimedStore { inner, stats: Arc::clone(&stats), capture: None, watch: None };
        (Arc::new(store), stats)
    }

    /// Like [`TimedStore::wrap`], also counting the calls that name `key`
    /// in [`IoSnapshot::watched_calls`].
    pub fn watching(
        inner: Arc<dyn ObjectStore>,
        key: &str,
    ) -> (Arc<dyn ObjectStore>, Arc<IoStats>) {
        let stats = Arc::new(IoStats::default());
        let watch = Some(key.to_string());
        let store = TimedStore { inner, stats: Arc::clone(&stats), capture: None, watch };
        (Arc::new(store), stats)
    }

    /// [`TimedStore::wrap`] when `traced`; otherwise `inner` untouched.
    pub fn wrap_if(traced: bool, inner: Arc<dyn ObjectStore>) -> Wrapped {
        if traced {
            let (store, io) = TimedStore::wrap(inner);
            (store, Some(io))
        } else {
            (inner, None)
        }
    }

    /// Like [`TimedStore::wrap`], also copying written block payloads into
    /// `capture`.
    pub fn capturing(
        inner: Arc<dyn ObjectStore>,
        capture: Arc<BlockCapture>,
    ) -> (Arc<dyn ObjectStore>, Arc<IoStats>) {
        let stats = Arc::new(IoStats::default());
        let store =
            TimedStore { inner, stats: Arc::clone(&stats), capture: Some(capture), watch: None };
        (Arc::new(store), stats)
    }

    /// Count a call that names the watched key among `keys`.
    fn touch<'k>(&self, mut keys: impl Iterator<Item = &'k str>) {
        if let Some(watch) = &self.watch {
            if keys.any(|k| k == watch) {
                self.stats.watched_calls.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn read<R>(&self, keys: &[&str], f: impl FnOnce() -> R) -> R {
        self.touch(keys.iter().copied());
        let t = Instant::now();
        let out = f();
        self.stats.get_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.get_ops.fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn write<R>(&self, items: &[(&str, &[u8])], f: impl FnOnce() -> R) -> R {
        self.touch(items.iter().map(|(k, _)| *k));
        if let Some(capture) = &self.capture {
            for (key, data) in items {
                capture.offer(key, data);
            }
        }
        let t = Instant::now();
        let out = f();
        self.stats.put_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.put_ops.fetch_add(items.len() as u64, Ordering::Relaxed);
        let bytes: usize = items.iter().map(|(_, d)| d.len()).sum();
        self.stats.bytes_written.fetch_add(bytes as u64, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn other<R>(&self, keys: &[&str], f: impl FnOnce() -> R) -> R {
        self.touch(keys.iter().copied());
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        f()
    }
}

impl ObjectStore for TimedStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<ObjectMeta> {
        self.write(&[(key, data)], || self.inner.put(key, data))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>> {
        self.read(&[key], || self.inner.get(key))
    }

    fn get_range(&self, key: &str, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.read(&[key], || self.inner.get_range(key, offset, len))
    }

    fn get_many(&self, keys: &[&str]) -> Vec<Result<Vec<u8>>> {
        self.read(keys, || self.inner.get_many(keys))
    }

    fn put_many(&self, items: &[(&str, &[u8])]) -> Vec<Result<ObjectMeta>> {
        self.write(items, || self.inner.put_many(items))
    }

    fn head(&self, key: &str) -> Result<ObjectMeta> {
        self.other(&[key], || self.inner.head(key))
    }

    fn head_many(&self, keys: &[&str]) -> Vec<Result<ObjectMeta>> {
        self.other(keys, || self.inner.head_many(keys))
    }

    fn list(&self, prefix: &str) -> Result<Vec<ObjectMeta>> {
        self.other(&[], || self.inner.list(prefix))
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.other(&[key], || self.inner.delete(key))
    }

    fn exists(&self, key: &str) -> Result<bool> {
        self.other(&[key], || self.inner.exists(key))
    }

    fn describe(&self) -> String {
        format!("timed({})", self.inner.describe())
    }
}
