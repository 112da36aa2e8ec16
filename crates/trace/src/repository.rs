//! Trace repository: a directory of `.replay` files named by workload mode.
//!
//! The paper's workload generator stores every collected trace in a
//! repository; "the name of each trace file implies important information such
//! as storage device type, request size, random rate, and read rate"
//! (§III-A2). The replay module later asks the repository for the trace that
//! matches the workload mode configured at the evaluation host.
//!
//! # One format written, every format read
//!
//! Every store writes the columnar v3 format ([`crate::v3`]) through an
//! atomic temp-file-plus-rename. Every load hands out one representation, a
//! [`TraceHandle`] (a shared [`TraceView`]): a v3 file is mapped in place, and
//! a legacy v1/v2 file (written by older releases) is decoded once and
//! encoded into an in-memory v3 image. `tracer convert --file` migrates a
//! legacy file to v3 in place.
//!
//! # Cache
//!
//! The repository keeps a bounded in-process cache over everything it hands
//! out: one map from path to [`TraceHandle`], each entry charged the length
//! of its image. When the cache would exceed its budget the
//! least-recently-used entries are evicted (the entry being inserted is never
//! evicted, so a single over-budget trace still loads). Every entry records
//! the identity of the file it was read from — device, inode, size, and
//! mtime — and a load checks it before using the entry, so a file replaced
//! behind the repository's back is detected on the next load and the stale
//! entry is dropped, while live replays keep their mapping of the old inode.
//!
//! Cache behaviour is observable through `tracer-obs`: gauges
//! `repo.views_open` and `repo.cache_bytes` track the mapped views cached and
//! the accounted bytes, and counter `repo.evictions` counts LRU evictions.

use crate::error::TraceError;
use crate::mode::WorkloadMode;
use crate::replay_format;
use crate::source::{BunchSource, TraceHandle};
use crate::v3::{self, TraceView};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// File extension used for stored traces.
pub const EXTENSION: &str = "replay";

/// Default cache budget: 256 MiB of accounted bytes.
pub const DEFAULT_CACHE_BUDGET: usize = 256 * 1024 * 1024;

/// Identity of an on-disk file, used to validate cached views.
///
/// All stores go through an atomic temp-file-plus-rename, so a replaced trace
/// always has a fresh inode; comparing the full tuple catches both that and
/// in-place edits by external tools (size/mtime change).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileId {
    dev: u64,
    ino: u64,
    size: u64,
    mtime: i64,
    mtime_nsec: i64,
}

impl FileId {
    fn of(path: &Path) -> io::Result<Self> {
        let meta = fs::metadata(path)?;
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            Ok(Self {
                dev: meta.dev(),
                ino: meta.ino(),
                size: meta.len(),
                mtime: meta.mtime(),
                mtime_nsec: meta.mtime_nsec(),
            })
        }
        #[cfg(not(unix))]
        {
            let mtime = meta
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .unwrap_or_default();
            Ok(Self {
                dev: 0,
                ino: 0,
                size: meta.len(),
                mtime: mtime.as_secs() as i64,
                mtime_nsec: i64::from(mtime.subsec_nanos()),
            })
        }
    }
}

/// One cached view plus the identity of the file it was read from.
#[derive(Debug)]
struct CacheEntry {
    handle: TraceHandle,
    id: FileId,
    used: u64,
}

/// LRU over every handle the repository has handed out.
#[derive(Debug)]
struct CacheState {
    entries: BTreeMap<PathBuf, CacheEntry>,
    /// Logical clock; bumped on every hit or insert. Entries carry the clock
    /// value of their last use, making "least recently used" a min() scan.
    clock: u64,
    /// Accounted bytes across all entries.
    bytes: usize,
    budget: usize,
    evictions: u64,
}

impl CacheState {
    fn new(budget: usize) -> Self {
        Self { entries: BTreeMap::new(), clock: 0, bytes: 0, budget, evictions: 0 }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Return the cached handle for `path` iff its recorded file identity
    /// still matches `id`; a mismatched (stale) entry is dropped.
    fn get(&mut self, path: &Path, id: FileId) -> Option<TraceHandle> {
        let stamp = self.tick();
        match self.entries.get_mut(path) {
            Some(hit) if hit.id == id => {
                hit.used = stamp;
                Some(hit.handle.clone())
            }
            Some(_) => {
                self.remove(path);
                self.publish();
                None
            }
            None => None,
        }
    }

    /// Cache `handle`, charged the length of its image.
    fn insert(&mut self, path: PathBuf, handle: TraceHandle, id: FileId) {
        let stamp = self.tick();
        self.remove(&path);
        self.bytes += handle.mapped_len();
        self.entries.insert(path.clone(), CacheEntry { handle, id, used: stamp });
        self.evict_to_budget(&path);
        self.publish();
    }

    /// Drop `path`'s entry, fixing byte accounting.
    fn remove(&mut self, path: &Path) {
        if let Some(old) = self.entries.remove(path) {
            self.bytes -= old.handle.mapped_len();
        }
    }

    /// Evict least-recently-used entries until the budget holds, never
    /// touching `keep` (the entry that triggered the pass).
    fn evict_to_budget(&mut self, keep: &Path) {
        while self.bytes > self.budget {
            let victim = self
                .entries
                .iter()
                .filter(|(p, _)| p.as_path() != keep)
                .min_by_key(|(_, e)| e.used)
                .map(|(p, _)| p.clone());
            let Some(victim) = victim else { break };
            self.remove(&victim);
            self.evictions += 1;
            tracer_obs::counter("repo.evictions").incr();
        }
    }

    fn views_open(&self) -> usize {
        self.entries.values().filter(|e| e.handle.is_mapped()).count()
    }

    /// Push the current occupancy into the obs gauges. Called on every cache
    /// mutation — these are cold paths (file loads and stores), so the
    /// registry lookups and the entry scan are negligible next to the I/O
    /// they accompany.
    fn publish(&self) {
        tracer_obs::gauge("repo.views_open").set(self.views_open() as u64);
        tracer_obs::gauge("repo.cache_bytes").set(self.bytes as u64);
    }
}

/// A directory-backed trace repository.
///
/// Stores write the columnar v3 format; [`TraceRepository::load_view`] /
/// [`TraceRepository::load_view_named`] negotiate the on-disk format and
/// return a shared [`TraceView`] that replays without materializing bunches:
/// mapped for a v3 file, an in-memory v3 image for a legacy v1/v2 file. All
/// sit in one in-process cache, so a sweep asking for the same trace
/// for every one of its cells opens the file once and shares one immutable
/// copy across all workers. Stores invalidate the cached entry for the
/// written path.
#[derive(Debug)]
pub struct TraceRepository {
    root: PathBuf,
    cache: Mutex<CacheState>,
}

/// A catalogue entry: device prefix, workload mode, and file path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Device prefix extracted from the file name.
    pub device: String,
    /// Workload mode encoded in the file name (load = 100 %).
    pub mode: WorkloadMode,
    /// Absolute path of the `.replay` file.
    pub path: PathBuf,
}

impl TraceRepository {
    /// Open (creating if necessary) a repository rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, TraceError> {
        Self::with_cache_budget(root, DEFAULT_CACHE_BUDGET)
    }

    /// Open a repository with an explicit cache budget in bytes. A budget of
    /// zero still serves every load (the freshly inserted entry is exempt
    /// from eviction) but caches nothing across calls.
    pub fn with_cache_budget(root: impl Into<PathBuf>, budget: usize) -> Result<Self, TraceError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        // Touch the cache metrics so a schema check with `--require` sees
        // them even before the first load.
        tracer_obs::gauge("repo.views_open");
        tracer_obs::gauge("repo.cache_bytes");
        tracer_obs::counter("repo.evictions");
        Ok(Self { root, cache: Mutex::new(CacheState::new(budget)) })
    }

    /// The repository root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path a trace for (`device`, `mode`) is stored at.
    pub fn path_for(&self, device: &str, mode: &WorkloadMode) -> PathBuf {
        self.root.join(format!("{}.{EXTENSION}", mode.file_stem(device)))
    }

    fn path_named(&self, name: &str) -> PathBuf {
        self.root.join(format!("{name}.{EXTENSION}"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        self.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Store a trace in the columnar v3 format under the naming convention.
    /// Any [`BunchSource`] stores: an owned [`crate::Trace`] is encoded, an
    /// in-memory [`TraceView`] (the collector's output) is written as the
    /// bytes it already is. Overwrites silently, as the collector re-collects
    /// traces for the same mode. Subsequent [`TraceRepository::load_view`]
    /// calls for the same mode replay it straight from the mapped file.
    pub fn store_v3<S: BunchSource + ?Sized>(
        &self,
        mode: &WorkloadMode,
        trace: &S,
    ) -> Result<PathBuf, TraceError> {
        let path = self.path_for(trace.device(), mode);
        v3::write_file(trace, &path)?;
        self.invalidate(&path);
        Ok(path)
    }

    /// Store a trace in the columnar v3 format under an explicit free-form
    /// name (used for real-world traces such as converted cello files, which
    /// have no mode vector).
    pub fn store_v3_named<S: BunchSource + ?Sized>(
        &self,
        name: &str,
        trace: &S,
    ) -> Result<PathBuf, TraceError> {
        let path = self.path_named(name);
        v3::write_file(trace, &path)?;
        self.invalidate(&path);
        Ok(path)
    }

    /// Load the trace for (`device`, `mode`), negotiating the on-disk format.
    ///
    /// A v3 file comes back as an mmap-backed view replayed with zero bunch
    /// materialization; a legacy v1/v2 file is decoded once and encoded into
    /// an in-memory v3 image. A caller that needs an owned
    /// [`Trace`](crate::Trace) calls [`TraceView::to_trace`]. Handles are
    /// cached keyed by file identity, so replacing the file (all stores are
    /// atomic renames) transparently reloads on the next call.
    pub fn load_view(&self, device: &str, mode: &WorkloadMode) -> Result<TraceHandle, TraceError> {
        self.open_handle(&self.path_for(device, mode), || mode.file_stem(device))
    }

    /// Load a free-form-named trace, negotiating the on-disk format (see
    /// [`TraceRepository::load_view`]).
    pub fn load_view_named(&self, name: &str) -> Result<TraceHandle, TraceError> {
        self.open_handle(&self.path_named(name), || name.to_string())
    }

    /// Format-negotiating, cached open. A hit is validated against the file's
    /// current identity before anything else; only a miss sniffs the version
    /// and reads the file — v3 mapped, v1/v2 decoded and re-encoded as v3.
    fn open_handle(
        &self,
        path: &Path,
        missing: impl FnOnce() -> String,
    ) -> Result<TraceHandle, TraceError> {
        let id = match FileId::of(path) {
            Ok(id) => id,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Err(TraceError::NotFound(missing()))
            }
            Err(e) => return Err(e.into()),
        };
        if let Some(hit) = self.lock().get(path, id) {
            return Ok(hit);
        }
        let handle = Arc::new(if peek_version(path)? == v3::VERSION {
            TraceView::open(path)?
        } else {
            TraceView::from_trace(&replay_format::read_file(path)?)?
        });
        self.lock().insert(path.to_path_buf(), handle.clone(), id);
        Ok(handle)
    }

    /// Drop the cached handle for `path` (called on every store).
    fn invalidate(&self, path: &Path) {
        let mut cache = self.lock();
        cache.remove(path);
        cache.publish();
    }

    /// Bytes currently accounted to the cache (the images of its views).
    pub fn cache_bytes(&self) -> usize {
        self.lock().bytes
    }

    /// Number of mmap-backed views currently cached.
    pub fn views_open(&self) -> usize {
        self.lock().views_open()
    }

    /// LRU evictions performed since the repository was opened.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// `true` if a trace for (`device`, `mode`) is present.
    pub fn contains(&self, device: &str, mode: &WorkloadMode) -> bool {
        self.path_for(device, mode).exists()
    }

    /// Enumerate all mode-named traces in the repository, sorted by file name.
    /// Files whose names do not follow the convention are skipped (they may be
    /// free-form real-world traces).
    pub fn catalog(&self) -> Result<Vec<CatalogEntry>, TraceError> {
        let mut entries = BTreeMap::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            if let Ok((device, mode)) = WorkloadMode::parse_stem(stem) {
                entries.insert(stem.to_string(), CatalogEntry { device, mode, path });
            }
        }
        Ok(entries.into_values().collect())
    }
}

/// Read just the shared header's version field without decoding the body.
fn peek_version(path: &Path) -> Result<u16, TraceError> {
    let mut head = [0u8; 6];
    let mut file = fs::File::open(path)?;
    file.read_exact(&mut head)
        .map_err(|_| TraceError::Corrupt("file shorter than the shared header".into()))?;
    if head[..4] != replay_format::MAGIC {
        let mut magic = [0u8; 4];
        magic.copy_from_slice(&head[..4]);
        return Err(TraceError::BadMagic(magic));
    }
    Ok(u16::from_le_bytes([head[4], head[5]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Bunch, IoPackage, Trace};

    fn tmp_repo(tag: &str) -> TraceRepository {
        let dir = std::env::temp_dir().join(format!("tracer_repo_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        TraceRepository::open(dir).unwrap()
    }

    fn tiny_trace(device: &str) -> Trace {
        Trace::from_bunches(device, vec![Bunch::new(0, vec![IoPackage::read(0, 4096)])])
    }

    /// Write `trace` as a legacy v2 file, the way an older release stored it.
    fn store_legacy(repo: &TraceRepository, name: &str, trace: &Trace) {
        let path = repo.root().join(format!("{name}.{EXTENSION}"));
        replay_format::write_bytes_atomic(&crate::compact::to_bytes(trace), &path).unwrap();
    }

    #[test]
    fn store_and_load_by_mode() {
        let repo = tmp_repo("mode");
        let mode = WorkloadMode::peak(4096, 50, 0);
        let t = tiny_trace("raid5");
        let path = repo.store_v3(&mode, &t).unwrap();
        assert!(path.file_name().unwrap().to_str().unwrap().contains("rs4096"));
        assert!(repo.contains("raid5", &mode));
        let back = repo.load_view("raid5", &mode).unwrap();
        assert!(back.is_view(), "stores write v3");
        assert_eq!(back.to_trace().unwrap(), t);
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn missing_trace_is_not_found() {
        let repo = tmp_repo("missing");
        let mode = WorkloadMode::peak(512, 0, 0);
        assert!(!repo.contains("x", &mode));
        assert!(matches!(repo.load_view("x", &mode), Err(TraceError::NotFound(_))));
        assert!(matches!(repo.load_view_named("webserver"), Err(TraceError::NotFound(_))));
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn catalog_lists_mode_traces_and_named_lists_rest() {
        let repo = tmp_repo("catalog");
        for (size, rnd, rd) in [(512u32, 0u8, 0u8), (4096, 50, 25)] {
            let mode = WorkloadMode::peak(size, rnd, rd);
            repo.store_v3(&mode, &tiny_trace("raid5")).unwrap();
        }
        repo.store_v3_named("cello99_week1", &tiny_trace("cello")).unwrap();

        let cat = repo.catalog().unwrap();
        assert_eq!(cat.len(), 2);
        assert!(cat.iter().all(|e| e.device == "raid5"));

        let back = repo.load_view_named("cello99_week1").unwrap();
        assert_eq!(back.device(), "cello");
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn shared_loads_hand_out_one_arc_until_a_store_invalidates() {
        let repo = tmp_repo("shared");
        let mode = WorkloadMode::peak(4096, 50, 0);
        repo.store_v3(&mode, &tiny_trace("raid5")).unwrap();

        let a = repo.load_view("raid5", &mode).unwrap();
        let b = repo.load_view("raid5", &mode).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache must share one allocation");
        assert_eq!(a.to_trace().unwrap(), tiny_trace("raid5"));

        // Re-storing the same path must invalidate the cached handle.
        let other =
            Trace::from_bunches("raid5", vec![Bunch::new(7, vec![IoPackage::write(64, 8192)])]);
        repo.store_v3(&mode, &other).unwrap();
        let c = repo.load_view("raid5", &mode).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "store must drop the stale entry");
        assert_eq!(c.to_trace().unwrap(), other);

        repo.store_v3_named("freeform", &tiny_trace("cello")).unwrap();
        let n1 = repo.load_view_named("freeform").unwrap();
        let n2 = repo.load_view_named("freeform").unwrap();
        assert!(Arc::ptr_eq(&n1, &n2));
        assert!(matches!(repo.load_view_named("absent"), Err(TraceError::NotFound(_))));
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn catalog_ignores_foreign_files() {
        let repo = tmp_repo("foreign");
        fs::write(repo.root().join("notes.txt"), "hi").unwrap();
        fs::write(repo.root().join("junk.replay"), "not a trace").unwrap();
        assert!(repo.catalog().unwrap().is_empty());
        // junk.replay has a stem that doesn't parse as a mode -> named trace,
        // but loading it reports corruption.
        assert!(repo.load_view_named("junk").is_err());
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn load_view_negotiates_the_on_disk_format() {
        let repo = tmp_repo("negotiate");
        let mode = WorkloadMode::peak(4096, 0, 0);
        let t = tiny_trace("raid5");

        // Legacy v2 file -> in-memory view, shared through the cache.
        store_legacy(&repo, &mode.file_stem("raid5"), &t);
        let h = repo.load_view("raid5", &mode).unwrap();
        assert!(!h.is_view());
        let again = repo.load_view("raid5", &mode).unwrap();
        assert!(Arc::ptr_eq(&h, &again));
        assert_eq!(h.to_trace().unwrap(), t);

        // v3 store over the same path -> view handle, old entry invalidated.
        repo.store_v3(&mode, &t).unwrap();
        let v = repo.load_view("raid5", &mode).unwrap();
        assert!(v.is_view());
        assert_eq!(repo.views_open(), 1);
        let v2 = repo.load_view("raid5", &mode).unwrap();
        assert!(Arc::ptr_eq(&v, &v2), "view cache must share one mapping");
        assert_eq!(v.to_trace().unwrap(), t);

        // Named v3 stores round-trip too.
        repo.store_v3_named("colv3", &t).unwrap();
        let n = repo.load_view_named("colv3").unwrap();
        assert!(n.is_view());
        assert_eq!(n.to_trace().unwrap(), t);
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn stale_views_are_dropped_when_the_file_is_replaced() {
        let repo = tmp_repo("stale");
        let t = tiny_trace("dev");
        repo.store_v3_named("w", &t).unwrap();
        let first = repo.load_view_named("w").unwrap();

        // Replace the file behind the repository's back (no invalidate call):
        // the identity check must still notice the new inode.
        let other = Trace::from_bunches("dev", vec![Bunch::new(9, vec![IoPackage::write(8, 512)])]);
        v3::write_file(&other, &repo.root().join("w.replay")).unwrap();
        let second = repo.load_view_named("w").unwrap();
        assert_eq!(second.to_trace().unwrap(), other);
        // The old mapping stays valid for holders of the first handle.
        assert_eq!(first.to_trace().unwrap(), t);
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn stale_legacy_traces_are_dropped_when_the_file_is_replaced() {
        let repo = tmp_repo("stale_legacy");
        let a = tiny_trace("dev");
        let b = Trace::from_bunches("dev", vec![Bunch::new(9, vec![IoPackage::write(8, 512)])]);
        let path = repo.root().join("w.replay");
        replay_format::write_bytes_atomic(&replay_format::to_bytes(&a), &path).unwrap();
        let first = repo.load_view_named("w").unwrap();
        assert_eq!(first.to_trace().unwrap(), a);

        // Same replacement as above, but of a decoded legacy entry.
        replay_format::write_bytes_atomic(&replay_format::to_bytes(&b), &path).unwrap();
        let second = repo.load_view_named("w").unwrap();
        assert_eq!(second.to_trace().unwrap(), b, "a replaced legacy file must not load stale");
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn cache_accounts_bytes_and_evicts_least_recently_used() {
        let repo_dir = std::env::temp_dir().join(format!("tracer_repo_lru_{}", std::process::id()));
        let _ = fs::remove_dir_all(&repo_dir);
        // Budget fits one tiny trace's image, forcing eviction on the
        // second distinct load.
        let budget = TraceView::from_trace(&tiny_trace("d")).unwrap().mapped_len() + 16;
        let repo = TraceRepository::with_cache_budget(&repo_dir, budget).unwrap();

        store_legacy(&repo, "a", &tiny_trace("d"));
        store_legacy(&repo, "b", &tiny_trace("d"));
        let a = repo.load_view_named("a").unwrap();
        let before = repo.cache_bytes();
        assert!(before > 0);
        let _b = repo.load_view_named("b").unwrap();
        assert_eq!(repo.evictions(), 1, "loading b must evict a");
        // Evicting `a` means a reload decodes afresh (different Arc).
        let a2 = repo.load_view_named("a").unwrap();
        assert!(!Arc::ptr_eq(&a, &a2));

        // Mapped views participate in the same accounting.
        repo.store_v3_named("v", &tiny_trace("d")).unwrap();
        let h = repo.load_view_named("v").unwrap();
        assert!(h.is_view());
        assert!(repo.evictions() >= 2, "view insert must evict the older trace");
        // The budget fits one image, so the view is the only survivor (the
        // just-inserted entry is exempt from eviction).
        assert_eq!(repo.cache_bytes(), h.mapped_len());
        assert_eq!(repo.views_open(), 1);
        fs::remove_dir_all(repo.root()).unwrap();
    }

    #[test]
    fn zero_budget_repo_still_serves_views() {
        let dir = std::env::temp_dir().join(format!("tracer_repo_zb_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let repo = TraceRepository::with_cache_budget(&dir, 0).unwrap();
        repo.store_v3_named("w", &tiny_trace("d")).unwrap();
        let h = repo.load_view_named("w").unwrap();
        let mut n = 0usize;
        h.try_for_each_bunch(&mut |_, ios| n += ios.len()).unwrap();
        assert_eq!(n, 1);
        fs::remove_dir_all(repo.root()).unwrap();
    }
}
