//! Shared service state: the registry of unit systems and references
//! (an [`IntegrationPipeline`] behind a `RwLock`) plus the prepared-
//! crosswalk cache and the metrics. Registration takes the write lock;
//! the `/crosswalk` hot path only ever takes the read lock, and all
//! cache and metrics traffic is lock-free or sharded.

use crate::metrics::Metrics;
use geoalign_agg::AggState;
use geoalign_core::{
    persist, CoreError, CrosswalkKey, CrosswalkStore, DurableBacking, IntegrationPipeline,
    PreparedCrosswalk, ReferenceData,
};
use geoalign_obs::SpanRecord;
use geoalign_partition::DisaggregationMatrix;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// How many slowest requests `/debug/slow` retains.
pub const SLOW_RING_CAPACITY: usize = 16;

/// One retained slow request: the access-log facts plus the full span
/// records, so `/debug/slow` can render the span tree.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The request's trace ID.
    pub trace_id: String,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Total wall time in microseconds.
    pub duration_micros: u64,
    /// Every span finished while routing (ids/parents intact).
    pub spans: Vec<SpanRecord>,
}

/// The k-slowest-requests ring behind `/debug/slow`: kept sorted by
/// duration descending, evicting the fastest entry once full.
#[derive(Debug, Default)]
struct SlowRing {
    entries: Vec<SlowEntry>,
}

impl SlowRing {
    fn record(&mut self, entry: SlowEntry) {
        if self.entries.len() >= SLOW_RING_CAPACITY {
            let min = self.entries.last().map(|e| e.duration_micros).unwrap_or(0);
            if entry.duration_micros <= min {
                return;
            }
            self.entries.pop();
        }
        let at = self
            .entries
            .partition_point(|e| e.duration_micros >= entry.duration_micros);
        self.entries.insert(at, entry);
    }
}

/// Default number of prepared crosswalks the cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// A route override consulted before the built-in router (see
/// [`AppState::set_route_override`]): returns `Some(response)` to answer
/// the request itself, `None` to fall through to the built-in routes.
pub type RouteOverride =
    Arc<dyn Fn(&crate::http::Request) -> Option<crate::http::Response> + Send + Sync>;

/// One streaming reference fed by `/ingest`: its durable rollup key, its
/// position within the pair's reference list, the mergeable state every
/// batch so far has been folded into, and the sequence numbers of the
/// batch partials logged since its rollup was last written.
#[derive(Debug)]
struct IngestSlot {
    agg_index: u64,
    position: usize,
    state: AggState,
    /// The lowest partial `agg/<n>/<seq>` whose record may still be in
    /// the store: the next compaction deletes `first_seq..next_seq`.
    first_seq: u64,
    /// The sequence number the next batch's partial is logged under.
    next_seq: u64,
}

/// All streaming references, keyed by `(source, target, attribute)`.
#[derive(Debug, Default)]
struct IngestRegistry {
    slots: HashMap<(String, String, String), IngestSlot>,
    /// Next `agg/<nnnnnnnn>` key index — one past the highest replayed.
    next_index: u64,
}

/// What one `/ingest` batch did, for the response body.
#[derive(Debug)]
pub struct IngestOutcome {
    /// Points folded into the state this batch.
    pub absorbed: u64,
    /// Points skipped this batch (unknown unit ids).
    pub skipped: u64,
    /// Points folded across every batch so far.
    pub total_points: u64,
    /// Points skipped across every batch so far.
    pub total_skipped: u64,
    /// The streaming reference's position within the pair.
    pub position: usize,
    /// References registered for the pair after the fold.
    pub references_for_pair: usize,
    /// Whether a cached prepared crosswalk was refreshed in place through
    /// the incremental delta path (vs left for the next `/crosswalk`).
    pub incremental: bool,
    /// Design-matrix rows the incremental update touched.
    pub touched_rows: usize,
}

/// Everything the worker threads share.
pub struct AppState {
    pipeline: RwLock<IntegrationPipeline>,
    /// The prepared-crosswalk cache.
    pub cache: CrosswalkStore,
    /// Service metrics.
    pub metrics: Metrics,
    started: Instant,
    access_log: Mutex<Option<Box<dyn Write + Send>>>,
    /// The durable tier (`serve --data-dir`): registrations are written
    /// through synchronously, prepared crosswalks behind the cache.
    durable: Option<Arc<DurableBacking>>,
    /// Next `ref/<nnnnnnnn>` key index — one past the highest replayed.
    next_ref_index: AtomicU64,
    /// Streaming-ingest references. Lock order: pipeline write lock
    /// first, then this (only [`Self::ingest`] takes both).
    ingest: Mutex<IngestRegistry>,
    /// Whether `/debug/*` introspection routes answer (requires the
    /// `--debug-endpoints` flag; everything 404s otherwise).
    debug_endpoints: AtomicBool,
    /// The slowest requests seen so far, for `/debug/slow`. Only fed
    /// while debug endpoints are enabled.
    slow: Mutex<SlowRing>,
    /// The request pool's occupancy counters, set by the server at bind
    /// time; `/debug/threads` reads them.
    pool_stats: Mutex<Option<Arc<geoalign_exec::PoolStats>>>,
    /// Optional route override consulted before the built-in router —
    /// the cluster crate mounts its coordinator and standby front ends
    /// on the serve reactor through this hook.
    route_override: RwLock<Option<RouteOverride>>,
}

impl std::fmt::Debug for AppState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppState")
            .field("cache", &self.cache)
            .field("metrics", &self.metrics)
            .field("uptime_seconds", &self.uptime().as_secs())
            .finish_non_exhaustive()
    }
}

impl AppState {
    /// Fresh state with an empty pipeline and a cache of `capacity`.
    pub fn new(cache_capacity: usize) -> Arc<Self> {
        Self::with_pipeline(IntegrationPipeline::new(), cache_capacity)
    }

    /// State wrapping an already-populated pipeline (used by tests and by
    /// embedders that register data programmatically).
    pub fn with_pipeline(pipeline: IntegrationPipeline, cache_capacity: usize) -> Arc<Self> {
        Arc::new(AppState {
            pipeline: RwLock::new(pipeline),
            cache: CrosswalkStore::new(cache_capacity),
            metrics: Metrics::default(),
            started: Instant::now(),
            access_log: Mutex::new(None),
            durable: None,
            next_ref_index: AtomicU64::new(0),
            ingest: Mutex::new(IngestRegistry::default()),
            debug_endpoints: AtomicBool::new(false),
            slow: Mutex::new(SlowRing::default()),
            pool_stats: Mutex::new(None),
            route_override: RwLock::new(None),
        })
    }

    /// State backed by the durable store at `data_dir` (`serve
    /// --data-dir`). Opens (or creates) the store — running its recovery:
    /// snapshot load, WAL replay, torn-tail repair — then warm-starts the
    /// registry by replaying every persisted unit system and reference
    /// registration into a fresh pipeline. Prepared crosswalks revive
    /// lazily through the cache's read-through, so the first `/crosswalk`
    /// after a restart answers from disk without re-running the solver.
    pub fn open_durable(
        data_dir: impl AsRef<std::path::Path>,
        cache_capacity: usize,
    ) -> Result<Arc<Self>, CoreError> {
        let backing = Arc::new(DurableBacking::open(data_dir)?);
        let mut pipeline = IntegrationPipeline::new();

        // Replay systems first: references validate against them.
        for (key, bytes) in backing.store().iter_prefix(persist::SYSTEM_PREFIX) {
            let Some(name) = persist::system_name_from_key(&key) else {
                continue;
            };
            let units = persist::decode_unit_system(&bytes)?;
            pipeline.register_system(name, units);
        }
        // `ref/<nnnnnnnn>` keys sort in registration order, so the warm
        // pipeline sees the same sequence the cold one did.
        let mut next_ref_index = 0u64;
        for (key, bytes) in backing.store().iter_prefix(persist::REFERENCE_PREFIX) {
            let (source, target, data) = persist::decode_reference(&bytes)?;
            pipeline.register_reference(&source, &target, data)?;
            if let Some(idx) = key
                .strip_prefix(persist::REFERENCE_PREFIX)
                .and_then(|s| s.parse::<u64>().ok())
            {
                next_ref_index = next_ref_index.max(idx + 1);
            }
        }
        // Streaming references replay in first-ingest order, each one its
        // rollup merged with its logged partials. They append after the
        // replayed static registrations, so warm positions match the cold
        // server's as long as a pair's static references are all
        // registered before its first ingest (the supported ordering;
        // DESIGN.md §12).
        let mut ingest = IngestRegistry::default();
        for agg in persist::replay_agg(backing.store())? {
            let dm = DisaggregationMatrix::from_state(&agg.state).map_err(CoreError::from)?;
            let reference = ReferenceData::from_dm(agg.state.attribute(), dm)?;
            let position = pipeline.reference_count(&agg.source, &agg.target);
            pipeline.register_reference(&agg.source, &agg.target, reference)?;
            ingest.next_index = ingest.next_index.max(agg.index + 1);
            let attribute = agg.state.attribute().to_owned();
            ingest.slots.insert(
                (agg.source, agg.target, attribute),
                IngestSlot {
                    agg_index: agg.index,
                    position,
                    state: agg.state,
                    first_seq: agg.first_seq,
                    next_seq: agg.next_seq,
                },
            );
        }

        Ok(Arc::new(AppState {
            pipeline: RwLock::new(pipeline),
            cache: CrosswalkStore::with_backing(cache_capacity, Arc::clone(&backing)),
            metrics: Metrics::default(),
            started: Instant::now(),
            access_log: Mutex::new(None),
            durable: Some(backing),
            next_ref_index: AtomicU64::new(next_ref_index),
            ingest: Mutex::new(ingest),
            debug_endpoints: AtomicBool::new(false),
            slow: Mutex::new(SlowRing::default()),
            pool_stats: Mutex::new(None),
            route_override: RwLock::new(None),
        }))
    }

    /// Installs a [`RouteOverride`] consulted at the top of the router,
    /// before any built-in route. The cluster coordinator and standby
    /// both reuse the serve reactor/parser this way: they intercept the
    /// routes they own and let everything else (or, after a standby's
    /// promotion, nothing) fall through. Passing a fresh override
    /// replaces the previous one.
    pub fn set_route_override(&self, f: RouteOverride) {
        *self
            .route_override
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Some(f);
    }

    /// The installed route override, if any (cloned handle).
    pub fn route_override(&self) -> Option<RouteOverride> {
        self.route_override
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Whether `/debug/*` routes answer; off by default.
    pub fn debug_endpoints_enabled(&self) -> bool {
        self.debug_endpoints.load(Ordering::Relaxed)
    }

    /// Turns `/debug/*` routes on or off (the server sets this from
    /// `ServerConfig::debug_endpoints` at bind time).
    pub fn set_debug_endpoints(&self, enabled: bool) {
        self.debug_endpoints.store(enabled, Ordering::Relaxed);
    }

    /// Offers a finished request to the slow-request ring (kept only if
    /// it ranks among the slowest seen).
    pub fn record_slow(&self, entry: SlowEntry) {
        self.slow
            .lock()
            .expect("slow ring lock poisoned")
            .record(entry);
    }

    /// The current slow-request ring, slowest first.
    pub fn slow_requests(&self) -> Vec<SlowEntry> {
        self.slow
            .lock()
            .expect("slow ring lock poisoned")
            .entries
            .clone()
    }

    /// Publishes the request pool's counters for `/debug/threads`.
    pub fn set_pool_stats(&self, stats: Arc<geoalign_exec::PoolStats>) {
        *self.pool_stats.lock().expect("pool stats lock poisoned") = Some(stats);
    }

    /// The request pool's counters, when a server is attached.
    pub fn pool_stats(&self) -> Option<geoalign_exec::PoolStatsSnapshot> {
        self.pool_stats
            .lock()
            .expect("pool stats lock poisoned")
            .as_ref()
            .map(|s| s.snapshot())
    }

    /// The durable tier, when the server was started with `--data-dir`.
    pub fn durable(&self) -> Option<&Arc<DurableBacking>> {
        self.durable.as_ref()
    }

    /// Writes a unit-system registration through to the durable store.
    /// Registration is rare and losing one would orphan every reference
    /// on it, so this is a synchronous durable append (unlike prepared
    /// crosswalks, which are persisted behind the response).
    pub fn persist_system(&self, name: &str, unit_ids: &[String]) -> Result<(), CoreError> {
        let Some(backing) = &self.durable else {
            return Ok(());
        };
        backing
            .store()
            .put(
                &persist::system_key(name),
                persist::encode_unit_system(unit_ids),
            )
            .map_err(|e| CoreError::Persist {
                detail: e.to_string(),
            })?;
        Ok(())
    }

    /// Writes a reference registration through to the durable store under
    /// the next `ref/<nnnnnnnn>` key. Synchronous, like
    /// [`Self::persist_system`]. Callers that can race (the `/references`
    /// handler) must invoke this while still holding the pipeline write
    /// lock, so the persisted index order matches registration order and
    /// warm-start replay sees the same sequence the cold pipeline did.
    pub fn persist_reference(
        &self,
        source: &str,
        target: &str,
        reference: &ReferenceData,
    ) -> Result<(), CoreError> {
        let Some(backing) = &self.durable else {
            return Ok(());
        };
        let index = self.next_ref_index.fetch_add(1, Ordering::SeqCst);
        backing
            .store()
            .put(
                &persist::reference_key(index),
                persist::encode_reference(source, target, reference),
            )
            .map_err(|e| CoreError::Persist {
                detail: e.to_string(),
            })?;
        Ok(())
    }

    /// Writes one streaming-ingest record through to the durable store:
    /// a slot's first-batch rollup `agg/<n>` or a later batch's partial
    /// `agg/<n>/<seq>`. Synchronous, like [`Self::persist_reference`], and
    /// for the same reason called under the pipeline write lock.
    fn persist_agg(&self, key: &str, bytes: Vec<u8>) -> Result<(), CoreError> {
        let Some(backing) = &self.durable else {
            return Ok(());
        };
        backing
            .store()
            .put(key, bytes)
            .map_err(|e| CoreError::Persist {
                detail: e.to_string(),
            })
    }

    /// Compacts every streaming reference's logged batch partials into its
    /// rollup: one `agg/<n>` record per slot holding the slot's whole
    /// state and the highest partial sequence number it covers, then the
    /// deletes of those partials — all in one WAL batch with one fsync.
    /// The rollups come first and replay skips the partials they cover,
    /// so a crash anywhere in the batch leaves a consistent prefix and
    /// never merges a batch twice. Returns the number of slots compacted
    /// (0 without a durable store).
    pub fn compact_ingest(&self) -> Result<usize, CoreError> {
        let Some(backing) = &self.durable else {
            return Ok(0);
        };
        let mut registry = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let mut rollups = Vec::new();
        let mut partials = Vec::new();
        for ((source, target, _), slot) in &registry.slots {
            if slot.first_seq == slot.next_seq {
                continue;
            }
            rollups.push((
                persist::agg_key(slot.agg_index),
                persist::encode_agg_rollup_covering(source, target, &slot.state, slot.next_seq - 1),
            ));
            partials.extend(
                (slot.first_seq..slot.next_seq)
                    .map(|seq| persist::agg_partial_key(slot.agg_index, seq)),
            );
        }
        let compacted = rollups.len();
        backing
            .store()
            .write_batch(rollups, partials)
            .map_err(|e| CoreError::Persist {
                detail: e.to_string(),
            })?;
        for slot in registry.slots.values_mut() {
            slot.first_seq = slot.next_seq;
        }
        Ok(compacted)
    }

    /// `POST /checkpoint`: compacts the streaming references' partials
    /// ([`Self::compact_ingest`]), then flushes the write-behind persister
    /// and snapshots the store, so the snapshot holds one rollup per
    /// streaming reference. Errors without a durable store.
    pub fn checkpoint(&self) -> Result<geoalign_store::CheckpointReport, CoreError> {
        let Some(backing) = &self.durable else {
            return Err(CoreError::Persist {
                detail: "no durable store to checkpoint".to_owned(),
            });
        };
        self.compact_ingest()?;
        backing.checkpoint()
    }

    /// Folds one `/ingest` batch of pre-located points into the streaming
    /// reference for `(source, target, attribute)`.
    ///
    /// The first batch for a key registers a new reference on the pair;
    /// later batches merge into the slot's [`AggState`] and replace that
    /// reference in place, so `/crosswalk` always answers over the full
    /// point stream seen so far — byte-identical to a cold server fed the
    /// concatenated points in one shot, because the state's merge is
    /// split-invariant and the prepared-crosswalk delta path is bitwise
    /// exact. A cached prepared crosswalk for the pair is refreshed
    /// through [`PreparedCrosswalk::with_reference_updated`] (re-solving
    /// only the touched design rows) and re-keyed; the stale cache entry
    /// is invalidated either way. The batch's record — the first batch's
    /// rollup, or a later batch's own partial — is written through to the
    /// durable store before anything in memory changes.
    ///
    /// `points` are `(source unit, target unit, weight)` index triples
    /// already resolved and validated by the caller; `unknown` counts the
    /// batch's points that named unknown units (recorded as skipped,
    /// mirroring `OutsidePolicy::Skip`).
    pub fn ingest(
        &self,
        source: &str,
        target: &str,
        attribute: &str,
        points: &[(usize, usize, f64)],
        unknown: u64,
    ) -> Result<IngestOutcome, CoreError> {
        let mut pipeline = self.pipeline_mut();
        let batch = Self::locate_batch(&pipeline, source, target, attribute, points, unknown)?;
        self.fold_state_locked(&mut pipeline, source, target, attribute, batch)
    }

    /// Builds the mergeable [`AggState`] for one batch of pre-located
    /// points without touching any registry — the stateless half of
    /// [`Self::ingest`]. Any shard that knows the pair's unit systems
    /// computes the same state bit for bit, which is what lets the
    /// cluster coordinator scatter a large `/ingest` batch over sibling
    /// shards via `/ingest/partial` and fold the merged result at the
    /// pair's owner.
    fn locate_batch(
        pipeline: &IntegrationPipeline,
        source: &str,
        target: &str,
        attribute: &str,
        points: &[(usize, usize, f64)],
        unknown: u64,
    ) -> Result<AggState, CoreError> {
        let n_source = pipeline.unit_ids(source)?.len();
        let n_target = pipeline.unit_ids(target)?.len();
        let mut batch = AggState::new(attribute, n_source, n_target)
            .map_err(geoalign_partition::PartitionError::from)?;
        for &(si, ti, w) in points {
            batch
                .absorb(si, ti, w)
                .map_err(geoalign_partition::PartitionError::from)?;
        }
        for _ in 0..unknown {
            batch.record_skipped();
        }
        Ok(batch)
    }

    /// Absorbs one `/ingest/partial` batch into a fresh [`AggState`] and
    /// returns it *without* folding — takes only the pipeline read lock.
    /// The caller (the scatter path) merges partials from every shard and
    /// folds the merged state once via [`Self::ingest_state`].
    pub fn ingest_partial(
        &self,
        source: &str,
        target: &str,
        attribute: &str,
        points: &[(usize, usize, f64)],
        unknown: u64,
    ) -> Result<AggState, CoreError> {
        let pipeline = self.pipeline();
        Self::locate_batch(&pipeline, source, target, attribute, points, unknown)
    }

    /// Folds an already-built batch state into the streaming reference
    /// for `(source, target, attribute)` — the `/ingest/state` entry
    /// point. Because [`AggState::merge`] is split-invariant, folding a
    /// coordinator-merged run of partials here is bit-identical to
    /// folding the concatenated points through [`Self::ingest`].
    pub fn ingest_state(
        &self,
        source: &str,
        target: &str,
        attribute: &str,
        batch: AggState,
    ) -> Result<IngestOutcome, CoreError> {
        let mut pipeline = self.pipeline_mut();
        Self::check_state_shape(&pipeline, source, target, &batch)?;
        self.fold_state_locked(&mut pipeline, source, target, attribute, batch)
    }

    /// An `/ingest/state` batch must span the pair's registered systems.
    fn check_state_shape(
        pipeline: &IntegrationPipeline,
        source: &str,
        target: &str,
        batch: &AggState,
    ) -> Result<(), CoreError> {
        let n_source = pipeline.unit_ids(source)?.len();
        let n_target = pipeline.unit_ids(target)?.len();
        if batch.n_source() != n_source {
            return Err(CoreError::SourceMismatch {
                objective: batch.n_source(),
                reference: n_source,
                name: format!("ingest state {source} -> {target}"),
            });
        }
        if batch.n_target() != n_target {
            return Err(CoreError::TargetMismatch {
                left: batch.n_target(),
                right: n_target,
                name: format!("ingest state {source} -> {target}"),
            });
        }
        Ok(())
    }

    /// The stateful half of [`Self::ingest`]: folds `batch` into the
    /// pair's slot under the already-held pipeline write lock, persists
    /// it, refreshes the cache, and reports the outcome.
    ///
    /// Durable before visible: every check runs first, then the batch's
    /// record is written, and only then do the pipeline, the slot and the
    /// cache change — so a failed write leaves all three as they were.
    fn fold_state_locked(
        &self,
        pipeline: &mut IntegrationPipeline,
        source: &str,
        target: &str,
        attribute: &str,
        batch: AggState,
    ) -> Result<IngestOutcome, CoreError> {
        // The pair's cache key before the fold — the entry to refresh
        // incrementally and then invalidate.
        let old_key = (pipeline.reference_count(source, target) > 0)
            .then(|| pair_key(pipeline, source, target));
        let absorbed = batch.count();
        let unknown = batch.skipped();

        let mut registry = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let slot_key = (source.to_owned(), target.to_owned(), attribute.to_owned());
        let (position, refreshed, total_points, total_skipped) =
            match registry.slots.get_mut(&slot_key) {
                Some(slot) => {
                    let refreshed =
                        self.fold_into_slot(pipeline, source, target, slot, &batch, &old_key)?;
                    (
                        slot.position,
                        refreshed,
                        slot.state.count(),
                        slot.state.skipped(),
                    )
                }
                None => {
                    // The first batch is the whole state: building its
                    // reference costs O(batch).
                    let position = pipeline.reference_count(source, target);
                    let dm = DisaggregationMatrix::from_state(&batch)?;
                    let reference = ReferenceData::from_dm(attribute, dm)?;
                    let refreshed = self.refresh_cached(&old_key, position, &reference)?;
                    let agg_index = registry.next_index;
                    self.persist_agg(
                        &persist::agg_key(agg_index),
                        persist::encode_agg_rollup(source, target, &batch),
                    )?;
                    pipeline.register_reference(source, target, reference)?;
                    registry.next_index += 1;
                    let totals = (batch.count(), batch.skipped());
                    registry.slots.insert(
                        slot_key,
                        IngestSlot {
                            agg_index,
                            position,
                            state: batch,
                            first_seq: 1,
                            next_seq: 1,
                        },
                    );
                    (position, refreshed, totals.0, totals.1)
                }
            };
        drop(registry);

        let references_for_pair = pipeline.reference_count(source, target);
        let (incremental, touched_rows) = match refreshed {
            Some((updated, touched)) => {
                // The registration above already refreshed the pipeline's
                // fingerprint memo, so the new key costs no extra pass.
                self.cache
                    .insert(pair_key(pipeline, source, target), Arc::new(updated));
                (true, touched)
            }
            None => (false, 0),
        };
        if let Some(old) = &old_key {
            // Only the folded pair's entry is touched; prepared
            // crosswalks for other pairs stay cached.
            self.cache.invalidate(old);
        }
        self.metrics.ingest_touched_rows.add(touched_rows as u64);

        Ok(IngestOutcome {
            absorbed,
            skipped: unknown,
            total_points,
            total_skipped,
            position,
            references_for_pair,
            incremental,
            touched_rows,
        })
    }

    /// Folds `batch` into an existing streaming reference in O(batch) plus
    /// a few flat passes over memory: the slot previews the values its
    /// touched cells will round to, the reference the pipeline holds at
    /// the slot's position is patched at exactly those cells (with the
    /// checks, and errors, of `from_state` + `from_dm`), the batch's own
    /// partial is logged, and only then is the batch merged into the
    /// slot's state in place. Returns the refreshed cache entry, if the
    /// pair had one.
    fn fold_into_slot(
        &self,
        pipeline: &mut IntegrationPipeline,
        source: &str,
        target: &str,
        slot: &mut IngestSlot,
        batch: &AggState,
        old_key: &Option<CrosswalkKey>,
    ) -> Result<Option<(PreparedCrosswalk, usize)>, CoreError> {
        let cells = slot
            .state
            .merged_cells(batch)
            .map_err(geoalign_partition::PartitionError::from)?;
        let current = pipeline
            .references(source, target)
            .get(slot.position)
            .ok_or_else(|| CoreError::UnknownReference {
                name: format!("{source} -> {target} reference #{}", slot.position),
            })?;
        let reference = current.with_dm_cells_set(&cells)?;
        let refreshed = self.refresh_cached(old_key, slot.position, &reference)?;
        self.persist_agg(
            &persist::agg_partial_key(slot.agg_index, slot.next_seq),
            persist::encode_agg_partial(batch),
        )?;
        // The batch is durable; from here on nothing can fail (the merge
        // passed its shape check above), so the fold becomes visible.
        pipeline.replace_reference(source, target, slot.position, reference)?;
        slot.state
            .merge(batch)
            .map_err(geoalign_partition::PartitionError::from)?;
        slot.next_seq += 1;
        Ok(refreshed)
    }

    /// The cached prepared crosswalk under `old_key`, if any, with the
    /// streaming reference at `position` swapped for `reference` through
    /// the delta path — computed, not yet inserted.
    fn refresh_cached(
        &self,
        old_key: &Option<CrosswalkKey>,
        position: usize,
        reference: &ReferenceData,
    ) -> Result<Option<(PreparedCrosswalk, usize)>, CoreError> {
        old_key
            .as_ref()
            .and_then(|old| self.cache.get(old))
            .map(|prepared| prepared.with_reference_updated(position, reference.clone()))
            .transpose()
    }

    /// Time since this state was created (the server's uptime).
    pub fn uptime(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Installs an access-log sink; each finished request appends one
    /// JSON line. Passing a fresh sink replaces the previous one.
    pub fn set_access_log(&self, sink: Box<dyn Write + Send>) {
        *self.access_log.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    }

    /// Whether an access-log sink is installed.
    pub fn access_log_enabled(&self) -> bool {
        self.access_log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Appends one line to the access log, if a sink is installed. Write
    /// failures are swallowed — logging must never break serving.
    pub fn log_access(&self, line: &str) {
        let mut guard = self.access_log.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(sink) = guard.as_mut() {
            let _ = writeln!(sink, "{line}");
            let _ = sink.flush();
        }
    }

    /// Read access to the registry.
    pub fn pipeline(&self) -> RwLockReadGuard<'_, IntegrationPipeline> {
        self.pipeline.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write access to the registry (registration endpoints only).
    pub fn pipeline_mut(&self) -> RwLockWriteGuard<'_, IntegrationPipeline> {
        self.pipeline.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The prepared crosswalk for `source → target` over the references
    /// currently registered for that pair — cached by content
    /// fingerprint, so re-registered references can never serve a stale
    /// snapshot. The fingerprint is the pipeline's memo, so a hit costs
    /// no pass over the references. Returns the snapshot and whether it
    /// was a cache hit; cache misses feed the prepare-latency histogram.
    pub fn prepared_crosswalk(
        &self,
        source: &str,
        target: &str,
    ) -> Result<(Arc<PreparedCrosswalk>, bool), CoreError> {
        let pipeline = self.pipeline();
        let refs = pipeline.references(source, target);
        if refs.is_empty() {
            return Err(CoreError::UnknownReference {
                name: format!("crosswalk {source} -> {target}"),
            });
        }
        let key = pair_key(&pipeline, source, target);
        let aligner = *pipeline.aligner();
        let t0 = Instant::now();
        let (prepared, hit) = self.cache.get_or_insert_with(&key, || {
            let refs: Vec<&ReferenceData> = refs.iter().collect();
            aligner.prepare(&refs)
        })?;
        if !hit {
            self.metrics.prepare_latency.record(t0.elapsed());
        }
        Ok((prepared, hit))
    }
}

/// The cache key of the references registered for `source → target`,
/// from the pipeline's memoized fingerprint.
fn pair_key(pipeline: &IntegrationPipeline, source: &str, target: &str) -> CrosswalkKey {
    CrosswalkKey {
        source: source.to_owned(),
        target: target.to_owned(),
        fingerprint: pipeline.fingerprint(source, target),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoalign_partition::DisaggregationMatrix;

    /// The whole-state fold the in-place one replaced, kept as the
    /// reference for the router's differential fold test: clone the
    /// slot's state, merge the batch, finalize every cell through
    /// `from_state` + `from_dm`, register or replace the reference, write
    /// the whole rollup, then refresh the cache.
    impl AppState {
        pub(crate) fn ingest_whole_state(
            &self,
            source: &str,
            target: &str,
            attribute: &str,
            points: &[(usize, usize, f64)],
            unknown: u64,
        ) -> Result<IngestOutcome, CoreError> {
            let mut pipeline = self.pipeline_mut();
            let batch = Self::locate_batch(&pipeline, source, target, attribute, points, unknown)?;
            self.fold_whole_state(&mut pipeline, source, target, attribute, batch)
        }

        pub(crate) fn ingest_state_whole_state(
            &self,
            source: &str,
            target: &str,
            attribute: &str,
            batch: AggState,
        ) -> Result<IngestOutcome, CoreError> {
            let mut pipeline = self.pipeline_mut();
            Self::check_state_shape(&pipeline, source, target, &batch)?;
            self.fold_whole_state(&mut pipeline, source, target, attribute, batch)
        }

        /// The merged state of a streaming reference, if it has one.
        pub(crate) fn slot_state(
            &self,
            source: &str,
            target: &str,
            attribute: &str,
        ) -> Option<AggState> {
            let registry = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            let key = (source.to_owned(), target.to_owned(), attribute.to_owned());
            registry.slots.get(&key).map(|slot| slot.state.clone())
        }

        fn fold_whole_state(
            &self,
            pipeline: &mut IntegrationPipeline,
            source: &str,
            target: &str,
            attribute: &str,
            batch: AggState,
        ) -> Result<IngestOutcome, CoreError> {
            let old_key = (pipeline.reference_count(source, target) > 0)
                .then(|| pair_key(pipeline, source, target));
            let absorbed = batch.count();
            let unknown = batch.skipped();

            let mut registry = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            let slot_key = (source.to_owned(), target.to_owned(), attribute.to_owned());
            let (state, position, agg_index, appended) = match registry.slots.get(&slot_key) {
                Some(slot) => {
                    let mut state = slot.state.clone();
                    state
                        .merge(&batch)
                        .map_err(geoalign_partition::PartitionError::from)?;
                    (state, slot.position, slot.agg_index, false)
                }
                None => (
                    batch,
                    pipeline.reference_count(source, target),
                    registry.next_index,
                    true,
                ),
            };
            let total_points = state.count();
            let total_skipped = state.skipped();

            let dm = DisaggregationMatrix::from_state(&state)?;
            let reference = ReferenceData::from_dm(attribute, dm)?;
            if appended {
                pipeline.register_reference(source, target, reference.clone())?;
            } else {
                pipeline.replace_reference(source, target, position, reference.clone())?;
            }
            self.persist_agg(
                &persist::agg_key(agg_index),
                persist::encode_agg_rollup(source, target, &state),
            )?;
            if appended {
                registry.next_index += 1;
            }
            registry.slots.insert(
                slot_key,
                IngestSlot {
                    agg_index,
                    position,
                    state,
                    first_seq: 1,
                    next_seq: 1,
                },
            );
            drop(registry);

            let references_for_pair = pipeline.reference_count(source, target);
            let mut touched_rows = 0usize;
            let mut incremental = false;
            if let Some(old) = &old_key {
                if let Some(prepared) = self.cache.get(old) {
                    let (updated, touched) =
                        prepared.with_reference_updated(position, reference)?;
                    self.cache
                        .insert(pair_key(pipeline, source, target), Arc::new(updated));
                    touched_rows = touched;
                    incremental = true;
                }
                self.cache.invalidate(old);
            }
            self.metrics.ingest_touched_rows.add(touched_rows as u64);

            Ok(IngestOutcome {
                absorbed,
                skipped: unknown,
                total_points,
                total_skipped,
                position,
                references_for_pair,
                incremental,
                touched_rows,
            })
        }
    }

    fn populated() -> Arc<AppState> {
        let state = AppState::new(8);
        {
            let mut p = state.pipeline_mut();
            p.register_system("zip", ["z1", "z2"]);
            p.register_system("county", ["A", "B"]);
            let dm = DisaggregationMatrix::from_triples(
                "pop",
                2,
                2,
                [(0, 0, 10.0), (0, 1, 30.0), (1, 1, 5.0)],
            )
            .unwrap();
            p.register_reference("zip", "county", ReferenceData::from_dm("pop", dm).unwrap())
                .unwrap();
        }
        state
    }

    #[test]
    fn prepared_crosswalk_caches_by_fingerprint() {
        let state = populated();
        let (first, hit1) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(!hit1);
        let (second, hit2) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(state.cache.stats().entries, 1);
        assert_eq!(state.metrics.prepare_latency.count(), 1);
    }

    #[test]
    fn re_registering_references_changes_the_key() {
        let state = populated();
        let (_, _) = state.prepared_crosswalk("zip", "county").unwrap();
        {
            let mut p = state.pipeline_mut();
            let dm = DisaggregationMatrix::from_triples(
                "jobs",
                2,
                2,
                [(0, 0, 1.0), (1, 0, 2.0), (1, 1, 2.0)],
            )
            .unwrap();
            p.register_reference("zip", "county", ReferenceData::from_dm("jobs", dm).unwrap())
                .unwrap();
        }
        let (prepared, hit) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(!hit, "new reference set must not reuse the old snapshot");
        assert_eq!(prepared.references().len(), 2);
    }

    #[test]
    fn incremental_fold_refreshes_the_entry_the_next_lookup_hits() {
        let state = populated();
        let (_, hit) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(!hit);
        // The first batch appends the streaming reference, the second
        // replaces it in place; both refresh the cached entry.
        for (batch, points) in [[(0, 1, 2.0), (1, 0, 1.5)], [(1, 1, 4.0), (0, 1, 0.5)]]
            .iter()
            .enumerate()
        {
            let outcome = state.ingest("zip", "county", "visits", points, 0).unwrap();
            assert!(outcome.incremental, "batch {batch} found the cached entry");
            let (prepared, hit) = state.prepared_crosswalk("zip", "county").unwrap();
            assert!(
                hit,
                "batch {batch}: the refreshed entry serves the next lookup"
            );
            assert_eq!(prepared.references().len(), 2);
            assert_eq!(state.cache.stats().entries, 1, "the stale entry is gone");
            assert_eq!(
                state.metrics.prepare_latency.count(),
                1,
                "never re-prepared"
            );
            // The refreshed entry sits under the full-pass key.
            let pipeline = state.pipeline();
            let refs: Vec<&ReferenceData> = pipeline.references("zip", "county").iter().collect();
            let key = CrosswalkKey::new("zip", "county", &refs);
            assert!(Arc::ptr_eq(&state.cache.get(&key).unwrap(), &prepared));
        }
    }

    #[test]
    fn missing_crosswalk_is_an_error() {
        let state = populated();
        assert!(state.prepared_crosswalk("county", "zip").is_err());
    }

    #[test]
    fn durable_state_warm_starts_registry_and_crosswalks() {
        let dir = std::env::temp_dir().join(format!("geoalign-serve-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let cold_estimate: Vec<f64> = {
            let state = AppState::open_durable(&dir, 8).unwrap();
            {
                let mut p = state.pipeline_mut();
                p.register_system("zip", ["z1", "z2"]);
                p.register_system("county", ["A", "B"]);
            }
            state
                .persist_system("zip", &["z1".to_owned(), "z2".to_owned()])
                .unwrap();
            state
                .persist_system("county", &["A".to_owned(), "B".to_owned()])
                .unwrap();
            let dm = DisaggregationMatrix::from_triples(
                "pop",
                2,
                2,
                [(0, 0, 10.0), (0, 1, 30.0), (1, 1, 5.0)],
            )
            .unwrap();
            let reference = ReferenceData::from_dm("pop", dm).unwrap();
            state
                .pipeline_mut()
                .register_reference("zip", "county", reference.clone())
                .unwrap();
            state
                .persist_reference("zip", "county", &reference)
                .unwrap();

            let (prepared, hit) = state.prepared_crosswalk("zip", "county").unwrap();
            assert!(!hit);
            let obj = geoalign_partition::AggregateVector::new("o", vec![7.0, 11.0]).unwrap();
            let result = prepared.apply_values(&obj).unwrap();
            state.durable().unwrap().flush();
            result.estimate
        };

        // A fresh state over the same directory replays the registry and
        // revives the prepared crosswalk from disk: the closure would
        // panic if the solver ran again.
        let state = AppState::open_durable(&dir, 8).unwrap();
        assert!(state.pipeline().has_system("zip"));
        assert!(state.pipeline().has_system("county"));
        assert_eq!(state.pipeline().references("zip", "county").len(), 1);
        let (prepared, hit) = state.prepared_crosswalk("zip", "county").unwrap();
        assert!(hit, "warm start must revive the prepared crosswalk");
        let obj = geoalign_partition::AggregateVector::new("o", vec![7.0, 11.0]).unwrap();
        let warm = prepared.apply_values(&obj).unwrap();
        for (w, c) in warm.estimate.iter().zip(&cold_estimate) {
            assert_eq!(
                w.to_bits(),
                c.to_bits(),
                "warm answer must be byte-identical"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
