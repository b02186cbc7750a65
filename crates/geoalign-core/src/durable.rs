//! The durable backing tier of the crosswalk cache: a
//! [`geoalign_store::Store`] plus a single-worker background persister.
//!
//! The cache's miss path is latency-critical, so writes to disk are
//! asynchronous: `persist_prepared` encodes nothing on the calling
//! thread — it hands the `Arc` snapshot to a one-worker
//! [`WorkerPool`](geoalign_exec::WorkerPool) that encodes, appends to
//! the WAL, and fsyncs off the request path. [`DurableBacking::flush`]
//! waits for the queue to drain, which is what makes "checkpoint then
//! kill -9" deterministic in tests and in `POST /checkpoint`.
//!
//! Reads (`lookup_prepared`) are synchronous: they only run on a cache
//! miss. A read is not cheaper than re-running prepare: in
//! `BENCH_store.json` (1600×320, 3 references) reviving a snapshot takes
//! 0.743 ms against a cold prepare of 0.163 ms (`warm_speedup` 0.219).

use crate::error::CoreError;
use crate::persist;
use crate::prepare::PreparedCrosswalk;
use crate::store::CrosswalkKey;
use geoalign_store::{Store, StoreOptions};
use std::sync::{Arc, Condvar, Mutex};

/// One queued persistence job: the store key plus the snapshot to encode.
struct PersistJob {
    key: String,
    prepared: Arc<PreparedCrosswalk>,
}

/// Shared write-behind state: how many jobs are queued or running, and a
/// condvar to wake `flush` when the count reaches zero.
#[derive(Default)]
struct Pending {
    count: Mutex<usize>,
    drained: Condvar,
}

/// A durable store plus the background persister that feeds it.
pub struct DurableBacking {
    store: Arc<Store>,
    pending: Arc<Pending>,
    // Option only so Drop can take and join the pool.
    pool: Option<geoalign_exec::WorkerPool<PersistJob>>,
}

impl std::fmt::Debug for DurableBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableBacking")
            .field("dir", &self.store.dir())
            .field("entries", &self.store.len())
            .finish()
    }
}

impl DurableBacking {
    /// Opens (or creates) the durable store at `dir` and starts the
    /// persister. Recovery — snapshot load, WAL replay, torn-tail repair
    /// — happens here; inspect it via [`DurableBacking::store`] and
    /// [`geoalign_store::Store::recovery`].
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self, CoreError> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// [`DurableBacking::open`] with explicit store options.
    pub fn open_with(
        dir: impl AsRef<std::path::Path>,
        opts: StoreOptions,
    ) -> Result<Self, CoreError> {
        let store = Arc::new(Store::open_with(dir, opts).map_err(|e| CoreError::Persist {
            detail: e.to_string(),
        })?);
        let pending = Arc::new(Pending::default());
        let pool = {
            let store = Arc::clone(&store);
            let pending = Arc::clone(&pending);
            geoalign_exec::WorkerPool::new("store-persist", 1, move |job: PersistJob| {
                let bytes = persist::encode_prepared(&job.prepared);
                if store.put(&job.key, bytes).is_err() {
                    crate::obs::durable_persist_errors().inc();
                }
                let mut count = pending.count.lock().unwrap_or_else(|e| e.into_inner());
                *count -= 1;
                if *count == 0 {
                    pending.drained.notify_all();
                }
            })
        };
        Ok(DurableBacking {
            store,
            pending,
            pool: Some(pool),
        })
    }

    /// The underlying store (for direct puts of systems and references,
    /// checkpointing, and recovery inspection).
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Read-through: revives a prepared crosswalk from disk. Returns
    /// `None` when absent; a present-but-undecodable payload also returns
    /// `None` (counted in `geoalign_core_durable_decode_errors_total`) so
    /// a damaged entry degrades to a recompute, never an outage.
    pub fn lookup_prepared(&self, key: &CrosswalkKey) -> Option<Arc<PreparedCrosswalk>> {
        let bytes = self.store.get(&persist::prepared_key(key))?;
        match persist::decode_prepared(&bytes) {
            Ok(prepared) => {
                geoalign_store::obs::warm_hits().inc();
                Some(Arc::new(prepared))
            }
            Err(_) => {
                crate::obs::durable_decode_errors().inc();
                None
            }
        }
    }

    /// Write-behind: queues the snapshot for encoding and a durable WAL
    /// append on the persister thread. Returns immediately.
    pub fn persist_prepared(&self, key: &CrosswalkKey, prepared: &Arc<PreparedCrosswalk>) {
        let job = PersistJob {
            key: persist::prepared_key(key),
            prepared: Arc::clone(prepared),
        };
        {
            let mut count = self.pending.count.lock().unwrap_or_else(|e| e.into_inner());
            *count += 1;
        }
        if let Some(pool) = &self.pool {
            if !pool.submit(job) {
                // The pool is shutting down; the job will never run.
                let mut count = self.pending.count.lock().unwrap_or_else(|e| e.into_inner());
                *count -= 1;
                if *count == 0 {
                    self.pending.drained.notify_all();
                }
            }
        }
    }

    /// Blocks until every queued persistence job has committed. After
    /// `flush` returns, a `kill -9` loses nothing that was queued before
    /// the call.
    pub fn flush(&self) {
        let mut count = self.pending.count.lock().unwrap_or_else(|e| e.into_inner());
        while *count > 0 {
            count = self
                .pending
                .drained
                .wait(count)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Flushes the persister queue, then checkpoints the store (snapshot
    /// + WAL compaction).
    pub fn checkpoint(&self) -> Result<geoalign_store::CheckpointReport, CoreError> {
        self.flush();
        self.store.checkpoint().map_err(|e| CoreError::Persist {
            detail: e.to_string(),
        })
    }
}

impl Drop for DurableBacking {
    fn drop(&mut self) {
        self.flush();
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::GeoAlign;
    use crate::reference::ReferenceData;
    use geoalign_partition::DisaggregationMatrix;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("geoalign-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast() -> StoreOptions {
        StoreOptions {
            segment_max_bytes: 64 << 20,
            fsync: false,
        }
    }

    fn make_ref(name: &str) -> ReferenceData {
        let dm =
            DisaggregationMatrix::from_triples(name, 2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)])
                .unwrap();
        ReferenceData::from_dm(name, dm).unwrap()
    }

    #[test]
    fn persist_flush_lookup_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let r = make_ref("pop");
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        let prepared = Arc::new(GeoAlign::new().prepare(&[&r]).unwrap());
        {
            let backing = DurableBacking::open_with(&dir, fast()).unwrap();
            assert!(backing.lookup_prepared(&key).is_none());
            backing.persist_prepared(&key, &prepared);
            backing.flush();
            assert!(backing.lookup_prepared(&key).is_some());
        }
        // Reopen: the entry survived and applies identically.
        let backing = DurableBacking::open_with(&dir, fast()).unwrap();
        let revived = backing.lookup_prepared(&key).unwrap();
        let obj = geoalign_partition::AggregateVector::new("o", vec![5.0, 7.0]).unwrap();
        let cold = prepared.apply_values(&obj).unwrap();
        let warm = revived.apply_values(&obj).unwrap();
        for (x, y) in warm.estimate.iter().zip(&cold.estimate) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_payload_degrades_to_none() {
        let dir = tmp_dir("damaged");
        let r = make_ref("pop");
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        let backing = DurableBacking::open_with(&dir, fast()).unwrap();
        backing
            .store()
            .put(
                &crate::persist::prepared_key(&key),
                b"not a snapshot".to_vec(),
            )
            .unwrap();
        assert!(backing.lookup_prepared(&key).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_flushes_then_compacts() {
        let dir = tmp_dir("ckpt");
        let r = make_ref("pop");
        let key = CrosswalkKey::new("zip", "county", &[&r]);
        let prepared = Arc::new(GeoAlign::new().prepare(&[&r]).unwrap());
        let backing = DurableBacking::open_with(&dir, fast()).unwrap();
        backing.persist_prepared(&key, &prepared);
        let report = backing.checkpoint().unwrap();
        assert_eq!(report.records, 1, "flush ran before the snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
