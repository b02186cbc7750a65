//! The in-process single-node oracle: one `AppState` per serving node,
//! registered directly through the pipeline with the same systems and
//! references the servers received over HTTP, then fed the same request
//! sequence through `geoalign_serve::route`.
//!
//! Behind a coordinator every shard receives every registration, and each
//! pair's traffic goes to its ring owner, so the oracle keeps one state
//! per shard and routes with the coordinator's own `HashRing`. Each
//! state then sees exactly what its shard saw, cache evictions included,
//! and its answers must match the coordinator's byte for byte.

use crate::corpus::{source_name, target_name, Corpus, Request};
use crate::serve::shard_names;
use geoalign_cluster::HashRing;
use geoalign_core::ReferenceData;
use geoalign_partition::DisaggregationMatrix;
use geoalign_serve::http::{RequestParser, MAX_HEAD_BYTES};
use geoalign_serve::store::{AppState, DEFAULT_CACHE_CAPACITY};
use std::sync::Arc;

/// One `AppState` per serving node plus the ring that picks among them.
pub struct Oracle {
    /// Node states, in shard order (one for a single node).
    pub nodes: Vec<Arc<AppState>>,
    ring: Option<HashRing>,
}

impl Oracle {
    /// Builds and registers the oracle for `corpus`.
    pub fn new(corpus: &Corpus) -> Result<Oracle, String> {
        let shards = corpus.params.shards;
        let nodes = (0..shards.max(1))
            .map(|_| register(corpus))
            .collect::<Result<_, _>>()?;
        let ring = (shards > 0).then(|| HashRing::new(&shard_names(shards)));
        Ok(Oracle { nodes, ring })
    }

    /// The node that owns `pair`.
    pub fn owner(&self, pair: usize) -> usize {
        self.ring
            .as_ref()
            .map_or(0, |r| r.shard_for(&source_name(pair), &target_name(pair)))
    }

    /// Parses `req`'s raw bytes as the server would.
    pub fn parse(req: &Request) -> geoalign_serve::Request {
        let (_, parsed) = RequestParser::new(MAX_HEAD_BYTES)
            .feed(&req.raw)
            .expect("pre-rendered requests are well-formed");
        parsed.expect("pre-rendered requests are complete")
    }

    /// Routes `req` on its owner, returning `(status, body)`.
    pub fn answer(&self, req: &Request) -> (u16, Vec<u8>) {
        let resp = geoalign_serve::route(&self.nodes[self.owner(req.pair)], &Self::parse(req));
        (resp.status, resp.body)
    }
}

/// A fresh state holding `corpus`'s systems and references, registered
/// in the order the servers received them.
fn register(corpus: &Corpus) -> Result<Arc<AppState>, String> {
    let state = AppState::new(DEFAULT_CACHE_CAPACITY);
    let mut pipeline = state.pipeline_mut();
    for s in &corpus.systems {
        pipeline.register_system(s.name.clone(), s.units.iter().cloned());
    }
    let (ns, nt) = (corpus.params.n_source, corpus.params.n_target);
    for r in &corpus.references {
        let dm = DisaggregationMatrix::from_triples(&r.name, ns, nt, r.triples.iter().copied())
            .map_err(|e| format!("oracle reference {}: {e}", r.name))?;
        let data = ReferenceData::from_dm(&r.name, dm).map_err(|e| e.to_string())?;
        pipeline
            .register_reference(&source_name(r.pair), &target_name(r.pair), data)
            .map_err(|e| e.to_string())?;
    }
    drop(pipeline);
    Ok(state)
}
