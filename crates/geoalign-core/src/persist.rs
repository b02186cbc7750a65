//! Domain codecs over `geoalign-store`'s byte-level vocabulary: unit
//! systems, references, and prepared crosswalks as length-prefixed
//! little-endian payloads.
//!
//! The codecs live here (not in `geoalign-store`) so the persistence
//! crate stays domain-blind and the dependency arrow keeps pointing from
//! core to store. Every float is written as its exact IEEE-754 bit
//! pattern and the Gram state is reassembled via
//! [`GramSystem::from_parts`] rather than recomputed, so a decoded
//! [`PreparedCrosswalk`] applies **byte-identically** to the one that
//! was encoded — a warm-started server answers the same bytes the cold
//! one did.
//!
//! ## Key space
//!
//! One flat, prefix-partitioned namespace inside the store:
//!
//! * `sys/<name>` — a unit system's identifier list;
//! * `ref/<nnnnnnnn>` — one reference registration, in registration
//!   order (the payload carries the system pair);
//! * `agg/<nnnnnnnn>` — one streaming reference's aggregate rollup, in
//!   first-ingest order (the payload carries the system pair and a
//!   mergeable state: the first batch's, or after a compaction every
//!   batch up to the partial it says it covers);
//! * `agg/<nnnnnnnn>/<seq>` — one later batch's own partial state for
//!   that streaming reference, sorting right after its rollup in batch
//!   order. [`replay_agg`] merges a rollup with its partials;
//! * `prep/<fingerprint>/<len>/<len>/<source><target>` — a prepared
//!   crosswalk; the explicit lengths keep names containing `/`
//!   unambiguous.

use crate::align::{row_sum_max, GeoAlignConfig};
use crate::error::CoreError;
use crate::prepare::{transpose_of, PreparedCrosswalk};
use crate::reference::ReferenceData;
use crate::store::CrosswalkKey;
use geoalign_linalg::simplex_ls::{GramSystem, SimplexSolver};
use geoalign_linalg::DMatrix;
use geoalign_partition::{AggregateVector, DisaggregationMatrix};
use geoalign_store::{ByteReader, ByteWriter};
use std::time::Duration;

/// Payload format version for every codec in this module.
const CODEC_VERSION: u8 = 1;

/// Key prefix for unit systems.
pub const SYSTEM_PREFIX: &str = "sys/";
/// Key prefix for reference registrations.
pub const REFERENCE_PREFIX: &str = "ref/";
/// Key prefix for prepared crosswalks.
pub const PREPARED_PREFIX: &str = "prep/";
/// Key prefix for streaming-ingest aggregate rollups.
pub const AGG_PREFIX: &str = "agg/";

/// Store key of the unit system `name`.
pub fn system_key(name: &str) -> String {
    format!("{SYSTEM_PREFIX}{name}")
}

/// Recovers a system name from its store key.
pub fn system_name_from_key(key: &str) -> Option<&str> {
    key.strip_prefix(SYSTEM_PREFIX)
}

/// Store key of the `index`-th reference registration. Zero-padded so
/// lexicographic prefix iteration replays registrations in order.
pub fn reference_key(index: u64) -> String {
    format!("{REFERENCE_PREFIX}{index:08}")
}

/// Store key of the `index`-th aggregate rollup. Zero-padded so
/// lexicographic prefix iteration replays rollups in first-ingest order,
/// keeping warm-start reference positions stable.
pub fn agg_key(index: u64) -> String {
    format!("{AGG_PREFIX}{index:08}")
}

/// Store key of partial `seq` of the `index`-th streaming reference. It
/// extends the rollup's key, so it sorts after that rollup and before the
/// next one, and the zero-padded `seq` keeps partials in batch order.
pub fn agg_partial_key(index: u64, seq: u64) -> String {
    format!("{AGG_PREFIX}{index:08}/{seq:020}")
}

/// Store key of a prepared crosswalk.
pub fn prepared_key(key: &CrosswalkKey) -> String {
    format!(
        "{PREPARED_PREFIX}{:016x}/{}/{}/{}{}",
        key.fingerprint,
        key.source.len(),
        key.target.len(),
        key.source,
        key.target
    )
}

fn persist_err(what: &str, e: impl std::fmt::Display) -> CoreError {
    CoreError::Persist {
        detail: format!("{what}: {e}"),
    }
}

// ---------------------------------------------------------------------
// Unit systems
// ---------------------------------------------------------------------

/// Encodes a unit system's identifier list.
pub fn encode_unit_system(unit_ids: &[String]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(16 + unit_ids.iter().map(|s| 4 + s.len()).sum::<usize>());
    w.u8(CODEC_VERSION);
    w.u64(unit_ids.len() as u64);
    for id in unit_ids {
        w.str(id);
    }
    w.into_vec()
}

/// Decodes a unit system's identifier list.
pub fn decode_unit_system(bytes: &[u8]) -> Result<Vec<String>, CoreError> {
    let mut r = ByteReader::new(bytes);
    (|| {
        let version = r.u8()?;
        if version != CODEC_VERSION {
            return Err(geoalign_store::CodecError::new(format!(
                "unsupported unit-system codec version {version}"
            )));
        }
        let n = r.len_u64("unit count")?;
        let mut ids = Vec::with_capacity(n.min(bytes.len()));
        for _ in 0..n {
            ids.push(r.str()?.to_owned());
        }
        r.expect_end()?;
        Ok(ids)
    })()
    .map_err(|e| persist_err("unit system", e))
}

// ---------------------------------------------------------------------
// References
// ---------------------------------------------------------------------

/// Encodes one reference registration: the system pair it belongs to
/// plus the full [`ReferenceData`].
pub fn encode_reference(source: &str, target: &str, r: &ReferenceData) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64 + r.dm().nnz() * 24);
    w.u8(CODEC_VERSION);
    w.str(source);
    w.str(target);
    write_reference_data(&mut w, r);
    w.into_vec()
}

/// Decodes one reference registration back into `(source, target, data)`.
pub fn decode_reference(bytes: &[u8]) -> Result<(String, String, ReferenceData), CoreError> {
    let mut r = ByteReader::new(bytes);
    let (source, target) = (|| {
        let version = r.u8()?;
        if version != CODEC_VERSION {
            return Err(geoalign_store::CodecError::new(format!(
                "unsupported reference codec version {version}"
            )));
        }
        Ok((r.str()?.to_owned(), r.str()?.to_owned()))
    })()
    .map_err(|e| persist_err("reference", e))?;
    let data = read_reference_data(&mut r)?;
    r.expect_end().map_err(|e| persist_err("reference", e))?;
    Ok((source, target, data))
}

// ---------------------------------------------------------------------
// Aggregate rollups
// ---------------------------------------------------------------------

/// Encodes one streaming-ingest rollup: the system pair it belongs to
/// plus the full mergeable [`AggState`](geoalign_agg::AggState). The
/// state's own codec is canonical, so re-persisting an unchanged rollup
/// writes the same bytes.
pub fn encode_agg_rollup(source: &str, target: &str, state: &geoalign_agg::AggState) -> Vec<u8> {
    let state_bytes = state.encode();
    let mut w = ByteWriter::with_capacity(32 + state_bytes.len());
    w.u8(CODEC_VERSION);
    w.str(source);
    w.str(target);
    w.bytes(&state_bytes);
    w.into_vec()
}

/// Payload version of a compacted rollup, which also records the highest
/// partial sequence number merged into it.
const AGG_COVERING_VERSION: u8 = 2;

/// Encodes a compacted rollup: the streaming reference's state with every
/// partial up to `covers` merged in. [`replay_agg`] skips partials whose
/// sequence number is at most `covers`, so a crash after this record is
/// written but before those partials are deleted never merges a batch
/// twice.
pub fn encode_agg_rollup_covering(
    source: &str,
    target: &str,
    state: &geoalign_agg::AggState,
    covers: u64,
) -> Vec<u8> {
    let state_bytes = state.encode();
    let mut w = ByteWriter::with_capacity(40 + state_bytes.len());
    w.u8(AGG_COVERING_VERSION);
    w.str(source);
    w.str(target);
    w.u64(covers);
    w.bytes(&state_bytes);
    w.into_vec()
}

/// Decodes one rollup back into `(source, target, state)`. A compacted
/// rollup's coverage is dropped; rebuild streaming references through
/// [`replay_agg`], which honours it.
pub fn decode_agg_rollup(
    bytes: &[u8],
) -> Result<(String, String, geoalign_agg::AggState), CoreError> {
    decode_agg_rollup_covering(bytes).map(|(source, target, _, state)| (source, target, state))
}

/// Decodes either rollup form into `(source, target, covers, state)`; a
/// first-batch rollup covers no partial (`covers == 0`).
fn decode_agg_rollup_covering(
    bytes: &[u8],
) -> Result<(String, String, u64, geoalign_agg::AggState), CoreError> {
    let mut r = ByteReader::new(bytes);
    let (source, target, covers, state_bytes) = (|| {
        let version = r.u8()?;
        if version != CODEC_VERSION && version != AGG_COVERING_VERSION {
            return Err(geoalign_store::CodecError::new(format!(
                "unsupported aggregate-rollup codec version {version}"
            )));
        }
        let source = r.str()?.to_owned();
        let target = r.str()?.to_owned();
        let covers = if version == AGG_COVERING_VERSION {
            r.u64()?
        } else {
            0
        };
        let state_bytes = r.bytes()?;
        r.expect_end()?;
        Ok((source, target, covers, state_bytes))
    })()
    .map_err(|e| persist_err("aggregate rollup", e))?;
    let state = geoalign_agg::AggState::decode(state_bytes)
        .map_err(|e| persist_err("aggregate rollup", e))?;
    Ok((source, target, covers, state))
}

/// Encodes one batch's partial state. The system pair lives in the
/// rollup the partial belongs to, so the payload is the state alone.
pub fn encode_agg_partial(state: &geoalign_agg::AggState) -> Vec<u8> {
    let state_bytes = state.encode();
    let mut w = ByteWriter::with_capacity(16 + state_bytes.len());
    w.u8(CODEC_VERSION);
    w.bytes(&state_bytes);
    w.into_vec()
}

/// Decodes one batch partial written by [`encode_agg_partial`].
pub fn decode_agg_partial(bytes: &[u8]) -> Result<geoalign_agg::AggState, CoreError> {
    let mut r = ByteReader::new(bytes);
    let state_bytes = (|| {
        let version = r.u8()?;
        if version != CODEC_VERSION {
            return Err(geoalign_store::CodecError::new(format!(
                "unsupported aggregate-partial codec version {version}"
            )));
        }
        let state_bytes = r.bytes()?;
        r.expect_end()?;
        Ok(state_bytes)
    })()
    .map_err(|e| persist_err("aggregate partial", e))?;
    geoalign_agg::AggState::decode(state_bytes).map_err(|e| persist_err("aggregate partial", e))
}

/// One streaming reference rebuilt from its `agg/` records by
/// [`replay_agg`].
#[derive(Debug, Clone)]
pub struct ReplayedAgg {
    /// The `n` of its `agg/<n>` rollup key (first-ingest order).
    pub index: u64,
    /// Source system.
    pub source: String,
    /// Target system.
    pub target: String,
    /// The rollup with every partial it does not cover merged in.
    pub state: geoalign_agg::AggState,
    /// The highest partial sequence number the rollup already holds (0
    /// for a first-batch rollup); partials up to it are skipped.
    pub covers: u64,
    /// How many partials were merged into the rollup.
    pub partials_merged: usize,
    /// The lowest partial sequence number whose record may still be in
    /// the store (covered leftovers of an interrupted compaction
    /// included); equal to `next_seq` when none is.
    pub first_seq: u64,
    /// The sequence number the next batch's partial takes: one past the
    /// highest partial seen or covered.
    pub next_seq: u64,
}

/// Turns a store's `agg/` records into one merged state per streaming
/// reference, in first-ingest order — the single reader of the layout,
/// shared by the server's warm start and `geoalign agg inspect`. Records
/// merge in key order: each rollup, then its partials in sequence order,
/// skipping the ones a compacted rollup covers. [`AggState::merge`] is
/// split-invariant, so the result is bit-identical to the state the
/// server held in memory, whether it had compacted or not.
///
/// [`AggState::merge`]: geoalign_agg::AggState::merge
pub fn replay_agg(store: &geoalign_store::Store) -> Result<Vec<ReplayedAgg>, CoreError> {
    let mut replayed: Vec<ReplayedAgg> = Vec::new();
    for (key, bytes) in store.iter_prefix(AGG_PREFIX) {
        let bad_key = || CoreError::Persist {
            detail: format!("aggregate record: malformed key '{key}'"),
        };
        let rest = &key[AGG_PREFIX.len()..];
        let (index, seq) = match rest.split_once('/') {
            None => (rest, None),
            Some((index, seq)) => (index, Some(seq.parse::<u64>().map_err(|_| bad_key())?)),
        };
        let index = index.parse::<u64>().map_err(|_| bad_key())?;
        let Some(seq) = seq else {
            let (source, target, covers, state) = decode_agg_rollup_covering(&bytes)?;
            replayed.push(ReplayedAgg {
                index,
                source,
                target,
                state,
                covers,
                partials_merged: 0,
                first_seq: covers + 1,
                next_seq: covers + 1,
            });
            continue;
        };
        let Some(slot) = replayed.last_mut().filter(|slot| slot.index == index) else {
            return Err(CoreError::Persist {
                detail: format!("aggregate partial '{key}' has no rollup"),
            });
        };
        slot.first_seq = slot.first_seq.min(seq);
        if seq <= slot.covers {
            continue;
        }
        let partial = decode_agg_partial(&bytes)?;
        slot.state
            .merge(&partial)
            .map_err(|e| persist_err(&format!("aggregate partial '{key}'"), e))?;
        slot.partials_merged += 1;
        slot.next_seq = slot.next_seq.max(seq + 1);
    }
    Ok(replayed)
}

fn write_reference_data(w: &mut ByteWriter, r: &ReferenceData) {
    w.str(r.name());
    w.str(r.source().attribute());
    w.f64_slice(r.source().values());
    let dm = r.dm();
    w.str(dm.attribute());
    w.u64(dm.n_source() as u64);
    w.u64(dm.n_target() as u64);
    w.u64(dm.nnz() as u64);
    for (i, j, v) in dm.matrix().iter() {
        w.u64(i as u64);
        w.u64(j as u64);
        w.f64(v);
    }
}

fn read_reference_data(r: &mut ByteReader<'_>) -> Result<ReferenceData, CoreError> {
    let what = "reference data";
    let name = r.str().map_err(|e| persist_err(what, e))?.to_owned();
    let attr = r.str().map_err(|e| persist_err(what, e))?.to_owned();
    let values = r
        .f64_vec("source aggregates")
        .map_err(|e| persist_err(what, e))?;
    let source = AggregateVector::new(attr, values).map_err(|e| persist_err(what, e))?;
    let dm_attr = r.str().map_err(|e| persist_err(what, e))?.to_owned();
    let n_source = r.len_u64("dm n_source").map_err(|e| persist_err(what, e))?;
    let n_target = r.len_u64("dm n_target").map_err(|e| persist_err(what, e))?;
    let nnz = r.len_u64("dm nnz").map_err(|e| persist_err(what, e))?;
    // Each triple takes 24 bytes; reject a lying count before allocating.
    if nnz.checked_mul(24).is_none_or(|b| b > r.remaining()) {
        return Err(CoreError::Persist {
            detail: format!("{what}: nnz {nnz} exceeds remaining payload"),
        });
    }
    let mut triples = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        let i = r.len_u64("dm row").map_err(|e| persist_err(what, e))?;
        let j = r.len_u64("dm col").map_err(|e| persist_err(what, e))?;
        let v = r.f64().map_err(|e| persist_err(what, e))?;
        triples.push((i, j, v));
    }
    let dm = DisaggregationMatrix::from_triples(dm_attr, n_source, n_target, triples)
        .map_err(|e| persist_err(what, e))?;
    ReferenceData::new(name, source, dm)
}

// ---------------------------------------------------------------------
// Prepared crosswalks
// ---------------------------------------------------------------------

fn solver_byte(solver: SimplexSolver) -> u8 {
    match solver {
        SimplexSolver::ProjectedGradient => 0,
        SimplexSolver::ActiveSet => 1,
    }
}

fn solver_from_byte(b: u8) -> Result<SimplexSolver, CoreError> {
    match b {
        0 => Ok(SimplexSolver::ProjectedGradient),
        1 => Ok(SimplexSolver::ActiveSet),
        other => Err(CoreError::Persist {
            detail: format!("unknown solver byte {other}"),
        }),
    }
}

fn write_dense(w: &mut ByteWriter, m: &DMatrix) {
    w.u64(m.nrows() as u64);
    w.u64(m.ncols() as u64);
    for j in 0..m.ncols() {
        for &v in m.column(j) {
            w.f64(v);
        }
    }
}

fn read_dense(r: &mut ByteReader<'_>, what: &str) -> Result<DMatrix, CoreError> {
    let rows = r.len_u64("nrows").map_err(|e| persist_err(what, e))?;
    let cols = r.len_u64("ncols").map_err(|e| persist_err(what, e))?;
    let cells = rows
        .checked_mul(cols)
        .filter(|&c| c.checked_mul(8).is_some_and(|b| b <= r.remaining()))
        .ok_or_else(|| CoreError::Persist {
            detail: format!("{what}: {rows}x{cols} exceeds remaining payload"),
        })?;
    let _ = cells;
    let mut m = DMatrix::zeros(rows, cols);
    for j in 0..cols {
        for cell in m.column_mut(j) {
            *cell = r.f64().map_err(|e| persist_err(what, e))?;
        }
    }
    Ok(m)
}

/// Encodes a prepared crosswalk, snapshot state and all.
pub fn encode_prepared(p: &PreparedCrosswalk) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(
        256 + p.design.nrows() * p.design.ncols() * 8
            + p.refs.iter().map(|r| r.dm().nnz() * 24).sum::<usize>(),
    );
    w.u8(CODEC_VERSION);
    w.u8(solver_byte(p.config.solver));
    w.u8(u8::from(p.config.normalize));
    w.u64(p.n_source as u64);
    w.u64(p.n_target as u64);
    w.u64(p.prepare_time.as_micros().min(u128::from(u64::MAX)) as u64);
    w.u64(p.refs.len() as u64);
    for r in &p.refs {
        write_reference_data(&mut w, r);
    }
    write_dense(&mut w, &p.design);
    write_dense(&mut w, p.gram.gram());
    w.f64(p.gram.frobenius());
    w.u64(p.row_sums_per_ref.len() as u64);
    for sums in &p.row_sums_per_ref {
        w.f64_slice(sums);
    }
    w.into_vec()
}

/// Decodes a prepared crosswalk. The result is byte-identical in
/// behavior to the encoded instance: same design matrix bits, same Gram
/// state bits, and the references' transposes rebuilt from the decoded
/// references, so `apply_values` produces bit-equal estimates.
pub fn decode_prepared(bytes: &[u8]) -> Result<PreparedCrosswalk, CoreError> {
    let what = "prepared crosswalk";
    let mut r = ByteReader::new(bytes);
    let version = r.u8().map_err(|e| persist_err(what, e))?;
    if version != CODEC_VERSION {
        return Err(CoreError::Persist {
            detail: format!("unsupported prepared-crosswalk codec version {version}"),
        });
    }
    let solver = solver_from_byte(r.u8().map_err(|e| persist_err(what, e))?)?;
    let normalize = match r.u8().map_err(|e| persist_err(what, e))? {
        0 => false,
        1 => true,
        other => {
            return Err(CoreError::Persist {
                detail: format!("bad normalize byte {other}"),
            })
        }
    };
    let n_source = r.len_u64("n_source").map_err(|e| persist_err(what, e))?;
    let n_target = r.len_u64("n_target").map_err(|e| persist_err(what, e))?;
    let prepare_micros = r.u64().map_err(|e| persist_err(what, e))?;
    let n_refs = r.len_u64("ref count").map_err(|e| persist_err(what, e))?;
    if n_refs > bytes.len() {
        return Err(CoreError::Persist {
            detail: format!("{what}: ref count {n_refs} exceeds payload"),
        });
    }
    let mut refs = Vec::with_capacity(n_refs);
    for _ in 0..n_refs {
        refs.push(read_reference_data(&mut r)?);
    }
    let design = read_dense(&mut r, "design matrix")?;
    let gram_matrix = read_dense(&mut r, "gram matrix")?;
    let frobenius = r.f64().map_err(|e| persist_err(what, e))?;
    let gram =
        GramSystem::from_parts(gram_matrix, frobenius).map_err(|e| persist_err("gram state", e))?;
    let n_sums = r
        .len_u64("row-sum vector count")
        .map_err(|e| persist_err(what, e))?;
    if n_sums != n_refs {
        return Err(CoreError::Persist {
            detail: format!("{what}: {n_sums} row-sum vectors for {n_refs} references"),
        });
    }
    let mut row_sums_per_ref = Vec::with_capacity(n_sums);
    for _ in 0..n_sums {
        row_sums_per_ref.push(r.f64_vec("row sums").map_err(|e| persist_err(what, e))?);
    }
    r.expect_end().map_err(|e| persist_err(what, e))?;

    // Cross-field consistency: the decoded parts must describe one
    // coherent snapshot, or apply() would index out of bounds.
    if design.nrows() != n_source || design.ncols() != n_refs || gram.n() != n_refs {
        return Err(CoreError::Persist {
            detail: format!(
                "{what}: inconsistent shapes (design {}x{}, gram n={}, n_source={n_source}, refs={n_refs})",
                design.nrows(),
                design.ncols(),
                gram.n()
            ),
        });
    }
    for (k, reference) in refs.iter().enumerate() {
        if reference.n_source() != n_source
            || reference.n_target() != n_target
            || row_sums_per_ref[k].len() != n_source
        {
            return Err(CoreError::Persist {
                detail: format!("{what}: reference {k} shapes inconsistent with snapshot"),
            });
        }
    }
    // The transposes and row-sum maxima are derived state: rebuilt from
    // the decoded references and row sums, so the encoded bytes carry
    // none of them.
    let transposes = refs.iter().map(transpose_of).collect();
    let row_sum_max = row_sums_per_ref.iter().map(|s| row_sum_max(s)).collect();
    Ok(PreparedCrosswalk {
        config: GeoAlignConfig { solver, normalize },
        refs,
        transposes,
        design,
        gram,
        row_sums_per_ref,
        row_sum_max,
        n_source,
        n_target,
        prepare_time: Duration::from_micros(prepare_micros),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::GeoAlign;

    fn make_ref(name: &str, rows: &[&[f64]]) -> ReferenceData {
        let n_source = rows.len();
        let n_target = rows[0].len();
        let mut triples = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    triples.push((i, j, v));
                }
            }
        }
        let dm = DisaggregationMatrix::from_triples(name, n_source, n_target, triples).unwrap();
        ReferenceData::from_dm(name, dm).unwrap()
    }

    #[test]
    fn unit_system_roundtrip() {
        let ids = vec!["a".to_owned(), "unité/b".to_owned(), String::new()];
        let bytes = encode_unit_system(&ids);
        assert_eq!(decode_unit_system(&bytes).unwrap(), ids);
        // Truncations error rather than panic.
        for cut in 0..bytes.len() {
            assert!(decode_unit_system(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn reference_roundtrip_is_exact() {
        let r = make_ref("pop", &[&[3.5, 0.0, 1.25], &[0.0, 2.0, 0.0]]);
        let bytes = encode_reference("zip", "county", &r);
        let (source, target, back) = decode_reference(&bytes).unwrap();
        assert_eq!(source, "zip");
        assert_eq!(target, "county");
        assert_eq!(back.name(), "pop");
        assert_eq!(back.n_source(), 2);
        assert_eq!(back.n_target(), 3);
        for (x, y) in back.source().values().iter().zip(r.source().values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let got: Vec<_> = back.dm().matrix().iter().collect();
        let want: Vec<_> = r.dm().matrix().iter().collect();
        assert_eq!(got.len(), want.len());
        for ((i1, j1, v1), (i2, j2, v2)) in got.iter().zip(&want) {
            assert_eq!((i1, j1), (i2, j2));
            assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn prepared_roundtrip_applies_bit_identically() {
        let r1 = make_ref("a", &[&[3.0, 1.0], &[2.0, 2.0], &[0.0, 5.0]]);
        let r2 = make_ref("b", &[&[1.0, 1.0], &[4.0, 0.0], &[1.0, 1.0]]);
        let prepared = GeoAlign::new().prepare(&[&r1, &r2]).unwrap();
        let bytes = encode_prepared(&prepared);
        let revived = decode_prepared(&bytes).unwrap();
        assert_eq!(revived.n_source(), prepared.n_source());
        assert_eq!(revived.n_target(), prepared.n_target());
        assert_eq!(revived.config(), prepared.config());
        let obj = AggregateVector::new("obj", vec![10.0, 20.0, 30.0]).unwrap();
        let cold = prepared.apply_values(&obj).unwrap();
        let warm = revived.apply_values(&obj).unwrap();
        for (x, y) in warm.estimate.iter().zip(&cold.estimate) {
            assert_eq!(x.to_bits(), y.to_bits(), "estimates diverged");
        }
        for (x, y) in warm.weights.iter().zip(&cold.weights) {
            assert_eq!(x.to_bits(), y.to_bits(), "weights diverged");
        }
        // Re-encoding the revived snapshot reproduces the exact bytes.
        assert_eq!(encode_prepared(&revived), bytes);
    }

    #[test]
    fn prepared_decode_rejects_damage() {
        let r = make_ref("a", &[&[1.0, 2.0], &[3.0, 4.0]]);
        let prepared = GeoAlign::new().prepare(&[&r]).unwrap();
        let bytes = encode_prepared(&prepared);
        // Every truncation errors cleanly.
        for cut in 0..bytes.len() {
            assert!(decode_prepared(&bytes[..cut]).is_err(), "cut {cut} decoded");
        }
        // Unsupported version byte.
        let mut vbytes = bytes.clone();
        vbytes[0] = 99;
        assert!(decode_prepared(&vbytes).is_err());
        // Bad solver byte.
        let mut sbytes = bytes.clone();
        sbytes[1] = 7;
        assert!(decode_prepared(&sbytes).is_err());
    }

    #[test]
    fn agg_rollup_roundtrip_is_byte_identical() {
        let mut state = geoalign_agg::AggState::new("pop", 3, 2).unwrap();
        state.absorb(0, 1, 2.5).unwrap();
        state.absorb(2, 0, 1e-300).unwrap();
        state.absorb(0, 1, -0.5).unwrap();
        state.record_skipped();
        let bytes = encode_agg_rollup("zip", "county", &state);
        let (source, target, back) = decode_agg_rollup(&bytes).unwrap();
        assert_eq!(source, "zip");
        assert_eq!(target, "county");
        assert_eq!(back, state);
        // Re-encoding reproduces the exact bytes (codec is canonical).
        assert_eq!(encode_agg_rollup(&source, &target, &back), bytes);
    }

    #[test]
    fn agg_rollup_decode_rejects_damage() {
        let mut state = geoalign_agg::AggState::new("pop", 2, 2).unwrap();
        state.absorb(1, 0, 4.0).unwrap();
        let bytes = encode_agg_rollup("a", "b", &state);
        for cut in 0..bytes.len() {
            assert!(decode_agg_rollup(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut vbytes = bytes.clone();
        vbytes[0] = 99;
        assert!(decode_agg_rollup(&vbytes).is_err());
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_agg_rollup(&extended).is_err());
    }

    fn state_of(points: &[(usize, usize, f64)], skipped: u64) -> geoalign_agg::AggState {
        let mut state = geoalign_agg::AggState::new("pop", 3, 2).unwrap();
        for &(si, ti, w) in points {
            state.absorb(si, ti, w).unwrap();
        }
        for _ in 0..skipped {
            state.record_skipped();
        }
        state
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, geoalign_store::Store) {
        let dir =
            std::env::temp_dir().join(format!("geoalign-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = geoalign_store::StoreOptions {
            fsync: false,
            ..Default::default()
        };
        let store = geoalign_store::Store::open_with(&dir, opts).unwrap();
        (dir, store)
    }

    #[test]
    fn agg_partial_and_covering_rollup_roundtrip() {
        let state = state_of(&[(0, 1, 2.5), (2, 0, 1e-300)], 1);
        let bytes = encode_agg_partial(&state);
        assert_eq!(decode_agg_partial(&bytes).unwrap(), state);
        for cut in 0..bytes.len() {
            assert!(decode_agg_partial(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let rollup = encode_agg_rollup_covering("zip", "county", &state, 7);
        assert_eq!(
            decode_agg_rollup_covering(&rollup).unwrap(),
            ("zip".to_owned(), "county".to_owned(), 7, state.clone())
        );
        for cut in 0..rollup.len() {
            assert!(
                decode_agg_rollup_covering(&rollup[..cut]).is_err(),
                "cut {cut}"
            );
        }
        // A first-batch rollup covers nothing.
        let first = encode_agg_rollup("zip", "county", &state);
        assert_eq!(decode_agg_rollup_covering(&first).unwrap().2, 0);
        // Partials sort after their rollup, in batch order, before the
        // next rollup.
        assert!(agg_key(3) < agg_partial_key(3, 1));
        assert!(agg_partial_key(3, 9) < agg_partial_key(3, 10));
        assert!(agg_partial_key(3, u64::MAX) < agg_key(4));
    }

    #[test]
    fn replay_merges_partials_and_skips_covered_ones() {
        let (dir, store) = tmp_store("replay");
        let batches = [
            state_of(&[(0, 1, 2.5), (1, 1, 0.25)], 0),
            state_of(&[(0, 1, -0.5), (2, 0, 4.0)], 2),
            state_of(&[(1, 1, 1e-310)], 0),
        ];
        let mut whole = batches[0].clone();
        whole.merge(&batches[1]).unwrap();
        whole.merge(&batches[2]).unwrap();
        let other = state_of(&[(2, 1, 9.0)], 0);

        store
            .put(&agg_key(0), encode_agg_rollup("zip", "county", &batches[0]))
            .unwrap();
        store
            .put(&agg_key(1), encode_agg_rollup("zip", "tract", &other))
            .unwrap();
        for (seq, batch) in (1..).zip(&batches[1..]) {
            store
                .put(&agg_partial_key(0, seq), encode_agg_partial(batch))
                .unwrap();
        }
        let replayed = replay_agg(&store).unwrap();
        assert_eq!(replayed.len(), 2);
        let zip = &replayed[0];
        assert_eq!(
            (zip.index, zip.source.as_str(), zip.target.as_str()),
            (0, "zip", "county")
        );
        assert_eq!(
            zip.state.encode(),
            whole.encode(),
            "bit-identical to one state"
        );
        assert_eq!(
            (zip.partials_merged, zip.first_seq, zip.next_seq),
            (2, 1, 3)
        );
        assert_eq!(replayed[1].state, other);
        assert_eq!((replayed[1].first_seq, replayed[1].next_seq), (1, 1));

        // A compaction that wrote its rollup but crashed before deleting
        // the partials it covers: they are skipped, not merged again.
        store
            .put(
                &agg_key(0),
                encode_agg_rollup_covering("zip", "county", &whole, 2),
            )
            .unwrap();
        let replayed = replay_agg(&store).unwrap();
        assert_eq!(replayed[0].state.encode(), whole.encode());
        assert_eq!(replayed[0].partials_merged, 0);
        assert_eq!((replayed[0].first_seq, replayed[0].next_seq), (1, 3));
        // A later batch after the compaction is merged on top.
        let late = state_of(&[(0, 0, 1.0)], 0);
        store
            .put(&agg_partial_key(0, 3), encode_agg_partial(&late))
            .unwrap();
        whole.merge(&late).unwrap();
        let replayed = replay_agg(&store).unwrap();
        assert_eq!(replayed[0].state.encode(), whole.encode());
        assert_eq!((replayed[0].partials_merged, replayed[0].next_seq), (1, 4));

        // A partial with no rollup ahead of it is damage, not a batch.
        store
            .put(&agg_partial_key(7, 1), encode_agg_partial(&late))
            .unwrap();
        assert!(replay_agg(&store).is_err());
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keys_are_stable_and_unambiguous() {
        assert_eq!(system_key("zip"), "sys/zip");
        assert_eq!(system_name_from_key("sys/a/b"), Some("a/b"));
        assert_eq!(system_name_from_key("ref/00000001"), None);
        assert_eq!(reference_key(3), "ref/00000003");
        assert!(reference_key(2) < reference_key(10));
        assert_eq!(agg_key(7), "agg/00000007");
        assert!(agg_key(2) < agg_key(10));
        let a = prepared_key(&CrosswalkKey {
            source: "a".into(),
            target: "b/c".into(),
            fingerprint: 0xabcd,
        });
        let b = prepared_key(&CrosswalkKey {
            source: "a/b".into(),
            target: "c".into(),
            fingerprint: 0xabcd,
        });
        assert_ne!(a, b, "length prefixes must disambiguate '/' in names");
        assert!(a.starts_with(PREPARED_PREFIX));
    }
}
