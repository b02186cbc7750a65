//! The mergeable aggregate state and its finalize accessor — the
//! partial/accessor split of two-step aggregates applied to GeoAlign's
//! point crosswalk.
//!
//! An [`AggState`] holds one attribute's evidence between a fixed pair of
//! unit systems: an exact weight sum per `(source, target)` intersection
//! cell plus absorbed/skipped record counts. States over the same shape
//! merge commutatively and associatively with bit-identical results under
//! any split of the input (see [`crate::sum`]), and serialize through the
//! geoalign-store codec so they can checkpoint and travel.

use crate::error::AggError;
use crate::sum::ExactSum;
use geoalign_store::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::BTreeMap;

/// Version byte leading every serialized [`AggState`].
pub const AGG_CODEC_VERSION: u8 = 1;

/// A mergeable partial aggregate of weighted point records for one
/// attribute over a fixed `(source, target)` unit-system pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggState {
    attribute: String,
    n_source: u32,
    n_target: u32,
    /// Exact per-intersection-cell weight sums, keyed by
    /// `(source unit, target unit)`. A `BTreeMap` keeps iteration (and
    /// hence encoding and finalization) canonical without sorting.
    cells: BTreeMap<(u32, u32), ExactSum>,
    /// Records absorbed into cells.
    count: u64,
    /// Records skipped under an outside policy (outside either system).
    skipped: u64,
}

/// The accessor half of the two-step split: everything
/// [`AggState::finalize`] rounds out of the exact state, ready to build
/// aggregate vectors and a disaggregation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalizedAggregates {
    /// Attribute the state aggregates.
    pub attribute: String,
    /// Per-source-unit totals (exact row sums, rounded once).
    pub source: Vec<f64>,
    /// Per-target-unit totals (exact column sums, rounded once).
    pub target: Vec<f64>,
    /// Intersection-cell totals in `(source, target)` order.
    pub triples: Vec<(usize, usize, f64)>,
    /// Records absorbed into cells.
    pub count: u64,
    /// Records skipped as outside either system.
    pub skipped: u64,
}

impl AggState {
    /// An empty state for `attribute` over `n_source × n_target` units.
    pub fn new(
        attribute: impl Into<String>,
        n_source: usize,
        n_target: usize,
    ) -> Result<Self, AggError> {
        let attribute = attribute.into();
        if attribute.is_empty() {
            return Err(AggError::EmptyAttribute);
        }
        let n_source = dimension("source", n_source)?;
        let n_target = dimension("target", n_target)?;
        Ok(AggState {
            attribute,
            n_source,
            n_target,
            cells: BTreeMap::new(),
            count: 0,
            skipped: 0,
        })
    }

    /// Absorbs one record: `weight` lands in intersection cell
    /// `(source, target)` exactly.
    pub fn absorb(&mut self, source: usize, target: usize, weight: f64) -> Result<(), AggError> {
        if !weight.is_finite() {
            return Err(AggError::NonFiniteWeight);
        }
        if source >= self.n_source as usize {
            return Err(AggError::UnitOutOfBounds {
                axis: "source",
                index: source,
                len: self.n_source as usize,
            });
        }
        if target >= self.n_target as usize {
            return Err(AggError::UnitOutOfBounds {
                axis: "target",
                index: target,
                len: self.n_target as usize,
            });
        }
        self.cells
            .entry((source as u32, target as u32))
            .or_default()
            .add(weight);
        self.count += 1;
        Ok(())
    }

    /// Notes a record skipped as outside either unit system.
    pub fn record_skipped(&mut self) {
        self.skipped += 1;
    }

    /// Folds `other` in. Merging is commutative and associative, and any
    /// split of the same input merges to bit-identical state.
    pub fn merge(&mut self, other: &AggState) -> Result<(), AggError> {
        self.check_mergeable(other)?;
        for (key, sum) in &other.cells {
            self.cells.entry(*key).or_default().merge(sum);
        }
        self.count += other.count;
        self.skipped += other.skipped;
        crate::obs::merge_total().inc();
        Ok(())
    }

    /// The error [`AggState::merge`] would return for `other`, without
    /// merging: the two states must aggregate the same attribute over the
    /// same shape.
    fn check_mergeable(&self, other: &AggState) -> Result<(), AggError> {
        if self.attribute != other.attribute {
            return Err(AggError::StateMismatch {
                detail: format!("attribute '{}' vs '{}'", self.attribute, other.attribute),
            });
        }
        if self.n_source != other.n_source || self.n_target != other.n_target {
            return Err(AggError::StateMismatch {
                detail: format!(
                    "shape {}x{} vs {}x{}",
                    self.n_source, self.n_target, other.n_source, other.n_target
                ),
            });
        }
        Ok(())
    }

    /// The preview half of an in-place fold: for every cell `other`
    /// touches, in `(source, target)` order, the value that cell rounds to
    /// once `other` is merged in — bit-identical to the triple
    /// [`AggState::finalize`] would emit for it after the merge. Neither
    /// state changes, so a caller can validate the values and commit with
    /// [`AggState::merge`] only when nothing else can fail. Costs
    /// `O(cells(other) · log cells(self))`, independent of how much the
    /// untouched cells hold.
    pub fn merged_cells(&self, other: &AggState) -> Result<Vec<(usize, usize, f64)>, AggError> {
        self.check_mergeable(other)?;
        Ok(other
            .cells
            .iter()
            .map(|(&(si, ti), sum)| {
                let value = match self.cells.get(&(si, ti)) {
                    Some(mine) => {
                        let mut merged = mine.clone();
                        merged.merge(sum);
                        merged.value()
                    }
                    None => sum.value(),
                };
                (si as usize, ti as usize, value)
            })
            .collect())
    }

    /// The accessor: rounds the exact state into per-unit totals and
    /// intersection triples. Marginals are exact row/column sums of the
    /// cells rounded once, so they are consistent with the triples and
    /// independent of absorption order.
    pub fn finalize(&self) -> FinalizedAggregates {
        let mut row = vec![ExactSum::new(); self.n_source as usize];
        let mut col = vec![ExactSum::new(); self.n_target as usize];
        let mut triples = Vec::with_capacity(self.cells.len());
        for (&(si, ti), sum) in &self.cells {
            row[si as usize].merge(sum);
            col[ti as usize].merge(sum);
            triples.push((si as usize, ti as usize, sum.value()));
        }
        FinalizedAggregates {
            attribute: self.attribute.clone(),
            source: row.iter().map(ExactSum::value).collect(),
            target: col.iter().map(ExactSum::value).collect(),
            triples,
            count: self.count,
            skipped: self.skipped,
        }
    }

    /// Attribute the state aggregates.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// Number of source units.
    pub fn n_source(&self) -> usize {
        self.n_source as usize
    }

    /// Number of target units.
    pub fn n_target(&self) -> usize {
        self.n_target as usize
    }

    /// Records absorbed into cells.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records skipped as outside either system.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Number of nonempty intersection cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether no record has been absorbed or skipped.
    pub fn is_empty(&self) -> bool {
        self.count == 0 && self.skipped == 0
    }

    /// Serializes the state. Encoding is canonical: two states that merge
    /// equal encode byte-identically.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64 + self.cells.len() * 40);
        w.u8(AGG_CODEC_VERSION);
        w.str(&self.attribute);
        w.u32(self.n_source);
        w.u32(self.n_target);
        w.u64(self.count);
        w.u64(self.skipped);
        w.u64(self.cells.len() as u64);
        for (&(si, ti), sum) in &self.cells {
            w.u32(si);
            w.u32(ti);
            sum.write(&mut w);
        }
        w.into_vec()
    }

    /// Decodes a state written by [`AggState::encode`]. Corrupt payloads
    /// error; they never panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, AggError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u8()?;
        if version != AGG_CODEC_VERSION {
            return Err(AggError::Codec {
                detail: format!("unsupported aggregate codec version {version}"),
            });
        }
        let attribute = r.str()?.to_string();
        if attribute.is_empty() {
            return Err(AggError::EmptyAttribute);
        }
        let n_source = r.u32()?;
        let n_target = r.u32()?;
        if n_source == 0 || n_target == 0 {
            return Err(AggError::Codec {
                detail: "zero unit-system dimension".to_string(),
            });
        }
        let count = r.u64()?;
        let skipped = r.u64()?;
        let n_cells = r.len_u64("cell count")?;
        // Each cell needs at least key (8) + two empty magnitudes (16).
        if n_cells
            .checked_mul(24)
            .is_none_or(|bytes| bytes > r.remaining())
        {
            return Err(
                CodecError::new(format!("cell count {n_cells} exceeds remaining payload")).into(),
            );
        }
        let mut cells = BTreeMap::new();
        let mut last: Option<(u32, u32)> = None;
        for _ in 0..n_cells {
            let si = r.u32()?;
            let ti = r.u32()?;
            if si >= n_source || ti >= n_target {
                return Err(AggError::Codec {
                    detail: format!("cell ({si}, {ti}) outside {n_source}x{n_target}"),
                });
            }
            if last.is_some_and(|prev| prev >= (si, ti)) {
                return Err(AggError::Codec {
                    detail: "cells are not strictly ordered".to_string(),
                });
            }
            last = Some((si, ti));
            cells.insert((si, ti), ExactSum::read(&mut r)?);
        }
        if (n_cells as u64) > count {
            return Err(AggError::Codec {
                detail: format!("{n_cells} cells but only {count} records"),
            });
        }
        r.expect_end()?;
        Ok(AggState {
            attribute,
            n_source,
            n_target,
            cells,
            count,
            skipped,
        })
    }
}

/// Validates a unit-system dimension and narrows it to the cell key space.
fn dimension(axis: &'static str, len: usize) -> Result<u32, AggError> {
    if len == 0 {
        return Err(AggError::ZeroDimension { axis });
    }
    u32::try_from(len).map_err(|_| AggError::DimensionTooLarge { axis, len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(points: &[(usize, usize, f64)]) -> AggState {
        let mut s = AggState::new("pop", 3, 2).unwrap();
        for &(si, ti, w) in points {
            s.absorb(si, ti, w).unwrap();
        }
        s
    }

    #[test]
    fn construction_validates_inputs() {
        assert_eq!(AggState::new("", 3, 2), Err(AggError::EmptyAttribute));
        assert!(matches!(
            AggState::new("x", 0, 2),
            Err(AggError::ZeroDimension { axis: "source" })
        ));
        let mut s = AggState::new("x", 3, 2).unwrap();
        assert!(matches!(
            s.absorb(3, 0, 1.0),
            Err(AggError::UnitOutOfBounds { axis: "source", .. })
        ));
        assert!(matches!(
            s.absorb(0, 2, 1.0),
            Err(AggError::UnitOutOfBounds { axis: "target", .. })
        ));
        assert_eq!(s.absorb(0, 0, f64::NAN), Err(AggError::NonFiniteWeight));
        assert!(s.is_empty());
    }

    #[test]
    fn finalize_produces_consistent_marginals() {
        let s = state_with(&[(0, 0, 1.0), (0, 1, 2.0), (2, 1, 4.0), (0, 0, 0.5)]);
        let f = s.finalize();
        assert_eq!(f.source, vec![3.5, 0.0, 4.0]);
        assert_eq!(f.target, vec![1.5, 6.0]);
        assert_eq!(f.triples, vec![(0, 0, 1.5), (0, 1, 2.0), (2, 1, 4.0)]);
        assert_eq!(f.count, 4);
        assert_eq!(f.skipped, 0);
    }

    #[test]
    fn merge_requires_matching_shape_and_attribute() {
        let mut a = AggState::new("pop", 3, 2).unwrap();
        let b = AggState::new("income", 3, 2).unwrap();
        assert!(matches!(a.merge(&b), Err(AggError::StateMismatch { .. })));
        let c = AggState::new("pop", 4, 2).unwrap();
        assert!(matches!(a.merge(&c), Err(AggError::StateMismatch { .. })));
    }

    #[test]
    fn merge_is_split_invariant() {
        let points = [
            (0, 0, 0.1),
            (1, 1, 2.5),
            (0, 0, -0.1),
            (2, 0, 1e300),
            (1, 1, 5e-324),
            (2, 0, -1e300),
        ];
        let whole = state_with(&points);
        for split in 0..=points.len() {
            let mut left = state_with(&points[..split]);
            let right = state_with(&points[split..]);
            left.merge(&right).unwrap();
            assert_eq!(left, whole, "split at {split}");
            assert_eq!(left.encode(), whole.encode());
        }
    }

    #[test]
    fn merged_cells_preview_the_merge_without_mutating() {
        let base = state_with(&[(0, 0, 1.0), (0, 1, 0.1), (2, 1, 4.0), (1, 0, 1e308)]);
        let batch = state_with(&[(0, 1, -0.1), (1, 0, 1e308), (2, 0, 5e-324), (2, 1, 0.5)]);
        let before = base.clone();
        let preview = base.merged_cells(&batch).unwrap();
        assert_eq!(base, before, "the preview leaves the state alone");
        let mut merged = base.clone();
        merged.merge(&batch).unwrap();
        let finalized = merged.finalize().triples;
        let touched: Vec<(usize, usize, f64)> = finalized
            .into_iter()
            .filter(|&(si, ti, _)| preview.iter().any(|&(s, t, _)| (s, t) == (si, ti)))
            .collect();
        assert_eq!(preview.len(), touched.len());
        for (p, f) in preview.iter().zip(&touched) {
            assert_eq!((p.0, p.1), (f.0, f.1));
            assert_eq!(p.2.to_bits(), f.2.to_bits(), "cell ({}, {})", p.0, p.1);
        }
        // The exact cancellation rounds to +0.0; the sum past f64::MAX to +inf.
        assert_eq!(preview[0], (0, 1, 0.0));
        assert_eq!(preview[1], (1, 0, f64::INFINITY));
        let other = AggState::new("income", 3, 2).unwrap();
        assert!(matches!(
            base.merged_cells(&other),
            Err(AggError::StateMismatch { .. })
        ));
    }

    #[test]
    fn skip_counts_travel_through_merge() {
        let mut a = state_with(&[(0, 0, 1.0)]);
        a.record_skipped();
        let mut b = state_with(&[]);
        b.record_skipped();
        b.record_skipped();
        a.merge(&b).unwrap();
        assert_eq!(a.skipped(), 3);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn codec_round_trips_byte_identically() {
        let mut s = state_with(&[(0, 1, 0.25), (2, 0, 7.5), (0, 1, 1e-310)]);
        s.record_skipped();
        let bytes = s.encode();
        let decoded = AggState::decode(&bytes).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn decode_rejects_corruption() {
        let s = state_with(&[(0, 0, 1.0), (1, 1, 2.0)]);
        let bytes = s.encode();
        // Truncation at every offset errors, never panics.
        for cut in 0..bytes.len() {
            assert!(AggState::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is caught.
        let mut long = bytes.clone();
        long.push(0);
        assert!(AggState::decode(&long).is_err());
        // Wrong version byte.
        let mut wrong = bytes;
        wrong[0] = 99;
        assert!(AggState::decode(&wrong).is_err());
    }

    #[test]
    fn decode_rejects_unordered_cells() {
        let mut s = AggState::new("x", 2, 2).unwrap();
        s.absorb(0, 0, 1.0).unwrap();
        s.absorb(1, 1, 1.0).unwrap();
        let bytes = s.encode();
        // Swap the two cell keys in place: (0,0) and (1,1) are at fixed
        // offsets because both magnitudes have one limb each.
        let header = 1 + 4 + "x".len() + 4 + 4 + 8 + 8 + 8;
        let cell = 4 + 4 + (4 + 4 + 8) + (4 + 4);
        let (a, b) = (header, header + cell);
        let mut swapped = bytes.clone();
        swapped.copy_within(a..a + 8, b);
        swapped[a..a + 8].copy_from_slice(&bytes[b..b + 8]);
        assert!(AggState::decode(&swapped).is_err());
    }
}
