//! Reference attributes: the ancillary data GeoAlign learns from.
//!
//! A reference is an attribute whose *true* disaggregation between source
//! and target units is known (paper §3.3: "the disaggregation matrix of the
//! reference attribute ... is often wrapped up in a crosswalk relationship
//! file").

use crate::error::CoreError;
use geoalign_partition::{AggregateVector, DisaggregationMatrix};
use std::sync::Arc;

/// A reference attribute: its aggregates at the source level plus its
/// disaggregation matrix to the target level.
///
/// Both sit behind [`Arc`]s, so a clone shares them instead of copying:
/// the pipeline, the prepared snapshots built from it and the snapshots
/// the delta path derives from those all hold one copy of each matrix.
#[derive(Debug, Clone)]
pub struct ReferenceData {
    name: String,
    source: Arc<AggregateVector>,
    dm: Arc<DisaggregationMatrix>,
}

impl ReferenceData {
    /// Bundles a source aggregate vector with its disaggregation matrix.
    /// The vector length must match the matrix's source dimension.
    pub fn new(
        name: impl Into<String>,
        source: AggregateVector,
        dm: DisaggregationMatrix,
    ) -> Result<Self, CoreError> {
        Self::sharing(name.into(), source, Arc::new(dm))
    }

    /// [`ReferenceData::new`] over a matrix that may already be shared.
    fn sharing(
        name: String,
        source: AggregateVector,
        dm: Arc<DisaggregationMatrix>,
    ) -> Result<Self, CoreError> {
        if source.len() != dm.n_source() {
            return Err(CoreError::InconsistentReference { name });
        }
        Ok(Self {
            name,
            source: Arc::new(source),
            dm,
        })
    }

    /// Builds the reference directly from a disaggregation matrix, taking
    /// the source aggregates as the matrix's row sums (always consistent).
    pub fn from_dm(name: impl Into<String>, dm: DisaggregationMatrix) -> Result<Self, CoreError> {
        let source = dm.source_aggregates().map_err(CoreError::Partition)?;
        Ok(Self {
            name: name.into(),
            source: Arc::new(source),
            dm: Arc::new(dm),
        })
    }

    /// The streaming fold's delta path: this reference with the
    /// disaggregation-matrix entries at `cells` set to the given values
    /// (`(source, target, value)` in strictly increasing `(source,
    /// target)` order) and only the touched rows' source totals summed
    /// again. For a reference whose source totals are its matrix's row
    /// sums — every one [`ReferenceData::from_dm`] builds — the result is
    /// bit-identical to `from_dm` over the patched matrix, and the checks
    /// fail with the errors [`DisaggregationMatrix::from_triples`] and
    /// `from_dm` raise, in their order of precedence: any non-finite cell,
    /// then the first negative cell, then a touched row whose total is not
    /// finite. Cells set to zero drop their entries. Costs one linear pass
    /// over the matrix and the source vector plus the touched rows.
    pub fn with_dm_cells_set(&self, cells: &[(usize, usize, f64)]) -> Result<Self, CoreError> {
        use geoalign_partition::PartitionError;
        if cells.iter().any(|&(_, _, v)| !v.is_finite()) {
            return Err(PartitionError::Linalg(geoalign_linalg::LinalgError::NonFinite).into());
        }
        if let Some(&(index, _, value)) = cells.iter().find(|&&(_, _, v)| v < 0.0) {
            return Err(PartitionError::NegativeAggregate { index, value }.into());
        }
        let matrix = self
            .dm
            .matrix()
            .with_entries_set(cells)
            .map_err(PartitionError::Linalg)?;
        let dm = DisaggregationMatrix::new(self.dm.attribute(), matrix)?;
        let mut totals = self.source.values().to_vec();
        let mut last_row = None;
        for &(i, _, _) in cells {
            if last_row != Some(i) {
                // The summation `CsrMatrix::row_sums` runs.
                totals[i] = dm.matrix().row(i).1.iter().sum();
                last_row = Some(i);
            }
        }
        let source =
            AggregateVector::new(self.source.attribute(), totals).map_err(CoreError::Partition)?;
        Ok(Self {
            name: self.name.clone(),
            source: Arc::new(source),
            dm: Arc::new(dm),
        })
    }

    /// Reference name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source-level aggregates.
    pub fn source(&self) -> &AggregateVector {
        &self.source
    }

    /// Disaggregation matrix to the target level.
    pub fn dm(&self) -> &DisaggregationMatrix {
        &self.dm
    }

    /// Number of source units.
    pub fn n_source(&self) -> usize {
        self.dm.n_source()
    }

    /// Number of target units.
    pub fn n_target(&self) -> usize {
        self.dm.n_target()
    }

    /// Returns a copy with the source aggregates replaced (used by the
    /// noise-robustness experiments, which perturb the source level only).
    /// The disaggregation matrix is shared, not copied.
    pub fn with_source(&self, source: AggregateVector) -> Result<Self, CoreError> {
        Self::sharing(self.name.clone(), source, Arc::clone(&self.dm))
    }
}

/// Validates a set of references against an objective: consistent source
/// count everywhere and a single common target count. Returns the common
/// `(n_source, n_target)`.
pub fn validate_references(
    objective_source_len: usize,
    refs: &[&ReferenceData],
) -> Result<(usize, usize), CoreError> {
    let Some(first) = refs.first() else {
        return Err(CoreError::NoReferences);
    };
    let n_target = first.n_target();
    for r in refs {
        if r.n_source() != objective_source_len {
            return Err(CoreError::SourceMismatch {
                objective: objective_source_len,
                reference: r.n_source(),
                name: r.name().to_owned(),
            });
        }
        if r.n_target() != n_target {
            return Err(CoreError::TargetMismatch {
                left: n_target,
                right: r.n_target(),
                name: r.name().to_owned(),
            });
        }
    }
    Ok((objective_source_len, n_target))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(
        n_source: usize,
        n_target: usize,
        triples: &[(usize, usize, f64)],
    ) -> DisaggregationMatrix {
        DisaggregationMatrix::from_triples("r", n_source, n_target, triples.iter().copied())
            .unwrap()
    }

    #[test]
    fn construction_checks_consistency() {
        let m = dm(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let good = AggregateVector::new("r", vec![1.0, 2.0]).unwrap();
        let r = ReferenceData::new("r", good, m.clone()).unwrap();
        assert_eq!(r.n_source(), 2);
        assert_eq!(r.n_target(), 2);
        let short = AggregateVector::new("r", vec![1.0]).unwrap();
        assert!(ReferenceData::new("r", short, m).is_err());
    }

    #[test]
    fn from_dm_derives_row_sums() {
        let m = dm(2, 3, &[(0, 0, 1.0), (0, 1, 2.0), (1, 2, 4.0)]);
        let r = ReferenceData::from_dm("r", m).unwrap();
        assert_eq!(r.source().values(), &[3.0, 4.0]);
    }

    #[test]
    fn validation_catches_mismatches() {
        let a = ReferenceData::from_dm("a", dm(2, 2, &[(0, 0, 1.0)])).unwrap();
        let b = ReferenceData::from_dm("b", dm(2, 3, &[(0, 0, 1.0)])).unwrap();
        let c = ReferenceData::from_dm("c", dm(3, 2, &[(0, 0, 1.0)])).unwrap();
        assert!(validate_references(2, &[]).is_err());
        assert_eq!(validate_references(2, &[&a]).unwrap(), (2, 2));
        assert!(matches!(
            validate_references(2, &[&a, &b]),
            Err(CoreError::TargetMismatch { .. })
        ));
        assert!(matches!(
            validate_references(2, &[&a, &c]),
            Err(CoreError::SourceMismatch { .. })
        ));
    }

    #[test]
    fn setting_dm_cells_matches_from_dm_and_its_errors() {
        let base = ReferenceData::from_dm("r", dm(3, 2, &[(0, 0, 1.0), (0, 1, 2.0), (2, 1, 4.0)]))
            .unwrap();
        let patched = base
            .with_dm_cells_set(&[(0, 1, 0.0), (1, 0, 0.1), (1, 1, 0.2)])
            .unwrap();
        let want = ReferenceData::from_dm(
            "r",
            dm(3, 2, &[(0, 0, 1.0), (1, 0, 0.1), (1, 1, 0.2), (2, 1, 4.0)]),
        )
        .unwrap();
        assert_eq!(patched.dm().matrix(), want.dm().matrix());
        let bits = |r: &ReferenceData| -> Vec<u64> {
            r.source().values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&patched), bits(&want));
        assert_eq!(patched.name(), "r");

        // Non-finite wins over an earlier negative cell, as the COO push
        // rejects it before the matrix checks signs.
        let err = base
            .with_dm_cells_set(&[(0, 0, -1.0), (2, 0, f64::INFINITY)])
            .unwrap_err();
        let coo_err =
            DisaggregationMatrix::from_triples("r", 3, 2, [(0, 0, -1.0), (2, 0, f64::INFINITY)])
                .unwrap_err();
        assert_eq!(err, CoreError::Partition(coo_err));
        let err = base
            .with_dm_cells_set(&[(1, 0, -2.0), (2, 0, -3.0)])
            .unwrap_err();
        let dm_err = DisaggregationMatrix::from_triples("r", 3, 2, [(1, 0, -2.0), (2, 0, -3.0)])
            .unwrap_err();
        assert_eq!(err, CoreError::Partition(dm_err));
        // Finite cells whose row total overflows fail like from_dm.
        let err = base
            .with_dm_cells_set(&[(2, 0, f64::MAX), (2, 1, f64::MAX)])
            .unwrap_err();
        let overflow = dm(3, 2, &[(2, 0, f64::MAX), (2, 1, f64::MAX)]);
        assert_eq!(err, ReferenceData::from_dm("r", overflow).unwrap_err());
    }

    #[test]
    fn with_source_swaps_aggregates() {
        let r = ReferenceData::from_dm("r", dm(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)])).unwrap();
        let swapped = r
            .with_source(AggregateVector::new("r", vec![5.0, 6.0]).unwrap())
            .unwrap();
        assert_eq!(swapped.source().values(), &[5.0, 6.0]);
        assert_eq!(swapped.dm().nnz(), r.dm().nnz());
    }
}
