//! The GeoAlign algorithm (paper §3.4, Algorithm 1).
//!
//! Three steps:
//!
//! 1. **Weight learning** — normalize the objective and every reference at
//!    the source level, then solve the simplex-constrained least-squares
//!    problem of Eq. 15 for the weight vector `β`.
//! 2. **Disaggregation** — form the estimated disaggregation matrix of the
//!    objective per Eq. 14: the `β`-weighted combination of the references'
//!    disaggregation matrices, renormalized per source row and rescaled to
//!    the objective's raw source aggregates (volume preservation, Eq. 16).
//! 3. **Re-aggregation** — column sums of the estimated matrix give the
//!    objective's estimates in target units (Eq. 17).

use crate::error::CoreError;
use crate::reference::{validate_references, ReferenceData};
use geoalign_linalg::simplex_ls::{self, SimplexSolver};
use geoalign_linalg::{CsrMatrix, DMatrix};
use geoalign_obs::span;
use geoalign_partition::AggregateVector;
use std::time::{Duration, Instant};

/// Tunable knobs of the GeoAlign algorithm. The defaults reproduce the
/// paper's method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeoAlignConfig {
    /// Which Eq. 15 solver to use.
    pub solver: SimplexSolver,
    /// Max-normalize objective and references at the source level before
    /// weight learning (paper §3.4). Disabling this is an ablation that
    /// demonstrates why scale adjustment matters when references live on
    /// heterogeneous scales.
    pub normalize: bool,
}

impl Default for GeoAlignConfig {
    fn default() -> Self {
        Self {
            solver: SimplexSolver::default(),
            normalize: true,
        }
    }
}

/// Wall-clock time spent in each phase of a GeoAlign run. The paper (§4.3)
/// reports that over 90% of runtime is spent computing the disaggregation
/// matrix; these timers let the benchmarks verify the same holds here.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Time spent snapshotting the objective-independent state (Gram
    /// matrix, reference row sums) in [`GeoAlign::prepare`]. Zero for
    /// one-shot [`GeoAlign::estimate`] runs and for
    /// [`crate::PreparedCrosswalk::apply`], where that cost is amortized.
    pub prepare: Duration,
    /// Time in weight learning (Eq. 15).
    pub weight_learning: Duration,
    /// Time in disaggregation (Eq. 14).
    pub disaggregation: Duration,
    /// Time in re-aggregation (Eq. 17).
    pub reaggregation: Duration,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.prepare + self.weight_learning + self.disaggregation + self.reaggregation
    }
}

/// Full output of a GeoAlign run.
#[derive(Debug, Clone)]
pub struct GeoAlignResult {
    /// Estimated aggregates of the objective in target units (`â_o^t`).
    pub estimate: Vec<f64>,
    /// Learned reference weights `β` (non-negative, sum to 1), in the
    /// order the references were supplied.
    pub weights: Vec<f64>,
    /// The estimated disaggregation matrix `D̂M_o`.
    pub dm_estimate: CsrMatrix,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
}

/// The GeoAlign multi-reference crosswalk interpolator.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeoAlign {
    config: GeoAlignConfig,
}

impl GeoAlign {
    /// Interpolator with the paper's default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interpolator with an explicit configuration.
    pub fn with_config(config: GeoAlignConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &GeoAlignConfig {
        &self.config
    }

    /// Runs Algorithm 1: estimates the objective's aggregates in target
    /// units from its source aggregates and the supplied references.
    pub fn estimate(
        &self,
        objective_source: &AggregateVector,
        refs: &[&ReferenceData],
    ) -> Result<GeoAlignResult, CoreError> {
        let (n_source, n_target) = validate_references(objective_source.len(), refs)?;
        let _estimate_span = span!("estimate", refs = refs.len(), n_source = n_source);
        let mut timings = PhaseTimings::default();

        // --- Step 1: weight learning (Eq. 15) ---
        let t0 = Instant::now();
        let weights = {
            let _span = span!("weight_learning");
            self.learn_weights(objective_source, refs)?
        };
        timings.weight_learning = t0.elapsed();

        // --- Step 2: disaggregation (Eq. 14) ---
        let t1 = Instant::now();
        let dm_estimate = {
            let _span = span!("disaggregation");
            disaggregate(objective_source, refs, &weights, n_source, n_target)?
        };
        timings.disaggregation = t1.elapsed();

        // --- Step 3: re-aggregation (Eq. 17) ---
        let t2 = Instant::now();
        let estimate = {
            let _span = span!("reaggregation");
            dm_estimate.col_sums()
        };
        timings.reaggregation = t2.elapsed();

        Ok(GeoAlignResult {
            estimate,
            weights,
            dm_estimate,
            timings,
        })
    }

    /// Step 1 alone: the learned weight vector `β`.
    pub fn learn_weights(
        &self,
        objective_source: &AggregateVector,
        refs: &[&ReferenceData],
    ) -> Result<Vec<f64>, CoreError> {
        validate_references(objective_source.len(), refs)?;
        let columns: Vec<Vec<f64>> = refs
            .iter()
            .map(|r| {
                if self.config.normalize {
                    r.source().normalized()
                } else {
                    r.source().values().to_vec()
                }
            })
            .collect();
        let a = DMatrix::from_columns(&columns)?;
        let b = if self.config.normalize {
            objective_source.normalized()
        } else {
            objective_source.values().to_vec()
        };
        let solution = {
            let _span = span!("solver", refs = refs.len());
            simplex_ls::solve(&a, &b, self.config.solver)?
        };
        crate::obs::record_solver(solution.iterations, &solution.beta);
        Ok(solution.beta)
    }
}

/// Eq. 14: the estimated weighted disaggregation matrix of the objective.
///
/// For each source unit `i` with `Σ_k a_rk^s[i] != 0`:
///
/// ```text
/// D̂M_o[i, j] = (Σ_k β'_k DM_rk[i, j]) / (Σ_k β'_k a_rk^s[i]) · a_o^s[i]
/// ```
///
/// and 0 otherwise. The effective weights `β'_k = β_k / max_i a_rk^s[i]`
/// realize §3.4's "we adapt it to the scale of reference attributes and
/// insert back the weights": the learned `β` lives on the *normalized*
/// scale, so applying it to the raw matrices would let a reference's
/// measurement unit (people vs thousands of people) distort the mixture.
/// With the scale adaptation the estimate is exactly invariant to
/// rescaling any reference — "the magnitude of the references should not
/// be a contributing factor" (§3.4). Rows whose *weighted* denominator vanishes while the
/// unweighted reference total does not (all mass on references that are
/// zero at `i`) fall back to the unweighted combination for that row, which
/// keeps the estimate volume-preserving wherever any reference has signal.
///
/// The denominator's `a_rk^s` is taken from the disaggregation matrices'
/// **row sums**, to which it is exactly tied by Eq. 6 — not from the
/// separately supplied source vectors. The distinction matters only when
/// the two disagree (e.g. the noisy-reference experiments of §4.4.1, where
/// the aggregates are perturbed but the crosswalk files stay accurate);
/// keeping the denominator consistent with the numerator makes the
/// disaggregation exactly invariant to such noise, which is how the paper's
/// Figure 7 ratios stay near 1 even at 50% noise while the noise still
/// perturbs weight learning.
fn disaggregate(
    objective_source: &AggregateVector,
    refs: &[&ReferenceData],
    weights: &[f64],
    n_source: usize,
    n_target: usize,
) -> Result<CsrMatrix, CoreError> {
    let mats: Vec<&CsrMatrix> = refs.iter().map(|r| r.dm().matrix()).collect();
    let row_sums_per_ref: Vec<Vec<f64>> = refs.iter().map(|r| r.dm().matrix().row_sums()).collect();
    disaggregate_with(
        &mats,
        &row_sums_per_ref,
        objective_source.values(),
        weights,
        n_source,
        n_target,
    )
}

/// [`disaggregate`] on precomputed per-reference row sums. One-shot
/// [`GeoAlign::estimate`] computes the row sums on the fly; the prepared
/// path ([`crate::PreparedCrosswalk`]) snapshots them once and reuses them
/// per query — both funnel through this function, so the two paths are the
/// same arithmetic by construction.
pub(crate) fn disaggregate_with(
    mats: &[&CsrMatrix],
    row_sums_per_ref: &[Vec<f64>],
    obj: &[f64],
    weights: &[f64],
    n_source: usize,
    n_target: usize,
) -> Result<CsrMatrix, CoreError> {
    // Scale-adapted weights: β'_k = β_k / max_i a_rk^s[i] (see above).
    let adapted = scale_adapted_weights(weights, row_sums_per_ref);
    // Numerator: Σ_k β'_k DM_rk, assembled sparsely.
    let numerator = CsrMatrix::weighted_sum(mats, &adapted)?;

    // Weighted and unweighted denominators per source unit, from the DM
    // row sums (see the doc comment above for why not the source vectors).
    let (weighted, unweighted) = row_denominators(row_sums_per_ref, &adapted, n_source);

    // Row scale factors: a_o^s[i] / denominator[i].
    let mut row_factors = vec![0.0; n_source];
    let mut fallback_rows: Vec<usize> = Vec::new();
    for i in 0..n_source {
        if weighted[i] > 0.0 {
            row_factors[i] = obj[i] / weighted[i];
        } else if unweighted[i] > 0.0 {
            // Weighted mass vanished at this unit: fall back to the
            // unweighted reference mixture for the row.
            fallback_rows.push(i);
        }
        // Else: no reference has any mass here; the paper's Eq. 14 assigns
        // zero and volume preservation becomes approximate (Eq. 16's "≈").
    }

    let mut scaled = numerator.scale_rows(&row_factors)?;

    if !fallback_rows.is_empty() {
        // Rebuild the affected rows from the unweighted sum.
        let uniform = vec![1.0 / mats.len() as f64; mats.len()];
        let fallback_num = CsrMatrix::weighted_sum(mats, &uniform)?;
        let mut coo = geoalign_linalg::CooMatrix::new(n_source, n_target);
        for (i, j, v) in scaled.iter() {
            coo.push(i, j, v)?;
        }
        for &i in &fallback_rows {
            let denom = unweighted[i] / mats.len() as f64;
            let (cols, vals) = fallback_num.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                coo.push(i, j as usize, v / denom * obj[i])?;
            }
        }
        scaled = coo.to_csr();
    }

    Ok(scaled)
}

/// The effective weights `β'_k = β_k / max_i a_rk^s[i]` of Eq. 14.
pub(crate) fn scale_adapted_weights(weights: &[f64], row_sums_per_ref: &[Vec<f64>]) -> Vec<f64> {
    weights
        .iter()
        .zip(row_sums_per_ref)
        .map(|(&w, sums)| adapted_weight(w, row_sum_max(sums)))
        .collect()
}

/// `max_i a_rk^s[i]`, the scale of one reference's row sums (`0.0` for
/// none). A prepared snapshot keeps it per reference, so a query never
/// re-scans the row sums.
pub(crate) fn row_sum_max(sums: &[f64]) -> f64 {
    sums.iter().copied().fold(0.0f64, f64::max)
}

/// One reference's `β'_k = β_k / max_i a_rk^s[i]`, or `0.0` when the
/// reference has no mass.
#[inline]
pub(crate) fn adapted_weight(weight: f64, row_sum_max: f64) -> f64 {
    if row_sum_max > 0.0 {
        weight / row_sum_max
    } else {
        0.0
    }
}

/// Weighted and unweighted per-source-unit denominators of Eq. 14, each
/// summed over the references in order from `+0.0`.
pub(crate) fn row_denominators(
    row_sums_per_ref: &[Vec<f64>],
    adapted: &[f64],
    n_source: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut weighted = vec![0.0; n_source];
    let mut unweighted = vec![0.0; n_source];
    for (sums, &w) in row_sums_per_ref.iter().zip(adapted) {
        for (i, &v) in sums.iter().enumerate() {
            weighted[i] += w * v;
            unweighted[i] += v;
        }
    }
    (weighted, unweighted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoalign_partition::DisaggregationMatrix;

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

    fn agg(vals: &[f64]) -> AggregateVector {
        AggregateVector::new("obj", vals.to_vec()).unwrap()
    }

    #[test]
    fn single_reference_reduces_to_dasymetric() {
        // One reference: population split 10/15 for source 0, all-in for 1.
        let r = make_ref("pop", &[&[10.0, 15.0], &[0.0, 8.0]]);
        let obj = agg(&[100.0, 50.0]);
        let out = GeoAlign::new().estimate(&obj, &[&r]).unwrap();
        assert_eq!(out.weights, vec![1.0]);
        // Source 0 splits 40/60 → 40 and 60; source 1 all to target 1.
        assert!((out.estimate[0] - 40.0).abs() < 1e-9);
        assert!((out.estimate[1] - 110.0).abs() < 1e-9);
    }

    #[test]
    fn intro_crime_example() {
        // The introduction's example: a zip with 25,000 people split
        // 10,000 / 15,000 across counties A and B; 100 crimes → 40 / 60.
        let r = make_ref("pop", &[&[10_000.0, 15_000.0]]);
        let obj = agg(&[100.0]);
        let out = GeoAlign::new().estimate(&obj, &[&r]).unwrap();
        assert!((out.estimate[0] - 40.0).abs() < 1e-9);
        assert!((out.estimate[1] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn volume_preservation_eq16() {
        let r1 = make_ref("a", &[&[3.0, 1.0], &[2.0, 2.0], &[0.0, 5.0]]);
        let r2 = make_ref("b", &[&[1.0, 1.0], &[4.0, 0.0], &[1.0, 1.0]]);
        let obj = agg(&[10.0, 20.0, 30.0]);
        let out = GeoAlign::new().estimate(&obj, &[&r1, &r2]).unwrap();
        // Row sums of the estimated DM reproduce the source aggregates.
        let sums = out.dm_estimate.row_sums();
        for (s, o) in sums.iter().zip(obj.values()) {
            assert!((s - o).abs() < 1e-9, "row sum {s} vs source {o}");
        }
        // Total mass is conserved through re-aggregation.
        let total: f64 = out.estimate.iter().sum();
        assert!((total - obj.total()).abs() < 1e-9);
        // All entries non-negative.
        for (_, _, v) in out.dm_estimate.iter() {
            assert!(v >= 0.0);
        }
    }

    #[test]
    fn weights_prefer_the_matching_reference() {
        // Objective distributed exactly like reference "good"; reference
        // "bad" is wildly different. Weight must concentrate on "good".
        let good = make_ref(
            "good",
            &[
                &[9.0, 1.0],
                &[1.0, 9.0],
                &[5.0, 5.0],
                &[8.0, 0.0],
                &[0.0, 2.0],
            ],
        );
        let bad = make_ref(
            "bad",
            &[
                &[0.0, 1.0],
                &[9.0, 0.0],
                &[1.0, 0.0],
                &[0.0, 7.0],
                &[9.0, 9.0],
            ],
        );
        // Objective at source level proportional to good's row sums.
        let gs: Vec<f64> = good.source().values().iter().map(|v| 3.0 * v).collect();
        let obj = agg(&gs);
        let ga = GeoAlign::new();
        let w = ga.learn_weights(&obj, &[&good, &bad]).unwrap();
        assert!(w[0] > 0.95, "weights {w:?}");
        let out = ga.estimate(&obj, &[&good, &bad]).unwrap();
        // Estimate follows good's target distribution scaled by 3.
        let expect = good.dm().matrix().col_sums();
        for (e, x) in out.estimate.iter().zip(&expect) {
            assert!((e - 3.0 * x).abs() < 0.3, "estimate {e} vs {x}");
        }
    }

    #[test]
    fn zero_signal_unit_gets_zero_row() {
        // Source unit 1 has zero mass in every reference: Eq. 14's
        // "otherwise 0" branch.
        let r = make_ref("r", &[&[1.0, 1.0], &[0.0, 0.0]]);
        let obj = agg(&[10.0, 7.0]);
        let out = GeoAlign::new().estimate(&obj, &[&r]).unwrap();
        let sums = out.dm_estimate.row_sums();
        assert!((sums[0] - 10.0).abs() < 1e-12);
        assert_eq!(sums[1], 0.0); // mass at unit 1 is unavoidably dropped
        let total: f64 = out.estimate.iter().sum();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_denominator_fallback() {
        // Reference "a" is zero at source unit 1, reference "b" is not.
        // Construct an objective perfectly matching "a" so that β ≈ (1, 0);
        // unit 1 then has zero *weighted* denominator but nonzero
        // unweighted total, exercising the fallback path that keeps its
        // mass instead of dropping it.
        let a = make_ref("a", &[&[8.0, 2.0], &[0.0, 0.0], &[3.0, 3.0]]);
        let b = make_ref("b", &[&[1.0, 0.0], &[2.0, 6.0], &[0.0, 1.0]]);
        // Objective proportional to a's sources except unit 1 has mass.
        let obj = agg(&[10.0, 4.0, 6.0]);
        let out = GeoAlign::new().estimate(&obj, &[&a, &b]).unwrap();
        let sums = out.dm_estimate.row_sums();
        // Unit 1's mass must be preserved through the fallback.
        assert!(
            (sums[1] - 4.0).abs() < 1e-9,
            "fallback row must preserve volume, got {sums:?} with weights {:?}",
            out.weights
        );
        let total: f64 = out.estimate.iter().sum();
        assert!((total - obj.total()).abs() < 1e-9);
    }

    #[test]
    fn weights_form_a_distribution() {
        let r1 = make_ref("a", &[&[1.0, 2.0], &[3.0, 4.0]]);
        let r2 = make_ref("b", &[&[5.0, 1.0], &[2.0, 2.0]]);
        let r3 = make_ref("c", &[&[2.0, 2.0], &[2.0, 2.0]]);
        let obj = agg(&[4.0, 9.0]);
        let out = GeoAlign::new().estimate(&obj, &[&r1, &r2, &r3]).unwrap();
        assert_eq!(out.weights.len(), 3);
        assert!(out.weights.iter().all(|&w| w >= 0.0));
        let s: f64 = out.weights.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mismatched_references_error() {
        let r1 = make_ref("a", &[&[1.0, 2.0], &[3.0, 4.0]]);
        let obj_short = agg(&[1.0]);
        assert!(matches!(
            GeoAlign::new().estimate(&obj_short, &[&r1]),
            Err(CoreError::SourceMismatch { .. })
        ));
        let obj = agg(&[1.0, 2.0]);
        assert!(matches!(
            GeoAlign::new().estimate(&obj, &[]),
            Err(CoreError::NoReferences)
        ));
    }

    #[test]
    fn normalization_ablation_changes_weights_under_scale_skew() {
        // The objective's *distribution* matches the large-scale reference
        // "big", while "small" is distribution-mismatched but lives on the
        // objective's scale. With normalization the solver correctly puts
        // its weight on "big"; without it, any weight on "big" explodes the
        // residual against the small-magnitude objective, so scale — not
        // distribution similarity — dictates the weights. This is exactly
        // why §3.4 normalizes.
        let small = make_ref("small", &[&[2.0, 0.0], &[0.0, 0.5], &[0.1, 0.4]]);
        let big = make_ref("big", &[&[400.0, 500.0], &[1800.0, 200.0], &[500.0, 700.0]]);
        // obj ∝ big's source sums [900, 2000, 1200], scaled down 1000×.
        let obj = agg(&[0.9, 2.0, 1.2]);
        let with = GeoAlign::with_config(GeoAlignConfig {
            normalize: true,
            ..GeoAlignConfig::default()
        });
        let without = GeoAlign::with_config(GeoAlignConfig {
            normalize: false,
            ..GeoAlignConfig::default()
        });
        let w_norm = with.learn_weights(&obj, &[&small, &big]).unwrap();
        let w_raw = without.learn_weights(&obj, &[&small, &big]).unwrap();
        assert!(w_norm[1] > 0.95, "normalized should pick big: {w_norm:?}");
        assert!(w_raw[1] < 0.05, "raw should be scale-dominated: {w_raw:?}");
    }

    #[test]
    fn both_solvers_give_matching_estimates() {
        let r1 = make_ref("a", &[&[3.0, 1.0], &[2.0, 2.0], &[1.0, 5.0]]);
        let r2 = make_ref("b", &[&[1.0, 1.0], &[4.0, 1.0], &[2.0, 1.0]]);
        let obj = agg(&[12.0, 18.0, 9.0]);
        let pg = GeoAlign::with_config(GeoAlignConfig {
            solver: SimplexSolver::ProjectedGradient,
            normalize: true,
        })
        .estimate(&obj, &[&r1, &r2])
        .unwrap();
        let act = GeoAlign::with_config(GeoAlignConfig {
            solver: SimplexSolver::ActiveSet,
            normalize: true,
        })
        .estimate(&obj, &[&r1, &r2])
        .unwrap();
        for (p, a) in pg.estimate.iter().zip(&act.estimate) {
            assert!((p - a).abs() < 1e-4, "{p} vs {a}");
        }
    }

    #[test]
    fn timings_are_recorded() {
        let r = make_ref("a", &[&[1.0, 1.0], &[2.0, 2.0]]);
        let obj = agg(&[3.0, 4.0]);
        let out = GeoAlign::new().estimate(&obj, &[&r]).unwrap();
        // Total is the sum of the phases (sanity of the accounting).
        let total = out.timings.total();
        assert_eq!(
            total,
            out.timings.prepare
                + out.timings.weight_learning
                + out.timings.disaggregation
                + out.timings.reaggregation
        );
        // One-shot estimates have no prepare phase.
        assert_eq!(out.timings.prepare, Duration::ZERO);
    }
}
