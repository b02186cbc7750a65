//! The pipeline's memoized pair fingerprint must always equal a full
//! `fingerprint_references` pass over the pair's references: durable
//! `prep/<fingerprint>/…` keys embed that value, so the memo may change
//! how often it is computed, never what it is. Seeded sequences of
//! registrations and in-place replacements (first, middle and last
//! position) check it after every step.

use geoalign_core::{fingerprint_references, IntegrationPipeline, ReferenceData};
use geoalign_partition::DisaggregationMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_SOURCE: usize = 7;
const N_TARGET: usize = 3;

/// A random reference over the 7 × 3 world; every source row gets at
/// least one entry.
fn random_reference(rng: &mut StdRng, name: &str) -> ReferenceData {
    let mut triples = Vec::new();
    for i in 0..N_SOURCE {
        triples.push((
            i,
            rng.random_range(0..N_TARGET),
            rng.random_range(0.5..50.0),
        ));
        if rng.random_bool(0.4) {
            triples.push((
                i,
                rng.random_range(0..N_TARGET),
                rng.random_range(0.5..50.0),
            ));
        }
    }
    let dm = DisaggregationMatrix::from_triples(name, N_SOURCE, N_TARGET, triples).unwrap();
    ReferenceData::from_dm(name, dm).unwrap()
}

fn world() -> IntegrationPipeline {
    let mut p = IntegrationPipeline::new();
    p.register_system("zip", (0..N_SOURCE).map(|i| format!("z{i}")));
    p.register_system("county", (0..N_TARGET).map(|j| format!("c{j}")));
    p
}

fn full_pass(p: &IntegrationPipeline, source: &str, target: &str) -> u64 {
    let refs: Vec<&ReferenceData> = p.references(source, target).iter().collect();
    fingerprint_references(&refs)
}

fn assert_memo(p: &IntegrationPipeline, context: &str) {
    for (s, t) in [("zip", "county"), ("county", "zip")] {
        assert_eq!(
            p.fingerprint(s, t),
            full_pass(p, s, t),
            "{context}: memo of {s} -> {t} diverged from a full pass"
        );
    }
}

#[test]
fn memoized_fingerprint_tracks_every_register_and_replace() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = world();
        assert_memo(&p, &format!("seed {seed}, empty pipeline"));
        for step in 0..30 {
            let n = p.reference_count("zip", "county");
            let name = format!("r{}", rng.random_range(0..4u32));
            let reference = random_reference(&mut rng, &name);
            let position = match step % 3 {
                0 => 0,
                1 => n / 2,
                _ => n.saturating_sub(1),
            };
            let action = if n == 0 || rng.random_bool(0.25) {
                p.register_reference("zip", "county", reference).unwrap();
                "register".to_owned()
            } else {
                p.replace_reference("zip", "county", position, reference)
                    .unwrap();
                format!("replace #{position} of {n}")
            };
            assert_memo(&p, &format!("seed {seed}, step {step}: {action}"));
        }
        // A second pair keeps its own memo.
        let back =
            DisaggregationMatrix::from_triples("back", N_TARGET, N_SOURCE, [(0, 0, 1.0)]).unwrap();
        p.register_reference(
            "county",
            "zip",
            ReferenceData::from_dm("back", back).unwrap(),
        )
        .unwrap();
        assert_memo(&p, &format!("seed {seed}, second pair"));
    }
}

#[test]
fn rejected_updates_leave_the_memo_unchanged() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut p = world();
    for k in 0..3 {
        let r = random_reference(&mut rng, &format!("r{k}"));
        p.register_reference("zip", "county", r).unwrap();
    }
    let before = p.fingerprint("zip", "county");
    let r = random_reference(&mut rng, "late");
    assert!(p.replace_reference("zip", "county", 3, r).is_err());
    let wrong = DisaggregationMatrix::from_triples("wrong", 2, N_TARGET, [(0, 0, 1.0)]).unwrap();
    let wrong = ReferenceData::from_dm("wrong", wrong).unwrap();
    assert!(p
        .replace_reference("zip", "county", 0, wrong.clone())
        .is_err());
    assert!(p.register_reference("zip", "county", wrong).is_err());
    assert_eq!(p.fingerprint("zip", "county"), before);
    assert_memo(&p, "after rejected updates");
    // Replacing a reference with an identical copy keeps the value.
    let same = p.references("zip", "county")[1].clone();
    p.replace_reference("zip", "county", 1, same).unwrap();
    assert_eq!(p.fingerprint("zip", "county"), before);
}
