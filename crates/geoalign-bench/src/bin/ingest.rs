//! Streaming-ingest cost along a stream: what does the serving fold —
//! `AppState::ingest` on a durable state, exactly what `POST /ingest`
//! runs after resolving unit names — cost per batch, and how many WAL
//! bytes does it write per ingested point, as the stream grows?
//!
//! A fold that costs O(batch) stays flat in both columns; one that
//! re-finalizes the whole stream or rewrites its whole rollup grows with
//! the number of distinct cells the stream has touched. Each batch is
//! timed at a paper-scale universe (the United States 30,238 × 3,142
//! unit counts by default) against a store in a temp dir, with the pair's
//! prepared crosswalk cached, so every fold also refreshes it through the
//! delta path, as on a warm server.
//!
//! Every 10th batch (every batch with `--small`) and the last are checked
//! **bit for bit** against the naive alternative — re-aggregate every point seen so
//! far and re-run the full prepare — and the time that takes is recorded
//! as `full_ms` for contrast.
//!
//! Batches arrive pre-located (unit-id triples), matching the `/ingest`
//! wire format after name resolution.
//!
//! Writes machine-readable `BENCH_ingest.json` (see `--out`).
//!
//! Usage: `ingest [--small|--medium] [--seed N] [--batches N]
//!                [--batch-points N] [--out BENCH_ingest.json]`

use geoalign_agg::AggState;
use geoalign_core::{GeoAlign, ReferenceData};
use geoalign_partition::{AggregateVector, DisaggregationMatrix};
use geoalign_serve::AppState;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const SOURCE: &str = "zip";
const TARGET: &str = "county";
const STREAM: &str = "stream";

fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A synthetic static reference: every source unit spills into 1–3 of the
/// target units around its own scaled position, weights pseudo-random.
fn synthetic_reference(
    name: &str,
    n_source: usize,
    n_target: usize,
    state: &mut u64,
) -> ReferenceData {
    let mut triples = Vec::with_capacity(n_source * 2);
    for i in 0..n_source {
        let spread = 1 + (lcg(state) * 3.0) as usize;
        let base = i * n_target / n_source;
        for k in 0..spread {
            let j = (base + k) % n_target;
            triples.push((i, j, 1.0 + lcg(state) * 99.0));
        }
    }
    let dm = DisaggregationMatrix::from_triples(name, n_source, n_target, triples)
        .expect("synthetic dm");
    ReferenceData::from_dm(name, dm).expect("synthetic reference")
}

/// One pre-located ingest batch: `(source, target, weight)` triples whose
/// target tracks the source position (spatially coherent, like real
/// points), with a few duplicates mixed in.
fn synthetic_batch(
    n_points: usize,
    n_source: usize,
    n_target: usize,
    state: &mut u64,
) -> Vec<(usize, usize, f64)> {
    let mut batch = Vec::with_capacity(n_points);
    for _ in 0..n_points {
        if !batch.is_empty() && lcg(state) < 0.05 {
            // At-least-once delivery re-sends an earlier record verbatim.
            let k = (lcg(state) * batch.len() as f64) as usize;
            batch.push(batch[k.min(batch.len() - 1)]);
            continue;
        }
        let si = (lcg(state) * n_source as f64) as usize % n_source;
        let jitter = (lcg(state) * 3.0) as usize;
        let ti = (si * n_target / n_source + jitter) % n_target;
        batch.push((si, ti, 0.5 + lcg(state) * 2.0));
    }
    batch
}

/// Bytes of every file in `dir`: the WAL segments (and any snapshot).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read data dir")
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 20180326u64;
    let mut n_batches = 50usize;
    let mut batch_points = 2_000usize;
    let mut check_every = 10usize;
    let mut out_path = "BENCH_ingest.json".to_owned();
    // Paper United States unit counts (§4.1: 30,238 zips / 3,142 counties).
    let (mut n_source, mut n_target) = (30_238usize, 3_142usize);
    let mut it = args.iter();
    let int = |v: Option<&String>, flag: &str| -> usize {
        v.unwrap_or_else(|| panic!("{flag} needs a value"))
            .parse()
            .unwrap_or_else(|_| panic!("{flag} needs an integer"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = int(it.next(), "--seed") as u64,
            "--batches" => n_batches = int(it.next(), "--batches"),
            "--batch-points" => batch_points = int(it.next(), "--batch-points"),
            "--out" => out_path = it.next().expect("--out value").clone(),
            "--small" => {
                (n_source, n_target) = (400, 80);
                batch_points = 200;
                n_batches = 8;
                check_every = 1;
            }
            "--medium" => (n_source, n_target) = (3_000, 320),
            flag => {
                eprintln!("unknown argument: {flag}");
                std::process::exit(2);
            }
        }
    }
    assert!(n_batches > 0, "--batches must be at least 1");

    let mut rng = seed;
    let statics: Vec<ReferenceData> = (0..2)
        .map(|k| synthetic_reference(&format!("ref{k}"), n_source, n_target, &mut rng))
        .collect();
    let data_dir =
        std::env::temp_dir().join(format!("geoalign-bench-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let state = AppState::open_durable(&data_dir, 8).expect("open durable state");
    {
        let mut pipeline = state.pipeline_mut();
        pipeline.register_system(SOURCE, (0..n_source).map(|i| format!("s{i}")));
        pipeline.register_system(TARGET, (0..n_target).map(|j| format!("t{j}")));
        for r in &statics {
            pipeline
                .register_reference(SOURCE, TARGET, r.clone())
                .expect("register static reference");
        }
    }
    // Cache the pair's crosswalk, as a serving node has it: every fold then
    // refreshes the cached snapshot through the delta path.
    state.prepared_crosswalk(SOURCE, TARGET).expect("prepare");
    state.durable().expect("durable").flush();

    eprintln!(
        "# ingest — {n_source}x{n_target} units, 2 static references, \
         {n_batches} batches x {batch_points} points, durable store in {}",
        data_dir.display()
    );

    let mut all_points: Vec<(usize, usize, f64)> = Vec::new();
    let mut rows_json: Vec<String> = Vec::new();
    let mut fold_ms = Vec::with_capacity(n_batches);
    let mut wal_per_point = Vec::with_capacity(n_batches);
    let mut checked = Vec::new();
    for b in 0..n_batches {
        let batch = synthetic_batch(batch_points, n_source, n_target, &mut rng);
        all_points.extend_from_slice(&batch);

        let bytes0 = dir_bytes(&data_dir);
        let t0 = Instant::now();
        let outcome = state
            .ingest(SOURCE, TARGET, STREAM, &batch, 0)
            .expect("ingest");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let wal = (dir_bytes(&data_dir) - bytes0) as f64 / batch.len() as f64;
        let cells = state.pipeline().references(SOURCE, TARGET)[outcome.position]
            .dm()
            .nnz();
        fold_ms.push(ms);
        wal_per_point.push(wal);

        // The naive alternative, checked bit for bit against the fold.
        let mut full_ms = None;
        if (b + 1) % check_every == 0 || b + 1 == n_batches {
            let t1 = Instant::now();
            let mut whole = AggState::new(STREAM, n_source, n_target).expect("state");
            for &(si, ti, w) in &all_points {
                whole.absorb(si, ti, w).expect("absorb");
            }
            let dm = DisaggregationMatrix::from_state(&whole).expect("dm from state");
            let stream = ReferenceData::from_dm(STREAM, dm).expect("reference");
            let mut refs: Vec<&ReferenceData> = statics.iter().collect();
            refs.push(&stream);
            let full = GeoAlign::new().prepare(&refs).expect("prepare");
            full_ms = Some(t1.elapsed().as_secs_f64() * 1e3);

            let (served, hit) = state.prepared_crosswalk(SOURCE, TARGET).expect("lookup");
            assert!(hit, "batch {b}: the fold refreshed the cached crosswalk");
            {
                let pipeline = state.pipeline();
                let folded = &pipeline.references(SOURCE, TARGET)[outcome.position];
                let bits = |r: &ReferenceData| -> (Vec<(usize, usize, u64)>, Vec<u64>) {
                    (
                        r.dm()
                            .matrix()
                            .iter()
                            .map(|(i, j, v)| (i, j, v.to_bits()))
                            .collect(),
                        r.source().values().iter().map(|v| v.to_bits()).collect(),
                    )
                };
                assert!(
                    bits(folded) == bits(&stream),
                    "batch {b}: folded reference diverged from re-aggregation"
                );
            }
            let probe = AggregateVector::new(
                "probe",
                (0..n_source).map(|_| lcg(&mut rng) * 100.0).collect(),
            )
            .expect("probe");
            let got = served.apply_values(&probe).expect("served apply");
            let want = full.apply_values(&probe).expect("full apply");
            for (x, y) in got.estimate.iter().zip(&want.estimate) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "batch {b}: served answers diverged from a full re-prepare"
                );
            }
            checked.push(b);
        }

        eprintln!(
            "batch {b:>3}: fold {ms:>8.3} ms, {wal:>7.2} WAL bytes/point, {cells:>6} cells, \
             {} rows touched{}",
            outcome.touched_rows,
            full_ms.map_or(String::new(), |f| format!(
                ", full {f:.3} ms (bit-identical)"
            ))
        );
        rows_json.push(format!(
            "    {{ \"batch\": {b}, \"fold_ms\": {ms:.3}, \"wal_bytes_per_point\": {wal:.2}, \
             \"stream_cells\": {cells}, \"touched_rows\": {}, \"full_ms\": {} }}",
            outcome.touched_rows,
            full_ms.map_or("null".to_owned(), |f| format!("{f:.3}"))
        ));
    }
    drop(state);
    let _ = std::fs::remove_dir_all(&data_dir);

    let edge = n_batches.min(5);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"ingest\",");
    json.push_str(&geoalign_bench::metadata_json_lines());
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(
        json,
        "  \"universe\": {{ \"n_source\": {n_source}, \"n_target\": {n_target}, \"static_references\": 2 }},"
    );
    let _ = writeln!(
        json,
        "  \"path\": \"AppState::ingest on a durable state (WAL fsync on), cached crosswalk refreshed\","
    );
    let _ = writeln!(json, "  \"batch_points\": {batch_points},");
    let _ = writeln!(json, "  \"checked_batches\": {checked:?},");
    let _ = writeln!(json, "  \"batches\": [");
    let _ = writeln!(json, "{}", rows_json.join(",\n"));
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"fold_ms_first5_median\": {:.3},",
        median(&fold_ms[..edge])
    );
    let _ = writeln!(
        json,
        "  \"fold_ms_last5_median\": {:.3},",
        median(&fold_ms[n_batches - edge..])
    );
    let _ = writeln!(
        json,
        "  \"wal_bytes_per_point_first5_median\": {:.2},",
        median(&wal_per_point[..edge])
    );
    let _ = writeln!(
        json,
        "  \"wal_bytes_per_point_last5_median\": {:.2}",
        median(&wal_per_point[n_batches - edge..])
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_ingest.json");
    eprintln!("wrote {out_path}");
    print!("{json}");
}
