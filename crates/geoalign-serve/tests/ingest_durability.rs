//! Durability of the streaming-ingest records: a slot's first batch is
//! its rollup `agg/<n>`, every later batch logs only its own partial
//! `agg/<n>/<seq>`, and `/checkpoint` compacts the partials into a
//! rollup that records which partials it covers. Each test reopens a
//! data dir the way a restart after a crash would, and requires the
//! reopened server to answer `/crosswalk` byte-identically to the server
//! it should be:
//!
//! * a WAL cut at every byte of the last partial record recovers to a
//!   one-shot server fed exactly the batches that stayed durable;
//! * a crash at every byte of a compaction (after the rollups, after
//!   each delete) recovers to the state before the compaction, with no
//!   batch merged twice;
//! * a data dir holding only whole-state rollups — the layout servers
//!   wrote before batch partials — opens and answers unchanged;
//! * a warm restart after `/checkpoint` answers as before it.

use geoalign_agg::AggState;
use geoalign_core::persist;
use geoalign_serve::{route, AppState, Json, Request};
use geoalign_store::{first_segment_path, Store};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ZIPS: [&str; 4] = ["z1", "z2", "z3", "z4"];
const COUNTIES: [&str; 3] = ["A", "B", "C"];

/// Batches with repeated cells, cells new to the stream and one unknown
/// unit (skipped).
const BATCHES: [&[(&str, &str, f64)]; 4] = [
    &[("z1", "A", 2.0), ("z1", "A", 2.0), ("z2", "B", 1.5)],
    &[("z2", "B", 0.25), ("z3", "C", 4.0), ("q9", "A", 1.0)],
    &[("z4", "C", 3.0), ("z1", "B", 1e-3), ("z2", "B", 1.5)],
    &[("z1", "A", 0.5), ("z3", "B", 7.25), ("z4", "A", 5e-324)],
];

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.to_owned(),
        path: path.to_owned(),
        query: String::new(),
        version: "HTTP/1.1".to_owned(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

fn post_ok(state: &AppState, path: &str, body: &str) -> Json {
    let r = route(state, &request("POST", path, body));
    assert_eq!(
        r.status,
        200,
        "POST {path}: {}",
        String::from_utf8_lossy(&r.body)
    );
    geoalign_serve::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap()
}

fn register_world(state: &AppState) {
    post_ok(
        state,
        "/systems",
        r#"{"name":"zip","units":["z1","z2","z3","z4"]}"#,
    );
    post_ok(
        state,
        "/systems",
        r#"{"name":"county","units":["A","B","C"]}"#,
    );
    post_ok(
        state,
        "/references",
        r#"{"source":"zip","target":"county","name":"population",
           "entries":[["z1","A",120],["z1","B",40],["z2","B",75],
                      ["z3","B",10],["z3","C",90],["z4","C",55]]}"#,
    );
}

fn ingest_body(attribute: &str, points: &[(&str, &str, f64)]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|(s, t, w)| format!(r#"["{s}","{t}",{w:e}]"#))
        .collect();
    format!(
        r#"{{"source":"zip","target":"county","attribute":"{attribute}","points":[{}]}}"#,
        items.join(",")
    )
}

/// The `/crosswalk` columns, the part that must match across servers
/// (`cache_hit` legitimately differs).
fn crosswalk_columns(state: &AppState) -> String {
    let body = r#"{"source":"zip","target":"county","attributes":[
        {"name":"a","values":[10,7.25,0.5,3]},{"name":"b","values":[1,2,4,8]}]}"#;
    let doc = post_ok(state, "/crosswalk", body);
    doc.get("columns").unwrap().to_string()
}

/// A fresh in-memory server fed `batches` of each attribute in one shot
/// per attribute.
fn one_shot_columns(attributes: &[&str], batches: &[&[(&str, &str, f64)]]) -> String {
    let state = AppState::new(8);
    register_world(&state);
    for attribute in attributes {
        let all: Vec<(&str, &str, f64)> = batches.iter().flat_map(|b| b.iter().copied()).collect();
        if !all.is_empty() {
            post_ok(&state, "/ingest", &ingest_body(attribute, &all));
        }
    }
    crosswalk_columns(&state)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "geoalign-ingest-durability-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Copies every file of `from` into a fresh `to`.
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn wal_len(dir: &Path) -> usize {
    std::fs::metadata(first_segment_path(dir)).unwrap().len() as usize
}

/// Reopens a copy of `pristine` whose WAL is cut to `cut` bytes.
fn reopen_cut(pristine: &Path, scratch: &Path, wal: &[u8], cut: usize) -> Arc<AppState> {
    copy_dir(pristine, scratch);
    std::fs::write(first_segment_path(scratch), &wal[..cut]).unwrap();
    AppState::open_durable(scratch, 8).unwrap()
}

fn total_points(doc: &Json) -> f64 {
    doc.get("total_points").unwrap().as_f64().unwrap()
}

#[test]
fn wal_cut_inside_the_last_partial_recovers_the_durable_batches() {
    let dir = tmp_dir("cut-partial");
    let scratch = tmp_dir("cut-partial-scratch");
    let (before, after) = {
        let state = AppState::open_durable(&dir, 8).unwrap();
        register_world(&state);
        crosswalk_columns(&state);
        for batch in &BATCHES[..3] {
            post_ok(&state, "/ingest", &ingest_body("footfall", batch));
        }
        // Nothing else is queued: the last fold appends exactly its
        // partial (the refreshed cache entry is not written back).
        state.durable().unwrap().flush();
        let before = wal_len(&dir);
        post_ok(&state, "/ingest", &ingest_body("footfall", BATCHES[3]));
        state.durable().unwrap().flush();
        (before, wal_len(&dir))
    };
    let keys: Vec<String> = Store::open(&dir)
        .unwrap()
        .iter_prefix(persist::AGG_PREFIX)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(
        keys,
        [
            persist::agg_key(0),
            persist::agg_partial_key(0, 1),
            persist::agg_partial_key(0, 2),
            persist::agg_partial_key(0, 3),
        ],
        "one rollup, then one partial per later batch"
    );

    let wal = std::fs::read(first_segment_path(&dir)).unwrap();
    assert_eq!(wal.len(), after);
    let three = one_shot_columns(&["footfall"], &BATCHES[..3]);
    let four = one_shot_columns(&["footfall"], &BATCHES);
    assert_ne!(three, four);
    for cut in before..=after {
        let state = reopen_cut(&dir, &scratch, &wal, cut);
        let (want, durable) = if cut == after {
            (&four, 4)
        } else {
            (&three, 3)
        };
        assert_eq!(&crosswalk_columns(&state), want, "WAL cut at {cut}");
        if cut == before + 1 || cut == after {
            // The stream resumes on top of exactly the durable batches.
            let doc = post_ok(&state, "/ingest", &ingest_body("footfall", BATCHES[0]));
            let points: usize = BATCHES[..durable].iter().map(|b| b.len()).sum::<usize>() - 1;
            assert_eq!(total_points(&doc), (points + 3) as f64, "cut {cut}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn crash_anywhere_in_a_compaction_recovers_the_state_before_it() {
    let dir = tmp_dir("compaction");
    let scratch = tmp_dir("compaction-scratch");
    let attributes = ["footfall", "sales"];
    let (before, after) = {
        let state = AppState::open_durable(&dir, 8).unwrap();
        register_world(&state);
        for batch in &BATCHES {
            for attribute in attributes {
                post_ok(&state, "/ingest", &ingest_body(attribute, batch));
            }
        }
        state.durable().unwrap().flush();
        let before = wal_len(&dir);
        assert_eq!(state.compact_ingest().unwrap(), 2);
        // Nothing left to compact: a second pass writes nothing.
        assert_eq!(state.compact_ingest().unwrap(), 0);
        (before, wal_len(&dir))
    };
    let store = Store::open(&dir).unwrap();
    let keys: Vec<String> = store
        .iter_prefix(persist::AGG_PREFIX)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys, [persist::agg_key(0), persist::agg_key(1)]);
    let replayed = persist::replay_agg(&store).unwrap();
    assert_eq!(
        replayed[0].covers, 3,
        "the rollup covers the three partials"
    );
    drop(store);

    let want = one_shot_columns(&attributes, &BATCHES);
    let wal = std::fs::read(first_segment_path(&dir)).unwrap();
    let points: usize = BATCHES.iter().map(|b| b.len()).sum::<usize>() - 1;
    for cut in before..=after {
        let state = reopen_cut(&dir, &scratch, &wal, cut);
        assert_eq!(crosswalk_columns(&state), want, "WAL cut at {cut}");
        // No batch merged twice, and the next batch folds once; a later
        // compaction then sweeps whatever the crash left behind.
        for attribute in attributes {
            let doc = post_ok(&state, "/ingest", &ingest_body(attribute, BATCHES[0]));
            assert_eq!(total_points(&doc), (points + 3) as f64, "cut {cut}");
        }
        state.compact_ingest().unwrap();
        let store = state.durable().unwrap().store();
        assert_eq!(
            store.iter_prefix(persist::AGG_PREFIX).len(),
            2,
            "cut {cut}: compaction leaves one rollup per streaming reference"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn whole_state_rollup_data_dir_opens_and_answers_unchanged() {
    let dir = tmp_dir("rollups-only");
    {
        let state = AppState::open_durable(&dir, 8).unwrap();
        register_world(&state);
    }
    // Every fold rewrote the slot's whole state under `agg/<n>` with the
    // first-batch rollup encoding; no partials, no coverage.
    {
        let store = Store::open(&dir).unwrap();
        let index = |ids: &[&str], id: &str| ids.iter().position(|u| *u == id);
        let mut state = AggState::new("footfall", ZIPS.len(), COUNTIES.len()).unwrap();
        for batch in &BATCHES {
            let mut part = AggState::new("footfall", ZIPS.len(), COUNTIES.len()).unwrap();
            for &(s, t, w) in *batch {
                match (index(&ZIPS, s), index(&COUNTIES, t)) {
                    (Some(si), Some(ti)) => part.absorb(si, ti, w).unwrap(),
                    _ => part.record_skipped(),
                }
            }
            state.merge(&part).unwrap();
            store
                .put(
                    &persist::agg_key(0),
                    persist::encode_agg_rollup("zip", "county", &state),
                )
                .unwrap();
        }
    }

    let state = AppState::open_durable(&dir, 8).unwrap();
    assert_eq!(
        crosswalk_columns(&state),
        one_shot_columns(&["footfall"], &BATCHES),
        "a rollup-only data dir answers like the one-shot server"
    );
    // The stream continues on top of it as a partial.
    let doc = post_ok(&state, "/ingest", &ingest_body("footfall", BATCHES[1]));
    assert_eq!(doc.get("references_for_pair").unwrap().as_f64(), Some(2.0));
    let mut extended: Vec<&[(&str, &str, f64)]> = BATCHES.to_vec();
    extended.push(BATCHES[1]);
    let want = one_shot_columns(&["footfall"], &extended);
    assert_eq!(crosswalk_columns(&state), want);
    drop(state);
    let state = AppState::open_durable(&dir, 8).unwrap();
    assert_eq!(crosswalk_columns(&state), want);
    drop(state);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_restart_after_checkpoint_answers_as_before() {
    let dir = tmp_dir("checkpoint");
    let before = {
        let state = AppState::open_durable(&dir, 8).unwrap();
        register_world(&state);
        crosswalk_columns(&state);
        for batch in &BATCHES {
            post_ok(&state, "/ingest", &ingest_body("footfall", batch));
        }
        let columns = crosswalk_columns(&state);
        post_ok(&state, "/checkpoint", "");
        let store = state.durable().unwrap().store();
        assert_eq!(
            store.iter_prefix(persist::AGG_PREFIX).len(),
            1,
            "the checkpoint compacted the partials into the rollup"
        );
        assert_eq!(store.recovery().snapshot_seq, 0);
        columns
    };
    let state = AppState::open_durable(&dir, 8).unwrap();
    assert!(state.durable().unwrap().store().recovery().snapshot_seq > 0);
    assert_eq!(crosswalk_columns(&state), before);
    assert_eq!(before, one_shot_columns(&["footfall"], &BATCHES));
    let doc = post_ok(&state, "/ingest", &ingest_body("footfall", BATCHES[2]));
    let points: usize = BATCHES.iter().map(|b| b.len()).sum::<usize>() - 1;
    assert_eq!(total_points(&doc), (points + 3) as f64);
    drop(state);
    std::fs::remove_dir_all(&dir).unwrap();
}
