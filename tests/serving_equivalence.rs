//! The serving engine's correctness contract, the serving sibling of
//! `streaming_equivalence.rs` / `tracking_equivalence.rs`: a session
//! served by the sharded engine — multiplexed with other sessions on a
//! shard — produces **bitwise identical** output to running it
//! standalone through the device's own `*_streaming` entry point.
//! Invariance across shard counts is pinned in `determinism_matrix.rs`.

mod common;

use common::*;
use wivi::prelude::*;

#[test]
fn served_sessions_equal_standalone() {
    let reference: Vec<ModeOutput> = (0..N_SESSIONS).map(run_standalone).collect();

    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    for i in 0..N_SESSIONS {
        engine.open(session(i)).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.outputs.len(), N_SESSIONS, "sessions lost");
    for (i, reference) in reference.iter().enumerate() {
        let out = report
            .output(id_of(i))
            .unwrap_or_else(|| panic!("session {i} missing"));
        assert_eq!(out.n_samples, out.n_requested);
        assert!(!out.closed_early);
        assert_result_eq(
            &out.result,
            reference,
            &format!("session {i} ({:?})", mode_of(i)),
        );
    }
}

#[test]
fn served_tracking_sessions_produce_nonempty_reports() {
    // Guard against vacuous equivalence: the mixed-mode set must
    // actually exercise tracks, events, counting, and gesture decoding.
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    for i in 0..N_SESSIONS {
        engine.open(session(i)).unwrap();
    }
    let report = engine.finish();

    let mut saw_tracks = false;
    let mut saw_variance = false;
    let mut saw_columns = false;
    let mut saw_bits = false;
    let mut saw_frames = false;
    for out in &report.outputs {
        assert!(out.n_columns > 0, "session {} made no columns", out.id);
        match &out.result {
            ModeOutput::TrackTargets(report) => saw_tracks |= !report.tracks.is_empty(),
            ModeOutput::Count(mean) => saw_variance |= mean.is_some(),
            ModeOutput::Track(spec) => saw_columns |= spec.is_some(),
            ModeOutput::Gestures(d) => {
                saw_bits |= d.as_ref().is_some_and(|d| !d.bits.is_empty());
            }
            ModeOutput::Image(report) => saw_frames |= report.n_windows() > 0,
        }
    }
    assert!(saw_tracks, "no tracking session produced tracks");
    assert!(saw_variance, "no counting session produced a variance");
    assert!(saw_columns, "no track session produced a spectrogram");
    assert!(saw_bits, "no gesture session decoded bits");
    assert!(saw_frames, "no imaging session produced frames");
}

#[test]
fn merged_event_stream_is_ordered_and_complete() {
    let mut engine = ServeEngine::start(ServeConfig::with_shards(2));
    for i in 0..N_SESSIONS {
        engine.open(session(i)).unwrap();
    }
    let report = engine.finish();

    // Ordered by (time, session id, seq)...
    for w in report.events.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        assert!(
            a.time_s < b.time_s
                || (a.time_s == b.time_s
                    && (a.session < b.session || (a.session == b.session && a.seq < b.seq))),
            "merged stream out of order: {a:?} before {b:?}"
        );
    }
    // ...timestamps carry the session's serving-clock offset...
    for e in &report.events {
        let out = report.output(e.session).unwrap();
        assert_eq!(
            e.time_s.to_bits(),
            (out.start_s + e.event.time_s).to_bits(),
            "event time not offset by session start"
        );
    }
    // ...and exactly every session event appears once.
    for out in &report.outputs {
        let events = out.result.events();
        let merged: Vec<&wivi::serve::ServeEvent> = report
            .events
            .iter()
            .filter(|e| e.session == out.id)
            .collect();
        assert_eq!(merged.len(), events.len(), "session {} events", out.id);
        let mut seqs: Vec<usize> = merged.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..events.len()).collect::<Vec<_>>());
        for e in &merged {
            assert_eq!(e.event, events[e.seq], "session {} seq {}", out.id, e.seq);
        }
    }
}
