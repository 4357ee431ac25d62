//! Tracking checks: batch invariance of `track_targets` (its row of the
//! shared table in `common::batch`), the tracker's window times agree
//! with the spectrogram read-out, and the crossing scenario yields
//! confirmed, announced tracks.

mod common;

use common::batch::{assert_batch_invariant, crossing_scene};
use wivi::prelude::*;
use wivi::track::TrackStatus;

fn device(seed: u64) -> WiViDevice {
    common::batch::device(crossing_scene(), seed)
}

#[test]
fn streaming_tracking_is_bitwise_identical_to_offline() {
    // The comparison covers every f64 in every Kalman state, history
    // point, and event (derived PartialEq compares them all).
    assert_batch_invariant(Mode::TrackTargets);
}

#[test]
fn streaming_report_times_match_spectrogram_times() {
    let duration = 2.0;
    let spec = device(82).track(duration);
    let report = device(82).track_targets_streaming(duration, 16);
    assert_eq!(report.times_s.len(), spec.times_s.len());
    for (a, b) in report.times_s.iter().zip(&spec.times_s) {
        assert_eq!(a.to_bits(), b.to_bits(), "window times drifted");
    }
}

#[test]
fn tracker_sees_the_crossing_subjects() {
    let report = device(83).track_targets_streaming(2.5, 16);
    assert!(!report.tracks.is_empty());
    for t in &report.tracks {
        assert!(t.confirmed_window.is_some());
        assert!(t.announced);
        assert_ne!(t.status, TrackStatus::Tentative);
    }
}
