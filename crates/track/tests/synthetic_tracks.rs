//! Tracker behaviour on synthetic spectrograms with exactly known ridge
//! trajectories: lifecycle timing, coasting through the DC guard,
//! identity preservation through crossings, event timing to the window,
//! and gesture attribution.

use wivi_core::music::MusicConfig;
use wivi_track::{EventKind, MultiTargetTracker, TrackStatus, TrackerConfig, TrackingReport};

fn thetas() -> Vec<f64> {
    (0..61).map(|i| -90.0 + 3.0 * i as f64).collect()
}

/// One spectrogram column with 30 dB ridges at the given angles over a
/// unit (0 dB) floor; ridge skirts fall off parabolically in dB so the
/// detector's sub-bin interpolation has real structure to fit.
fn column(ridges: &[f64]) -> Vec<f64> {
    let peaks: Vec<(f64, f64)> = ridges.iter().map(|&r| (r, 30.0)).collect();
    column_db(&peaks)
}

/// [`column`] with a peak height per ridge: `(angle, peak dB)`.
fn column_db(ridges: &[(f64, f64)]) -> Vec<f64> {
    thetas()
        .iter()
        .map(|&tb| {
            let mut p = 1.0;
            for &(r, peak_db) in ridges {
                let db = peak_db - 0.5 * (tb - r) * (tb - r);
                if db > 0.0 {
                    p += 10f64.powf(db / 10.0);
                }
            }
            p
        })
        .collect()
}

fn cfg() -> TrackerConfig {
    TrackerConfig::for_music(&MusicConfig::fast_test())
}

/// Runs the tracker over per-window ridge lists.
fn run(trajectories: &[Vec<f64>]) -> TrackingReport {
    let th = thetas();
    let mut tracker = MultiTargetTracker::new(cfg());
    for ridges in trajectories {
        tracker.push_column(&th, &column(ridges));
    }
    tracker.finish()
}

#[test]
fn single_ridge_yields_one_confirmed_track() {
    // A target sweeping −60° → −15° at 1.5°/window.
    let windows: Vec<Vec<f64>> = (0..30).map(|k| vec![-60.0 + 1.5 * k as f64]).collect();
    let report = run(&windows);

    assert_eq!(report.tracks.len(), 1);
    let tr = &report.tracks[0];
    assert_eq!(tr.status, TrackStatus::Confirmed);
    assert_eq!(tr.born_window, 0);
    assert_eq!(tr.confirmed_window, Some(cfg().confirm_hits - 1));
    // Entry event back-dated to birth.
    let entries = report.entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].window, 0);
    // Final filtered angle near ground truth, velocity near the sweep
    // rate.
    let last = tr.history.last().unwrap();
    let gt = -60.0 + 1.5 * 29.0;
    assert!(
        (last.theta_deg - gt).abs() < 3.0,
        "θ̂ {} vs {gt}",
        last.theta_deg
    );
    let v_gt = 1.5 / cfg().window_dt_s();
    assert!(
        (last.theta_vel - v_gt).abs() < 0.25 * v_gt.abs(),
        "v̂ {} vs {v_gt}",
        last.theta_vel
    );
    // No exits: the trace ended with the target still there.
    assert!(report.exits().is_empty());
    // Counts: 0 before confirmation, 1 after.
    assert_eq!(report.confirmed_counts[0], 0);
    assert!(report.confirmed_counts[5..].iter().all(|&c| c == 1));
}

#[test]
fn disappearing_ridge_exits_at_last_observation() {
    // Present for windows 0..=15 at a steady sweep, then gone; the run
    // continues long enough for the coast budget to expire.
    let windows: Vec<Vec<f64>> = (0..40)
        .map(|k| {
            if k <= 15 {
                vec![40.0 + 0.5 * k as f64]
            } else {
                vec![]
            }
        })
        .collect();
    let report = run(&windows);

    assert_eq!(report.tracks.len(), 1);
    let tr = &report.tracks[0];
    assert_eq!(tr.status, TrackStatus::Dead);
    let exits = report.exits();
    assert_eq!(exits.len(), 1);
    // Exit back-dated to the last observation, not the coast expiry.
    assert_eq!(exits[0].window, 15);
    // Count returns to zero once the track dies.
    assert_eq!(*report.confirmed_counts.last().unwrap(), 0);
}

#[test]
fn ridge_appearing_mid_trace_enters_on_its_birth_window() {
    let windows: Vec<Vec<f64>> = (0..30)
        .map(|k| if k >= 10 { vec![-50.0] } else { vec![] })
        .collect();
    let report = run(&windows);
    let entries = report.entries();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].window, 10, "entry must be back-dated to birth");
    assert_eq!(entries[0].time_s, report.times_s[10]);
}

#[test]
fn crossing_ridges_keep_identities_through_the_dc_guard() {
    // Two targets sweeping through each other at ±3°/window (offset so
    // they are never exact conjugate mirrors, which the detector is
    // built to suppress). Near θ = 0 the DC guard blanks both (the
    // paper's merge-with-DC behaviour), so both tracks must coast the
    // gap and re-acquire on the far side without spawning new
    // identities.
    let windows: Vec<Vec<f64>> = (0..41)
        .map(|k| vec![-65.0 + 3.0 * k as f64, 52.0 - 3.0 * k as f64])
        .collect();
    let report = run(&windows);

    assert_eq!(
        report.tracks.len(),
        2,
        "crossing must not mint new identities: {:?}",
        report.tracks.iter().map(|t| t.id).collect::<Vec<_>>()
    );
    let a = &report.tracks[0]; // born at −60°, moving +
    let b = &report.tracks[1]; // born at +60°, moving −
    let a0 = a.history.first().unwrap().theta_deg;
    let b0 = b.history.first().unwrap().theta_deg;
    assert!(a0 < 0.0 && b0 > 0.0);
    let a1 = a.history.last().unwrap().theta_deg;
    let b1 = b.history.last().unwrap().theta_deg;
    assert!(
        a1 > 30.0 && b1 < -30.0,
        "identities swapped: a {a0}→{a1}, b {b0}→{b1}"
    );
    // (a ends near −65+120 = +55°, b near 52−120 = −68°.)
    // Each track crossed the DC line exactly once.
    let crossings: Vec<_> = report
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Crossing { .. }))
        .collect();
    assert_eq!(crossings.len(), 2, "events: {:?}", report.events);
    // Both tracks stay confirmed throughout — the count never drops.
    assert!(report.confirmed_counts[5..].iter().all(|&c| c == 2));
    assert!(report.exits().is_empty());
}

#[test]
fn count_change_events_follow_the_population() {
    // One target from the start, a second joining at window 12.
    let windows: Vec<Vec<f64>> = (0..30)
        .map(|k| {
            let mut r = vec![-40.0];
            if k >= 12 {
                r.push(55.0);
            }
            r
        })
        .collect();
    let report = run(&windows);
    let counts: Vec<usize> = report
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::CountChange { count } => Some(count),
            _ => None,
        })
        .collect();
    assert_eq!(counts, vec![1, 2]);
    assert_eq!(*report.confirmed_counts.last().unwrap(), 2);
}

#[test]
fn grass_only_columns_produce_nothing() {
    let windows: Vec<Vec<f64>> = (0..20).map(|_| vec![]).collect();
    let report = run(&windows);
    assert!(report.tracks.is_empty());
    assert!(report.events.is_empty());
    assert!(report.confirmed_counts.iter().all(|&c| c == 0));
    assert_eq!(report.n_windows(), 20);
}

#[test]
fn single_window_flicker_is_never_reported() {
    // MUSIC grass clearing the threshold for one window must not become
    // a person.
    let windows: Vec<Vec<f64>> = (0..20)
        .map(|k| if k == 7 { vec![30.0] } else { vec![] })
        .collect();
    let report = run(&windows);
    assert!(
        report.tracks.is_empty(),
        "flicker became {:?}",
        report.tracks
    );
    assert!(report.events.is_empty());
}

#[test]
fn gesture_attribution_picks_the_polarity_matching_track() {
    // A bystander at −40° and a signaller at +50°.
    let windows: Vec<Vec<f64>> = (0..30).map(|_| vec![-40.0, 50.0]).collect();
    let report = run(&windows);
    assert_eq!(report.tracks.len(), 2);
    let neg_id = report
        .tracks
        .iter()
        .find(|t| t.history.last().unwrap().theta_deg < 0.0)
        .unwrap()
        .id;
    let pos_id = report
        .tracks
        .iter()
        .find(|t| t.history.last().unwrap().theta_deg > 0.0)
        .unwrap()
        .id;
    let t_mid = report.times_s[15];
    assert_eq!(report.attribute_gesture(t_mid, 1), Some(pos_id));
    assert_eq!(report.attribute_gesture(t_mid, -1), Some(neg_id));
}

#[test]
fn report_times_match_window_grid() {
    let windows: Vec<Vec<f64>> = (0..5).map(|_| vec![20.0]).collect();
    let report = run(&windows);
    let c = cfg();
    for (k, &t) in report.times_s.iter().enumerate() {
        assert_eq!(t.to_bits(), c.window_time_s(k).to_bits());
    }
    assert_eq!(report.window_near_time(report.times_s[3]), 3);
}

#[test]
fn confirm_hits_one_confirms_at_birth_and_announces_only_dominant_tracks() {
    // One column: the strongest ridge, one 3 dB below it (within the
    // 5 dB dominance gap), and one 12 dB below it.
    let cfg = TrackerConfig {
        confirm_hits: 1,
        ..cfg()
    };
    assert!(cfg.dominance_mean_gap_db > 3.0 && cfg.dominance_mean_gap_db < 12.0);
    let mut tracker = MultiTargetTracker::new(cfg);
    tracker.push_column(
        &thetas(),
        &column_db(&[(-40.0, 30.0), (20.0, 27.0), (55.0, 18.0)]),
    );

    let live = tracker.live_tracks();
    assert_eq!(live.len(), 3);
    for tr in live {
        assert_eq!(tr.status, TrackStatus::Confirmed);
        assert_eq!(tr.confirmed_window, Some(tr.born_window));
        assert_eq!(tr.born_window, 0);
    }
    let by_angle = |theta: f64| {
        live.iter()
            .find(|t| (t.history[0].theta_deg - theta).abs() < 3.0)
            .unwrap()
    };
    let (strong, near, weak) = (by_angle(-40.0), by_angle(20.0), by_angle(55.0));
    assert!(strong.announced && near.announced);
    assert!(
        !weak.announced,
        "a track 12 dB below the leader was announced"
    );
    // Announced means an entry at the birth window, and counted.
    let entries: Vec<(usize, Option<u32>)> = tracker
        .events()
        .iter()
        .filter(|e| e.is_entry())
        .map(|e| (e.window, e.track_id))
        .collect();
    assert_eq!(entries, vec![(0, Some(strong.id)), (0, Some(near.id))]);
    assert_eq!(tracker.confirmed_count(), 2);

    let announced = vec![strong.id, near.id];
    let report = tracker.finish();
    assert_eq!(report.confirmed_counts, vec![2]);
    let ids: Vec<u32> = report.tracks.iter().map(|t| t.id).collect();
    assert_eq!(ids, announced, "only the announced tracks are reported");
}

/// Callers keep finished reports (a shard holds every output until
/// shutdown), so `finish` trims each vector it hands back to its
/// length. The crossing pair's 41 windows leave every per-window
/// vector short of a power of two, so an untrimmed one would show
/// spare capacity.
#[test]
fn finished_report_vectors_have_no_spare_capacity() {
    let windows: Vec<Vec<f64>> = (0..41)
        .map(|k| vec![-65.0 + 3.0 * k as f64, 52.0 - 3.0 * k as f64])
        .collect();
    let report = run(&windows);
    assert!(!report.tracks.is_empty() && !report.events.is_empty());
    assert_eq!(report.tracks.capacity(), report.tracks.len());
    for tr in &report.tracks {
        assert_eq!(tr.history.capacity(), tr.history.len(), "track {}", tr.id);
    }
    assert_eq!(report.events.capacity(), report.events.len());
    assert_eq!(
        report.confirmed_counts.capacity(),
        report.confirmed_counts.len()
    );
    assert_eq!(report.times_s.capacity(), report.times_s.len());
}
