//! Golden-trace regression fixtures: four fixed-seed scenarios whose
//! end-to-end outputs (spectrogram ridge bins, counting variance, track
//! events, gesture decode, imaging fixes) are pinned as checked-in JSON
//! snapshots under `tests/golden/`.
//!
//! `tracker_reports.json` pins the trackers' *full* output: the complete
//! tracking and imaging reports of the device scenes plus seeded
//! synthetic streams fed straight into both trackers, as the canonical
//! wire payload's length and FNV-1a digest, with one readable line per
//! track (lifecycle windows and the final Kalman state by bit pattern).
//!
//! Every run regenerates each trace and diffs it against its fixture —
//! any drift in the radio simulation, the MUSIC pipeline, the tracker,
//! or the decoder fails the suite with a field-level diff. Floats are
//! pinned by **bit pattern** (hex of `f64::to_bits`) with a human-readable
//! value alongside, so the fixtures catch last-ulp regressions while
//! still diffing meaningfully.
//!
//! To update the fixtures after an *intentional* behavior change:
//!
//! ```text
//! WIVI_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then commit the rewritten files. CI runs without `WIVI_BLESS`, so
//! unblessed drift fails the job.

use std::fmt::Write as _;

use wivi::core::counting::mean_spatial_variance;
use wivi::core::music::MusicConfig;
use wivi::image::{ImageFix, PositionTracker, PositionTrackerConfig};
use wivi::num::rng::normal;
use wivi::num::{Kalman2, Rng64};
use wivi::prelude::*;
use wivi::rf::{GestureScript, GestureStyle, Point, Vec2};
use wivi::track::{EventKind, TrackStatus};

const GOLDEN_DIR: &str = "tests/golden";

fn f64_field(out: &mut String, indent: &str, name: &str, x: f64, last: bool) {
    let comma = if last { "" } else { "," };
    let _ = writeln!(out, "{indent}\"{name}_bits\": \"0x{:016x}\",", x.to_bits());
    let _ = writeln!(out, "{indent}\"{name}\": {x:.9}{comma}");
}

/// Scenario 1+2: walkers behind the standard wall. Returns the canonical
/// trace JSON for (spectrogram ridge bins, variance, track events).
fn tracking_trace(name: &str, scene_of: impl Fn() -> Scene, seed: u64, duration_s: f64) -> String {
    let mut dev = WiViDevice::new(scene_of(), WiViConfig::fast_test(), seed);
    dev.calibrate();
    let spec = dev.track(duration_s);
    let variance = mean_spatial_variance(&spec);

    let mut dev2 = WiViDevice::new(scene_of(), WiViConfig::fast_test(), seed);
    dev2.calibrate();
    let report = dev2.track_targets(duration_s);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"scenario\": \"{name}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"duration_s\": {duration_s},");
    let _ = writeln!(out, "  \"n_windows\": {},", spec.n_times());
    // The per-window dominant-angle bin: the paper's "ridge read off the
    // spectrogram", quantized to grid bins so the fixture is compact yet
    // pins the whole MUSIC chain.
    let ridge: Vec<String> = spec
        .power
        .iter()
        .map(|row| {
            let (bin, _) = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            bin.to_string()
        })
        .collect();
    let _ = writeln!(out, "  \"ridge_bins\": [{}],", ridge.join(", "));
    f64_field(&mut out, "  ", "mean_spatial_variance", variance, false);
    let _ = writeln!(out, "  \"confirmed_counts\": [{}],", {
        let v: Vec<String> = report
            .confirmed_counts
            .iter()
            .map(usize::to_string)
            .collect();
        v.join(", ")
    });
    let _ = writeln!(out, "  \"n_tracks\": {},", report.tracks.len());
    let _ = writeln!(out, "  \"events\": [");
    for (i, e) in report.events.iter().enumerate() {
        let comma = if i + 1 == report.events.len() {
            ""
        } else {
            ","
        };
        let track = e
            .track_id
            .map(|t| t.to_string())
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "    {{\"window\": {}, \"time_bits\": \"0x{:016x}\", \"kind\": \"{}\", \"track\": {track}}}{comma}",
            e.window,
            e.time_s.to_bits(),
            e.kind.tag(),
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Scenario 3: the gesture channel. Pins the decoded bits, each
/// gesture's polarity/time/SNR, and the matched-filter peak count.
fn gesture_trace(name: &str, seed: u64) -> String {
    let script = GestureScript::for_bits(
        Point::new(0.0, 3.0),
        Vec2::new(0.0, -1.0),
        GestureStyle::default(),
        3.0,
        &[false, true],
    );
    let duration_s = 3.0 + script.duration() + 1.0;
    let scene = Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(script));
    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), seed);
    dev.calibrate();
    let d = dev.decode_gestures(duration_s);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"scenario\": \"{name}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"duration_s\": {duration_s},");
    let bits: Vec<String> = d
        .bits
        .iter()
        .map(|b| match b {
            Some(true) => "1".into(),
            Some(false) => "0".into(),
            None => "null".into(),
        })
        .collect();
    let _ = writeln!(out, "  \"bits\": [{}],", bits.join(", "));
    let _ = writeln!(out, "  \"gestures\": [");
    for (i, g) in d.gestures.iter().enumerate() {
        let comma = if i + 1 == d.gestures.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"polarity\": {}, \"time_bits\": \"0x{:016x}\", \"snr_db_bits\": \"0x{:016x}\"}}{comma}",
            g.polarity,
            g.time_s.to_bits(),
            g.snr_db.to_bits(),
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"n_windows\": {}", d.times_s.len());
    let _ = writeln!(out, "}}");
    out
}

/// Scenario 4: the imaging path. Pins every per-window CFAR fix —
/// position, cell, focused power, CFAR SNR, all by f64 bit pattern —
/// plus the per-window confirmed position-track counts, so any drift in
/// the backprojection, the CLEAN loop, the CFAR detector, or the 2-D
/// tracker fails the suite.
fn imaging_trace(name: &str, seed: u64) -> String {
    let duration_s = 4.0;
    let mut dev = WiViDevice::new(imaging_scene(), WiViConfig::fast_test(), seed);
    dev.calibrate();
    let report = dev.image(duration_s);

    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"scenario\": \"{name}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"duration_s\": {duration_s},");
    let _ = writeln!(out, "  \"n_windows\": {},", report.n_windows());
    let _ = writeln!(out, "  \"windows\": [");
    let n = report.n_windows();
    for (w, (t, fixes)) in report.times_s.iter().zip(&report.fixes).enumerate() {
        let comma = if w + 1 == n { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"window\": {w}, \"time_bits\": \"0x{:016x}\", \"fixes\": [",
            t.to_bits()
        );
        for (i, f) in fixes.iter().enumerate() {
            let fcomma = if i + 1 == fixes.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "      {{\"cell\": [{}, {}], \"x_bits\": \"0x{:016x}\", \"x\": {:.4}, \
                 \"y_bits\": \"0x{:016x}\", \"y\": {:.4}, \"power_bits\": \"0x{:016x}\", \
                 \"snr_bits\": \"0x{:016x}\"}}{fcomma}",
                f.ix,
                f.iy,
                f.x_m.to_bits(),
                f.x_m,
                f.y_m.to_bits(),
                f.y_m,
                f.power_db.to_bits(),
                f.snr_db.to_bits(),
            );
        }
        let _ = writeln!(out, "    ]}}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"confirmed_counts\": [{}],", {
        let v: Vec<String> = report
            .confirmed_counts
            .iter()
            .map(usize::to_string)
            .collect();
        v.join(", ")
    });
    let _ = writeln!(out, "  \"n_tracks\": {}", report.tracks.len());
    let _ = writeln!(out, "}}");
    out
}

/// Two pacers on wall-parallel lanes — the imaging subsystem's native
/// geometry.
fn imaging_scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.6, 1.8), Point::new(2.6, 1.8)],
            1.0,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(2.4, 3.2), Point::new(-2.6, 3.2)],
            1.0,
        )))
}

fn crossing_scene() -> Scene {
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-1.5, 3.8), Point::new(0.5, 1.0)],
            0.8,
        )))
        .with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(0.9, 1.1), Point::new(1.6, 3.7)],
            0.5,
        )))
}

fn pacer_scene() -> Scene {
    Scene::new(Material::TintedGlass)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![
                Point::new(-2.0, 3.0),
                Point::new(2.0, 3.0),
                Point::new(-2.0, 3.0),
            ],
            1.0,
        )))
}

/// Compares the regenerated trace against its fixture, or rewrites the
/// fixture under `WIVI_BLESS=1`.
fn check_or_bless(name: &str, generated: &str) {
    let path = format!("{GOLDEN_DIR}/{name}.json");
    if std::env::var("WIVI_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(GOLDEN_DIR).expect("create tests/golden");
        std::fs::write(&path, generated).expect("write fixture");
        eprintln!("blessed {path}");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {path} ({e}); generate it with \
             `WIVI_BLESS=1 cargo test --test golden_traces` and commit it"
        )
    });
    if generated != expected {
        // Point at the first diverging line for a usable failure.
        let mismatch = generated
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (g, e))| g != e);
        match mismatch {
            Some((ln, (g, e))) => panic!(
                "golden trace '{name}' drifted at line {}:\n  fixture:   {e}\n  generated: {g}\n\
                 If this change is intentional, re-bless with \
                 `WIVI_BLESS=1 cargo test --test golden_traces` and commit the diff.",
                ln + 1
            ),
            None => panic!(
                "golden trace '{name}' drifted (length {} vs fixture {}); re-bless if intentional",
                generated.len(),
                expected.len()
            ),
        }
    }
}

#[test]
fn golden_crossing_two_subjects() {
    check_or_bless(
        "crossing_two",
        &tracking_trace("crossing_two", crossing_scene, 81, 2.5),
    );
}

#[test]
fn golden_single_pacer() {
    check_or_bless(
        "single_pacer",
        &tracking_trace("single_pacer", pacer_scene, 7, 2.5),
    );
}

#[test]
fn golden_gesture_two_bits() {
    check_or_bless("gesture_two_bits", &gesture_trace("gesture_two_bits", 3));
}

#[test]
fn golden_imaging_two_pacers() {
    check_or_bless(
        "imaging_two_pacers",
        &imaging_trace("imaging_two_pacers", 17),
    );
}

// ------------------------------------------------------ tracker reports

/// FNV-1a 64 over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A Kalman state by bit pattern: `x₀ x₁ p₀₀ p₀₁ p₁₀ p₁₁`.
fn kalman_bits(k: &Kalman2) -> String {
    let [[p00, p01], [p10, p11]] = k.p;
    [k.x[0], k.x[1], p00, p01, p10, p11]
        .iter()
        .map(|v| format!("0x{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

fn opt_window(w: Option<usize>) -> String {
    w.map_or_else(|| "-".into(), |w| w.to_string())
}

/// One stream's entry: the canonical wire payload's length and FNV-1a
/// digest (every field of the report, floats by bit pattern), then one
/// readable line per reported track.
fn stream_entry(name: &str, tag: &'static str, out: ModeOutput, tracks: &[String]) -> String {
    let mut payload = Vec::new();
    wivi::serve::wire::encode_mode_payload(&out, &mut payload);
    let mut s = String::new();
    let _ = writeln!(s, "    {{");
    let _ = writeln!(s, "      \"name\": \"{name}\",");
    let _ = writeln!(s, "      \"mode\": \"{tag}\",");
    let _ = writeln!(s, "      \"payload_len\": {},", payload.len());
    let _ = writeln!(
        s,
        "      \"payload_fnv1a64\": \"0x{:016x}\",",
        fnv1a64(&payload)
    );
    let _ = writeln!(s, "      \"tracks\": [");
    for (i, line) in tracks.iter().enumerate() {
        let comma = if i + 1 == tracks.len() { "" } else { "," };
        let _ = writeln!(s, "        \"{line}\"{comma}");
    }
    let _ = writeln!(s, "      ]");
    let _ = write!(s, "    }}");
    s
}

fn tracking_entry(name: &str, report: TrackingReport) -> String {
    let lines: Vec<String> = report
        .tracks
        .iter()
        .map(|t| {
            format!(
                "id {} {:?} born {} confirmed {} last {} observed {} kf {}",
                t.id,
                t.status,
                t.born_window,
                opt_window(t.confirmed_window),
                t.last_observed_window,
                t.observed_windows,
                kalman_bits(&t.filter),
            )
        })
        .collect();
    let tag = "track_targets";
    stream_entry(name, tag, ModeOutput::TrackTargets(report), &lines)
}

fn imaging_entry(name: &str, report: ImagingReport) -> String {
    let lines: Vec<String> = report
        .tracks
        .iter()
        .map(|t| {
            format!(
                "id {} {:?} born {} confirmed {} last {} observed {} mirror_of {} kx {} ky {}",
                t.id,
                t.status,
                t.born_window,
                opt_window(t.confirmed_window),
                t.last_observed_window,
                t.observed_windows,
                t.extra
                    .mirror_of
                    .map_or_else(|| "-".into(), |m| m.to_string()),
                kalman_bits(&t.filter[0]),
                kalman_bits(&t.filter[1]),
            )
        })
        .collect();
    let tag = "image";
    stream_entry(name, tag, ModeOutput::Image(report), &lines)
}

/// Angle grid of the synthetic ridge streams: 3° bins over ±90°.
fn synthetic_thetas() -> Vec<f64> {
    (0..61).map(|i| -90.0 + 3.0 * i as f64).collect()
}

/// A seeded synthetic ridge stream for `MultiTargetTracker::push_column`.
/// Bodies appear at random angles and rates (many sweep through the DC
/// guard and cross θ = 0), fade for 1–16 windows (past the 10-window
/// coast budget, so some die and exit), and now and then shed a weaker
/// duplicate ridge that converges back onto them (a coasting duplicate
/// the merge step absorbs). Grass clears the ridge threshold for single
/// windows.
fn synthetic_columns(seed: u64, n_windows: usize) -> Vec<Vec<f64>> {
    struct Body {
        theta: f64,
        rate: f64,
        amp_db: f64,
        until: usize,
        fade: usize,
        twin_offset: f64,
    }
    let thetas = synthetic_thetas();
    let mut rng = Rng64::seed_from_u64(seed);
    let mut bodies: Vec<Body> = Vec::new();
    let mut columns = Vec::with_capacity(n_windows);
    for k in 0..n_windows {
        bodies.retain(|b| b.until > k);
        if bodies.len() < 4 && rng.gen_bool(0.05) {
            bodies.push(Body {
                theta: rng.gen_range(-75.0, 75.0),
                rate: rng.gen_range(-2.0, 2.0),
                amp_db: rng.gen_range(18.0, 34.0),
                until: k + 30 + rng.gen_below(150) as usize,
                fade: 0,
                twin_offset: 0.0,
            });
        }
        // (angle, peak dB) of every ridge in this column.
        let mut ridges: Vec<(f64, f64)> = Vec::new();
        for b in &mut bodies {
            b.theta += b.rate + normal(&mut rng, 0.0, 0.3);
            if b.theta.abs() > 80.0 {
                b.rate = -b.rate;
            }
            if b.fade > 0 {
                b.fade -= 1;
            } else if rng.gen_bool(0.02) {
                b.fade = 1 + rng.gen_below(16) as usize;
            }
            if b.fade == 0 {
                ridges.push((b.theta, b.amp_db + normal(&mut rng, 0.0, 1.5)));
            }
            if b.twin_offset == 0.0 && rng.gen_bool(0.015) {
                b.twin_offset = if rng.gen_bool(0.5) { 14.0 } else { -14.0 };
            }
            if b.twin_offset != 0.0 {
                ridges.push((b.theta + b.twin_offset, b.amp_db - 3.0));
                b.twin_offset -= b.twin_offset.signum();
            }
        }
        if rng.gen_bool(0.1) {
            ridges.push((rng.gen_range(-85.0, 85.0), rng.gen_range(11.0, 20.0)));
        }
        columns.push(
            thetas
                .iter()
                .map(|&tb| {
                    let mut p = 1.0 + rng.gen_range(0.0, 1.5);
                    for &(r, amp) in &ridges {
                        let db = amp - 0.5 * (tb - r) * (tb - r);
                        if db > 0.0 {
                            p += 10f64.powf(db / 10.0);
                        }
                    }
                    p
                })
                .collect(),
        );
    }
    columns
}

fn track_synthetic(cfg: TrackerConfig, columns: &[Vec<f64>]) -> TrackingReport {
    let thetas = synthetic_thetas();
    let mut tracker = MultiTargetTracker::new(cfg);
    for col in columns {
        tracker.push_column(&thetas, col);
    }
    let report = tracker.finish();
    // The stream must exercise every lifecycle edge it claims to.
    let last = report.n_windows() - 1;
    assert!(!report.exits().is_empty(), "no track died");
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Crossing { .. })),
        "no DC-line crossing"
    );
    assert!(
        report
            .tracks
            .iter()
            .any(|t| t.status != TrackStatus::Dead && t.len() + t.born_window <= last),
        "no track was merged away"
    );
    report
}

/// A seeded synthetic fix stream for `PositionTracker::push_fixes`:
/// walkers pace the room, fade for 1–6 windows (past the 3-window coast
/// budget), and the far-from-boresight ones now and then leave bursts of
/// mirrored fixes across the mirror axis — the ghost tracks the
/// mirror-side vote marks. Single-window clutter fixes flicker in.
fn synthetic_fixes(seed: u64, n_windows: usize, dt: f64, axis_x: f64) -> Vec<Vec<ImageFix>> {
    struct Walker {
        x: f64,
        y: f64,
        vx: f64,
        vy: f64,
        until: usize,
        fade: usize,
        ghost: usize,
    }
    let mut rng = Rng64::seed_from_u64(seed);
    let mut walkers: Vec<Walker> = Vec::new();
    let mut frames = Vec::with_capacity(n_windows);
    let fix = |rng: &mut Rng64, x: f64, y: f64| ImageFix {
        x_m: x + normal(rng, 0.0, 0.12),
        y_m: y + normal(rng, 0.0, 0.12),
        power_db: rng.gen_range(-40.0, -20.0),
        snr_db: rng.gen_range(8.0, 20.0),
        ix: rng.gen_below(56) as usize,
        iy: rng.gen_below(8) as usize,
    };
    for k in 0..n_windows {
        walkers.retain(|w| w.until > k);
        if walkers.len() < 3 && rng.gen_bool(0.08) {
            walkers.push(Walker {
                x: rng.gen_range(-3.0, 3.0),
                y: rng.gen_range(1.2, 3.8),
                vx: rng.gen_range(-1.0, 1.0),
                vy: rng.gen_range(-0.3, 0.3),
                until: k + 15 + rng.gen_below(70) as usize,
                fade: 0,
                ghost: 0,
            });
        }
        let mut frame = Vec::new();
        for w in &mut walkers {
            w.x += w.vx * dt;
            w.y += w.vy * dt;
            if w.x.abs() > 3.2 {
                w.vx = -w.vx;
            }
            if !(0.8..=4.0).contains(&w.y) {
                w.vy = -w.vy;
            }
            if w.fade > 0 {
                w.fade -= 1;
            } else if rng.gen_bool(0.05) {
                w.fade = 1 + rng.gen_below(6) as usize;
            }
            if w.fade == 0 {
                frame.push(fix(&mut rng, w.x, w.y));
            }
            if w.ghost == 0 && (w.x - axis_x).abs() > 1.8 && rng.gen_bool(0.06) {
                w.ghost = 2 + rng.gen_below(4) as usize;
            }
            if w.ghost > 0 {
                w.ghost -= 1;
                frame.push(fix(&mut rng, 2.0 * axis_x - w.x, w.y));
            }
        }
        if rng.gen_bool(0.1) {
            let (x, y) = (rng.gen_range(-3.4, 3.4), rng.gen_range(0.4, 4.0));
            frame.push(fix(&mut rng, x, y));
        }
        frames.push(frame);
    }
    frames
}

fn image_synthetic(cfg: PositionTrackerConfig, frames: Vec<Vec<ImageFix>>) -> ImagingReport {
    let mut tracker = PositionTracker::new(cfg);
    for frame in &frames {
        tracker.push_fixes(frame);
    }
    let report = ImagingReport::assemble(ImageConfig::fast_test().grid, frames, tracker.finish());
    assert!(
        report.tracks.iter().any(|t| t.extra.mirror_of.is_some()),
        "no mirror ghost voted"
    );
    assert!(
        report.tracks.iter().any(|t| t.status == TrackStatus::Dead),
        "no track died"
    );
    report
}

/// Every stream's full tracker output: the complete `TrackingReport` and
/// `ImagingReport` of the three golden device scenes, and seeded
/// synthetic streams fed straight into both trackers at their default
/// configurations and at `confirm_hits = 1`.
fn tracker_reports_trace() -> String {
    let mut entries = Vec::new();
    for (name, scene_of, seed, duration_s) in [
        ("crossing_two", crossing_scene as fn() -> Scene, 81, 2.5),
        ("single_pacer", pacer_scene, 7, 2.5),
        ("imaging_two_pacers", imaging_scene, 17, 4.0),
    ] {
        let mut dev = WiViDevice::new(scene_of(), WiViConfig::fast_test(), seed);
        dev.calibrate();
        entries.push(tracking_entry(
            &format!("{name}/track_targets"),
            dev.track_targets(duration_s),
        ));
        let mut dev = WiViDevice::new(scene_of(), WiViConfig::fast_test(), seed);
        dev.calibrate();
        entries.push(imaging_entry(
            &format!("{name}/image"),
            dev.image(duration_s),
        ));
    }

    let columns = synthetic_columns(0x5eed_a9e1, 500);
    let angle_cfg = TrackerConfig::for_music(&MusicConfig::fast_test());
    for confirm_hits in [angle_cfg.confirm_hits, 1] {
        let cfg = TrackerConfig {
            confirm_hits,
            ..angle_cfg
        };
        entries.push(tracking_entry(
            &format!("synthetic_ridges/confirm_hits_{confirm_hits}"),
            track_synthetic(cfg, &columns),
        ));
    }

    let position_cfg = PositionTrackerConfig::for_image(&ImageConfig::fast_test());
    let frames = synthetic_fixes(
        0x5eed_f1c5,
        400,
        position_cfg.window_dt_s(),
        position_cfg.mirror_axis_x_m,
    );
    for confirm_hits in [position_cfg.confirm_hits, 1] {
        let cfg = PositionTrackerConfig {
            confirm_hits,
            ..position_cfg
        };
        entries.push(imaging_entry(
            &format!("synthetic_fixes/confirm_hits_{confirm_hits}"),
            image_synthetic(cfg, frames.clone()),
        ));
    }

    format!("{{\n  \"streams\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

#[test]
fn golden_tracker_reports() {
    check_or_bless("tracker_reports", &tracker_reports_trace());
}

#[test]
fn traces_are_reproducible_within_a_run() {
    // The fixture premise: regeneration is bit-stable. (If this fails,
    // the blessing workflow itself is meaningless.)
    let a = tracking_trace("crossing_two", crossing_scene, 81, 1.5);
    let b = tracking_trace("crossing_two", crossing_scene, 81, 1.5);
    assert_eq!(a, b, "trace generation is not deterministic");
}
