//! The imaging workload: deterministic 2-D localization scenes with
//! known ground-truth positions, and localization/detection scoring.
//!
//! The scenario family exercises the imaging subsystem's native
//! geometry — subjects pacing lanes parallel to the wall (the
//! tangential-aperture assumption of `wivi-image`'s backprojector) at
//! known (x, y) — and scores per-window CFAR fixes against the scene's
//! true positions: detection rate over *detectable* ground truth, and
//! the localization-error distribution of the matches. A subject is
//! detectable when it sits clear of the boresight strip `|x| <`
//! [`BORESIGHT_GUARD_M`]: a tangentially-moving body on the receive
//! antenna's axis modulates the channel at near-zero rate and vanishes
//! into the DC notch — the 2-D analogue of the spectrogram's DC guard
//! ([`wivi_core::counting::DC_GUARD_DEG`]).

use std::time::Instant;

use wivi_core::{WiViConfig, WiViDevice};
use wivi_image::{nulling_tx_weight, ImageConfig, ImageSession, ImagingReport};
use wivi_num::stats;
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};

use crate::serving::REALTIME_RATE;

/// Boresight dead-strip half-width, metres: ground truth inside
/// `|x − rx.x| <` this is not detectable by a tangential aperture (see
/// the module docs) and is excluded from the detection denominator.
pub const BORESIGHT_GUARD_M: f64 = 1.25;

/// Radius within which a fix counts as a detection of a ground-truth
/// subject, metres.
pub const MATCH_RADIUS_M: f64 = 1.0;

/// Duration of the showcase trials, seconds: both subjects keep walking
/// for the whole trial (lanes are ≥ 5.6 m at 1 m/s).
pub const IMAGING_SHOWCASE_DURATION_S: f64 = 6.0;

/// The deterministic 2-D localization showcase: up to two subjects
/// pacing wall-parallel lanes at the assumed 1 m/s through the small
/// conference room, at known positions every instant. Subject A walks
/// +x along `y = 1.8` (from x = −3.3); subject B walks −x along
/// `y = 3.2` (from x = +3.3) — the lanes sit more than one range
/// resolution apart so the two bodies' focused blobs never blend.
///
/// # Panics
/// Panics if `n_subjects` is 0 or greater than 2.
pub fn imaging_showcase_scene(n_subjects: usize) -> Scene {
    showcase_lanes(n_subjects, 1.0)
}

/// The showcase lane geometry at a parametric walking speed — the one
/// builder behind both [`imaging_showcase_scene`] and the bench
/// trials, so the scored scene and the pinned scene cannot drift
/// apart.
fn showcase_lanes(n_subjects: usize, speed: f64) -> Scene {
    assert!((1..=2).contains(&n_subjects), "1..=2 subjects supported");
    let mut scene =
        Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small());
    scene = scene.with_mover(Mover::human(WaypointWalker::new(
        vec![Point::new(-3.3, 1.8), Point::new(3.1, 1.8)],
        speed,
    )));
    if n_subjects >= 2 {
        scene = scene.with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(3.3, 3.2), Point::new(-3.1, 3.2)],
            speed,
        )));
    }
    scene
}

/// Ground-truth subject positions at each window-centre time.
pub fn ground_truth_positions(scene: &Scene, times_s: &[f64]) -> Vec<Vec<Point>> {
    times_s
        .iter()
        .map(|&t| scene.movers.iter().map(|m| m.position(t)).collect())
        .collect()
}

/// Detection / localization metrics of one imaging run.
#[derive(Clone, Debug)]
pub struct ImagingScore {
    /// (window, subject) pairs clear of the boresight strip, after
    /// warm-up.
    pub n_detectable: usize,
    /// Of those, pairs with a fix within [`MATCH_RADIUS_M`].
    pub n_detected: usize,
    /// Localization errors of the matches, metres (sorted ascending).
    pub errors_m: Vec<f64>,
    /// Fixes (over all scored windows) farther than the match radius
    /// from every ground-truth subject — ghosts and artefacts.
    /// Counted over the *credible* fix view: per-window fixes with the
    /// tracker-level mirror-side vote's ghost tracks removed
    /// ([`ImagingReport::credible_fixes`]).
    pub false_fixes: usize,
    /// False fixes over the raw per-window detections, before the
    /// mirror-side vote — the pre-vote baseline, kept for comparison.
    pub false_fixes_raw: usize,
    /// Confirmed tracks the mirror-side vote marked as ghosts, counted
    /// over the same scored (post-warm-up) windows as the false-fix
    /// metrics: a ghost observed only during warm-up removes no scored
    /// fix and is not counted.
    pub ghost_tracks: usize,
    /// Windows scored (after warm-up).
    pub n_windows: usize,
}

impl ImagingScore {
    /// Detected fraction of detectable ground truth (1.0 when nothing
    /// was detectable).
    pub fn detection_rate(&self) -> f64 {
        if self.n_detectable == 0 {
            1.0
        } else {
            self.n_detected as f64 / self.n_detectable as f64
        }
    }

    /// Mean localization error over the matches, metres (0 if none).
    pub fn mean_error_m(&self) -> f64 {
        if self.errors_m.is_empty() {
            0.0
        } else {
            stats::mean(&self.errors_m)
        }
    }

    /// Median localization error over the matches, metres (0 if none).
    pub fn median_error_m(&self) -> f64 {
        if self.errors_m.is_empty() {
            0.0
        } else {
            stats::median(&self.errors_m)
        }
    }
}

/// Scores an imaging report against ground-truth trajectories.
/// `rx_x_m` is the receive antenna's x (the boresight axis);
/// `warmup_windows` are excluded from scoring. Detection and false-fix
/// metrics are computed over [`ImagingReport::credible_fixes`] (the
/// mirror-side vote's ghost tracks removed); the raw-detection false
/// count is kept alongside as `false_fixes_raw`.
pub fn score_imaging(
    report: &ImagingReport,
    gt: &[Vec<Point>],
    rx_x_m: f64,
    warmup_windows: usize,
) -> ImagingScore {
    assert_eq!(gt.len(), report.n_windows(), "ground-truth shape mismatch");
    let from = warmup_windows.min(report.n_windows());
    let credible = report.credible_fixes();
    let mut score = ImagingScore {
        n_detectable: 0,
        n_detected: 0,
        errors_m: Vec::new(),
        false_fixes: 0,
        false_fixes_raw: 0,
        ghost_tracks: report
            .tracks
            .iter()
            .filter(|t| {
                t.extra.mirror_of.is_some()
                    && t.history
                        .iter()
                        .any(|p| p.observed.is_some() && p.window >= from)
            })
            .count(),
        n_windows: report.n_windows() - from,
    };
    let false_in = |fixes: &[wivi_image::ImageFix], gt_row: &[Point]| {
        fixes
            .iter()
            .filter(|f| {
                gt_row
                    .iter()
                    .all(|p| (f.x_m - p.x).hypot(f.y_m - p.y) > MATCH_RADIUS_M)
            })
            .count()
    };
    for ((gt_row, fixes), raw) in gt[from..]
        .iter()
        .zip(&credible[from..])
        .zip(&report.fixes[from..])
    {
        for p in gt_row {
            if (p.x - rx_x_m).abs() < BORESIGHT_GUARD_M {
                continue;
            }
            score.n_detectable += 1;
            let nearest = fixes
                .iter()
                .map(|f| (f.x_m - p.x).hypot(f.y_m - p.y))
                .fold(f64::INFINITY, f64::min);
            if nearest <= MATCH_RADIUS_M {
                score.n_detected += 1;
                score.errors_m.push(nearest);
            }
        }
        score.false_fixes += false_in(fixes, gt_row);
        score.false_fixes_raw += false_in(raw, gt_row);
    }
    score.errors_m.sort_by(f64::total_cmp);
    score
}

/// One imaging trial: a named scene, run end-to-end and scored.
#[derive(Clone, Debug)]
pub struct ImagingTrialSpec {
    /// Stable trial label.
    pub name: &'static str,
    /// Subjects in the showcase scene.
    pub n_subjects: usize,
    /// Walking speed of every subject, m/s: 1.0 matches the aperture's
    /// assumed speed; other values measure the autofocus mismatch.
    pub speed: f64,
    /// `true`: one subject pacing a short lane entirely on one side of
    /// the boresight axis — the geometry whose conjugate ghost lands
    /// far from the subject, so joint-LS side flips at the lane
    /// turn-arounds accrete into mirror-ghost tracks. The trial that
    /// exercises the tracker-level mirror-side vote.
    pub one_sided: bool,
    /// Recording duration, seconds.
    pub duration_s: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl ImagingTrialSpec {
    /// Builds the trial's scene (the showcase lanes — or the one-sided
    /// lane — at this trial's walking speed).
    pub fn build_scene(&self) -> Scene {
        if self.one_sided {
            one_sided_lane(self.speed)
        } else {
            showcase_lanes(self.n_subjects, self.speed)
        }
    }
}

/// One subject pacing back and forth on the left half of the room (the
/// lane stays clear of the boresight strip). Long enough for any trial
/// duration the bench uses.
fn one_sided_lane(speed: f64) -> Scene {
    let (a, b) = (Point::new(-3.2, 2.6), Point::new(-1.4, 2.6));
    Scene::new(Material::HollowWall6In)
        .with_office_clutter(Scene::conference_room_small())
        .with_mover(Mover::human(WaypointWalker::new(
            vec![a, b, a, b, a, b, a],
            speed,
        )))
}

/// Outcome and imaging-compute timing of one imaging trial.
#[derive(Clone, Debug)]
pub struct ImagingTrialResult {
    /// Imaging windows processed.
    pub n_windows: usize,
    pub detection_rate: f64,
    pub mean_error_m: f64,
    pub median_error_m: f64,
    /// Channel samples recorded.
    pub n_samples: usize,
    /// Total imaging compute (focus + CFAR + tracking), seconds.
    pub image_s: f64,
    /// Per-window imaging latency, seconds (one entry per window).
    pub window_latencies_s: Vec<f64>,
}

impl ImagingTrialResult {
    /// Imaging-stage throughput in channel samples per second — the
    /// number to compare against the §7.1 per-session rate of
    /// [`REALTIME_RATE`] (312.5): ≥ 1× means the imaging compute keeps
    /// up with a live radio.
    pub fn samples_per_sec(&self) -> f64 {
        self.n_samples as f64 / self.image_s.max(1e-12)
    }

    /// The `p`-th percentile of per-window imaging latency, seconds.
    pub fn window_latency_percentile_s(&self, p: f64) -> f64 {
        if self.window_latencies_s.is_empty() {
            0.0
        } else {
            stats::percentile(&self.window_latencies_s, p)
        }
    }

    /// The real-time budget per imaging window, seconds (a window
    /// completes every `hop` channel samples).
    pub fn window_budget_s(&self, cfg: &ImageConfig) -> f64 {
        cfg.hop as f64 / REALTIME_RATE
    }
}

/// Runs one imaging trial: calibrate, record, focus window-by-window
/// (timing each), score against ground truth. The window-by-window
/// drive pushes hop-sized chunks through the same [`ImageSession`] the
/// device entry points use, so fixes are bitwise identical to
/// `WiViDevice::image_with` (batch-shape invariance).
pub fn run_imaging_trial(
    spec: &ImagingTrialSpec,
    wivi: &WiViConfig,
    img: &ImageConfig,
) -> (ImagingTrialResult, ImagingReport) {
    let scene = spec.build_scene();
    let gt_scene = spec.build_scene();
    let mut dev = WiViDevice::new(scene, *wivi, spec.seed);
    dev.calibrate();
    let trace = dev.record_trace(spec.duration_s);

    let mut stage = ImageSession::new(*img, nulling_tx_weight(&dev));
    let mut window_latencies_s = Vec::new();
    let mut image_s = 0.0f64;
    for chunk in trace.chunks(img.hop.max(1)) {
        let t = Instant::now();
        let frames = stage.push(chunk);
        let dt = t.elapsed().as_secs_f64();
        image_s += dt;
        for _ in 0..frames {
            window_latencies_s.push(dt);
        }
    }
    let report = stage.finish();

    let gt = ground_truth_positions(&gt_scene, &report.times_s);
    let score = score_imaging(&report, &gt, img.rx.x, 1);

    let result = ImagingTrialResult {
        n_windows: report.n_windows(),
        detection_rate: score.detection_rate(),
        mean_error_m: score.mean_error_m(),
        median_error_m: score.median_error_m(),
        n_samples: trace.len(),
        image_s,
        window_latencies_s,
    };
    (result, report)
}

/// The standard imaging trial family: one subject, two subjects, a
/// two-subject run at a mismatched walking speed (the autofocus
/// degradation axis), and the one-sided lane whose turn-arounds breed
/// mirror-ghost tracks (the mirror-side-vote axis).
pub fn imaging_trials(duration_s: f64) -> Vec<ImagingTrialSpec> {
    vec![
        ImagingTrialSpec {
            name: "showcase_1",
            n_subjects: 1,
            speed: 1.0,
            one_sided: false,
            duration_s,
            seed: 31,
        },
        ImagingTrialSpec {
            name: "showcase_2",
            n_subjects: 2,
            speed: 1.0,
            one_sided: false,
            duration_s,
            seed: 32,
        },
        ImagingTrialSpec {
            name: "speed_mismatch_2",
            n_subjects: 2,
            speed: 0.85,
            one_sided: false,
            duration_s,
            seed: 33,
        },
        ImagingTrialSpec {
            name: "one_sided_ghosts",
            n_subjects: 1,
            speed: 1.0,
            one_sided: true,
            duration_s,
            seed: 40,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn showcase_scene_has_known_positions() {
        let scene = imaging_showcase_scene(2);
        assert_eq!(scene.movers.len(), 2);
        let a0 = scene.movers[0].position(0.0);
        assert_eq!(a0, Point::new(-3.3, 1.8));
        // Subject A walks +x at 1 m/s.
        let a2 = scene.movers[0].position(2.0);
        assert!((a2.x - (-1.3)).abs() < 1e-9 && (a2.y - 1.8).abs() < 1e-9);
        // Subject B walks −x.
        let b2 = scene.movers[1].position(2.0);
        assert!((b2.x - 1.3).abs() < 1e-9 && (b2.y - 3.2).abs() < 1e-9);
        // Nobody parks during the showcase duration: the last imaging
        // window reaches IMAGING_SHOWCASE_DURATION_S + the aperture tail.
        for m in &scene.movers {
            let d = m
                .position(IMAGING_SHOWCASE_DURATION_S)
                .distance(m.position(IMAGING_SHOWCASE_DURATION_S - 0.1));
            assert!(d > 0.01, "subject parked before the trial ended");
        }
    }

    #[test]
    fn score_counts_detections_and_excludes_the_boresight_strip() {
        use wivi_image::{GridSpec, ImageFix};
        let grid = ImageConfig::wivi_default().grid;
        let fix = |x: f64, y: f64| ImageFix {
            x_m: x,
            y_m: y,
            power_db: -50.0,
            snr_db: 10.0,
            ix: 0,
            iy: 0,
        };
        let report = ImagingReport {
            grid,
            times_s: vec![1.0, 1.4, 1.8],
            fixes: vec![
                vec![fix(-2.0, 2.0)],               // matches subject at (−2.1, 2.1)
                vec![fix(2.0, 3.0), fix(0.0, 1.0)], // one match + one ghost
                vec![],                             // miss
            ],
            tracks: Vec::new(),
            confirmed_counts: vec![0, 0, 0],
        };
        let gt = vec![
            vec![Point::new(-2.1, 2.1)],
            vec![Point::new(2.1, 3.1)],
            vec![Point::new(1.5, 2.0)],
        ];
        let s = score_imaging(&report, &gt, 0.0, 0);
        assert_eq!(s.n_detectable, 3);
        assert_eq!(s.n_detected, 2);
        assert_eq!(s.false_fixes, 1);
        // No ghost tracks in this report: credible == raw.
        assert_eq!(s.false_fixes_raw, 1);
        assert_eq!(s.ghost_tracks, 0);
        assert!((s.detection_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.mean_error_m() < 0.2);

        // A subject inside the boresight strip is not detectable…
        let gt_center = vec![
            vec![Point::new(0.2, 2.1)],
            vec![Point::new(0.5, 3.1)],
            vec![Point::new(-0.8, 2.0)],
        ];
        let s2 = score_imaging(&report, &gt_center, 0.0, 0);
        assert_eq!(s2.n_detectable, 0);
        assert_eq!(s2.detection_rate(), 1.0);

        // …and warm-up windows are excluded.
        let s3 = score_imaging(&report, &gt, 0.0, 2);
        assert_eq!(s3.n_detectable, 1);
        assert_eq!(s3.n_windows, 1);

        let _ = GridSpec::cover(Scene::conference_room_small(), 0.125, 0.5);
    }
}
