//! Position tracking over per-window image fixes: the imaging
//! counterpart of `wivi-track`'s angle tracker, and a second policy over
//! the same track lifecycle ([`wivi_track::lifecycle`]). Its measurement
//! model is one constant-velocity [`wivi_num::Kalman2`] per coordinate
//! (the CV model is separable, so two 2-state filters are exactly the
//! 4-state (x, y, ẋ, ẏ) filter with block-diagonal covariance), gated in
//! metres and by the summed per-axis innovation. The policy is the plain
//! lifecycle — a tentative track dies on its first miss; no
//! announcement veto, no merging, since the CFAR detector already
//! thresholds against local noise and mirror ghosts are suppressed at fix
//! extraction — plus the mirror-side vote at [`PositionTracker::finish`].
//!
//! Everything is a pure deterministic function of the fix sequence, so
//! the streaming tracker is bitwise identical to the offline one.

use wivi_num::Kalman2;
use wivi_track::lifecycle::{Lifecycle, TrackPolicy, TrackRecord, TrackingSummary};

use crate::config::ImageConfig;
use crate::engine::ImageFix;

/// Position-tracker tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositionTrackerConfig {
    /// Hard association gate: a fix farther than this many metres from a
    /// track's predicted position can never match it.
    pub gate_m: f64,
    /// Statistical gate on the summed normalized innovation squared
    /// (χ² with 2 dof; 11.8 ≈ a 3σ gate). Doubles as the miss cost.
    pub gate_nis: f64,
    /// White-acceleration PSD per axis, m²/s³.
    pub process_noise: f64,
    /// Measurement noise variance per axis, m² (sub-cell refinement
    /// leaves roughly half a cell of uncertainty).
    pub measurement_var: f64,
    /// Initial position variance of a newborn track, m².
    pub init_pos_var: f64,
    /// Initial velocity variance of a newborn track, (m/s)².
    pub init_vel_var: f64,
    /// Matched windows before a tentative track is confirmed.
    pub confirm_hits: usize,
    /// Consecutive misses a confirmed track survives (coasting) before
    /// it dies.
    pub max_misses: usize,
    /// Analysis-window length in channel samples (timing only).
    pub window_len: usize,
    /// Hop between windows, channel samples.
    pub hop: usize,
    /// Channel sampling period, seconds.
    pub sample_period_s: f64,
    /// The boresight (mirror) axis `x`, metres — the receive antenna's
    /// x. A target at `(x, y)` leaves its conjugate ghost near the
    /// reflection of `x` across this axis.
    pub mirror_axis_x_m: f64,
    /// Track-pair tolerance of the mirror-side vote, metres
    /// (0 disables): two confirmed tracks whose per-window positions
    /// reflect each other across the axis within this tolerance form a
    /// mirror pair, and the vote marks the weaker member a ghost (see
    /// [`MirrorVote::mirror_of`]).
    pub mirror_vote_tol_m: f64,
}

/// Fraction of a mirror pair's jointly observed windows that must vote
/// "mirrored" before the pair is declared real + ghost (per-window
/// side flips are noisy; a supermajority is required).
const MIRROR_VOTE_MAJORITY: f64 = 0.7;

/// Minimum jointly observed windows before the vote is meaningful.
/// Ghost tracks are short — the joint-LS errs in bursts of a few
/// windows — so the floor is the tracker's own confirmation bar, not
/// a long overlap.
const MIRROR_VOTE_MIN_COMMON: usize = 2;

/// Range-axis (y) slack factor of the pair test: the range axis is
/// several times coarser than azimuth and limb micro-Doppler smears a
/// body's focused blob along it, so a mirrored pair's y values differ
/// by more than their x values reflect. Must stay below the showcase
/// lane separation (1.4 m) over the default tolerance so two real
/// subjects on mirrored lanes never pair.
const MIRROR_VOTE_Y_SLACK: f64 = 1.2;

/// Window slack of the pair test: a ghost fix is compared against the
/// real track's observed positions up to this many windows away. In
/// exactly the windows whose body fix flipped sides, the real track has
/// no body fix of its own (it coasted, or latched a limb artefact), so
/// the ghost must be matched against where the body track was *around*
/// the flip, not at it.
const MIRROR_VOTE_WINDOW_SLACK: usize = 1;

/// Boresight guard of the vote, metres: side decisions anchored closer
/// than this to the mirror axis are not counted. Near the axis the two
/// mirror hypotheses collapse into one (the per-window joint solve
/// itself bails there as indistinguishable), and a subject *crossing*
/// the axis legitimately leaves an axis-adjacent mirror-looking track
/// pair — votes there would suppress real detections, not ghosts.
const MIRROR_VOTE_AXIS_GUARD_M: f64 = 1.5;

impl PositionTrackerConfig {
    /// A tracker matched to an imaging configuration: window timing from
    /// the aperture, measurement noise from the cell size.
    pub fn for_image(cfg: &ImageConfig) -> Self {
        // Gate and noise scales follow the coarser (range) axis — the
        // azimuth axis is finer, never worse.
        let cell = cfg.grid.cell_x_m.max(cfg.grid.cell_y_m);
        Self {
            gate_m: 3.0 * cell,
            gate_nis: 11.8,
            process_noise: 1.0,
            measurement_var: (cell / 2.0) * (cell / 2.0),
            init_pos_var: cell * cell,
            init_vel_var: 1.0,
            confirm_hits: 2,
            max_misses: 3,
            window_len: cfg.window,
            hop: cfg.hop,
            sample_period_s: cfg.sample_period_s,
            mirror_axis_x_m: cfg.rx.x,
            // Track-level positions carry range smear the per-window
            // detector's sub-cell fixes do not, so the vote's tolerance
            // is the coarse-axis cell pitch (2 cells), not the
            // detector's mirror_tol_m.
            mirror_vote_tol_m: if cfg.mirror_tol_m > 0.0 {
                2.0 * cell
            } else {
                0.0
            },
        }
    }

    /// Time between consecutive windows, seconds.
    pub fn window_dt_s(&self) -> f64 {
        self.hop as f64 * self.sample_period_s
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.gate_m > 0.0 && self.gate_nis > 0.0);
        assert!(self.process_noise > 0.0 && self.measurement_var > 0.0);
        assert!(self.init_pos_var > 0.0 && self.init_vel_var > 0.0);
        assert!(self.confirm_hits >= 1, "confirm_hits must be at least 1");
        assert!(self.window_len >= 1 && self.hop >= 1);
        assert!(self.sample_period_s > 0.0);
        assert!(self.mirror_axis_x_m.is_finite());
        assert!(self.mirror_vote_tol_m >= 0.0);
    }
}

/// One window of a position track's trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PositionPoint {
    /// Analysis-window index.
    pub window: usize,
    /// Window centre time, seconds.
    pub time_s: f64,
    /// Filtered position, metres.
    pub x_m: f64,
    pub y_m: f64,
    /// Filtered velocity, m/s.
    pub vx: f64,
    pub vy: f64,
    /// The fix this window matched, if the track was observed.
    pub observed: Option<ImageFix>,
}

/// The mirror-side vote's verdict on a track: the position policy's
/// per-track state.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MirrorVote {
    /// Set by the mirror-side vote at [`PositionTracker::finish`]: the
    /// id of the (stronger) track this one is the conjugate ghost of.
    /// The per-window joint-LS mirror resolution occasionally picks the
    /// wrong side, and those error windows accrete into a track on the
    /// mirrored trajectory; across windows the errors flip side while a
    /// real target's fixes keep feeding one track, so the track that
    /// wins the per-window majority is real and the loser is marked
    /// here. Ghost tracks stay in the report (nothing pinned changes) —
    /// consumers filter with
    /// [`ImagingReport::credible_fixes`](crate::ImagingReport::credible_fixes).
    pub mirror_of: Option<u32>,
}

/// One target's track through the room: the shared lifecycle record
/// around one [`Kalman2`] per axis (`filter = [x, y]`), with one
/// [`PositionPoint`] per window and the [`MirrorVote`].
pub type PositionTrack = TrackRecord<[Kalman2; 2], PositionPoint, MirrorVote>;

/// Everything a position-tracking run produced (the tracker half of the
/// [`crate::ImagingReport`]): every confirmed track in id order, and the
/// per-window confirmed counts (coasting included) and times.
pub type PositionTrackingSummary = TrackingSummary<PositionTrack>;

/// The streaming position tracker: feed it each window's fixes, drain
/// the summary with [`Self::finish`].
#[derive(Clone, Debug)]
pub struct PositionTracker {
    core: Lifecycle<PositionTrackerConfig>,
}

impl PositionTracker {
    /// Creates a tracker.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: PositionTrackerConfig) -> Self {
        cfg.validate();
        Self {
            core: Lifecycle::new(cfg),
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &PositionTrackerConfig {
        &self.core.policy
    }

    /// Windows processed so far.
    pub fn n_windows(&self) -> usize {
        self.core.n_windows()
    }

    /// Live tracks (any status), in birth order.
    pub fn live_tracks(&self) -> &[PositionTrack] {
        self.core.live_tracks()
    }

    /// Current confirmed-track count (coasting included).
    pub fn confirmed_count(&self) -> usize {
        self.core.confirmed_count()
    }

    /// Processes one window's fixes: one lifecycle step.
    pub fn push_fixes(&mut self, fixes: &[ImageFix]) {
        self.core.step(fixes);
    }

    /// Finalizes the run: confirmed tracks only, id order, with the
    /// mirror-side vote annotating conjugate ghosts; tracks alive at
    /// the end keep their final status.
    pub fn finish(self) -> PositionTrackingSummary {
        let (cfg, mut summary) = self.core.finish();
        vote_mirror_sides(&mut summary.tracks, &cfg);
        summary
    }
}

/// The configuration is the whole position policy: the per-axis
/// measurement model over the plain lifecycle (no tentative allowance,
/// no veto, no merging).
impl TrackPolicy for PositionTrackerConfig {
    type Measurement = ImageFix;
    type Filter = [Kalman2; 2];
    type Point = PositionPoint;
    type Extra = MirrorVote;

    fn confirm_hits(&self) -> usize {
        self.confirm_hits
    }

    fn max_misses(&self) -> usize {
        self.max_misses
    }

    /// The same expression [`ImageConfig::window_center_s`] uses.
    fn window_time_s(&self, k: usize) -> f64 {
        ((k * self.hop) as f64 + self.window_len as f64 / 2.0) * self.sample_period_s
    }

    fn init(&self, f: &ImageFix) -> [Kalman2; 2] {
        [f.x_m, f.y_m].map(|z| Kalman2::from_observation(z, self.init_pos_var, self.init_vel_var))
    }

    fn predict(&self, [kx, ky]: &mut [Kalman2; 2]) {
        kx.predict(self.window_dt_s(), self.process_noise);
        ky.predict(self.window_dt_s(), self.process_noise);
    }

    /// The summed per-axis normalized innovation, inside both the hard
    /// distance gate and the statistical gate.
    fn cost(&self, [kx, ky]: &[Kalman2; 2], f: &ImageFix) -> f64 {
        let r = self.measurement_var;
        let dist = (f.x_m - kx.predicted()).hypot(f.y_m - ky.predicted());
        let nis = kx.gate_distance2(f.x_m, r) + ky.gate_distance2(f.y_m, r);
        if dist <= self.gate_m && nis <= self.gate_nis {
            nis
        } else {
            f64::INFINITY
        }
    }

    fn miss_cost(&self) -> f64 {
        self.gate_nis
    }

    fn update(&self, [kx, ky]: &mut [Kalman2; 2], f: &ImageFix) {
        kx.update(f.x_m, self.measurement_var);
        ky.update(f.y_m, self.measurement_var);
    }

    fn point(
        &mut self,
        tr: &PositionTrack,
        window: usize,
        time_s: f64,
        f: Option<&ImageFix>,
    ) -> PositionPoint {
        let [kx, ky] = &tr.filter;
        PositionPoint {
            window,
            time_s,
            x_m: kx.predicted(),
            y_m: ky.predicted(),
            vx: kx.velocity(),
            vy: ky.velocity(),
            observed: f.copied(),
        }
    }
}

/// The tracker-level mirror disambiguation. Every window where two
/// tracks were both fed a fix is one joint-LS side decision; the pair
/// votes "mirrored" when those fixes reflect each other across the
/// boresight axis (x reflects within the tolerance; y — the coarse,
/// micro-Doppler-smeared range axis — gets proportional slack). A
/// supermajority of mirrored windows means the pair is one target plus
/// its conjugate ghost: the joint-LS side choice flips window-to-window
/// for the ghost (it is fed only by the resolution's error windows)
/// while the real target's track is fed consistently — so the member
/// holding a clear fix majority (`observed_windows`, ≥ 2×) is real and
/// the other is marked [`MirrorVote::mirror_of`] it. A pair without
/// that dominance — e.g. two genuinely mirror-symmetric subjects — is
/// left alone. Pure function of the track set, so serving stays
/// bitwise identical to standalone.
fn vote_mirror_sides(tracks: &mut [PositionTrack], cfg: &PositionTrackerConfig) {
    let tol = cfg.mirror_vote_tol_m;
    if tol <= 0.0 {
        return;
    }
    let axis2 = 2.0 * cfg.mirror_axis_x_m;
    for i in 0..tracks.len() {
        for j in (i + 1)..tracks.len() {
            // A track already voted a ghost cannot claim others (its
            // mirror is the real target it shadows).
            if tracks[i].extra.mirror_of.is_some() || tracks[j].extra.mirror_of.is_some() {
                continue;
            }
            // Only a clearly weaker partner can be a ghost: error
            // windows are the minority by construction.
            let (oi, oj) = (tracks[i].observed_windows, tracks[j].observed_windows);
            if 2 * oi.min(oj) > oi.max(oj) {
                continue;
            }
            let ghost = if oi >= oj { j } else { i };
            let real = i + j - ghost;
            // Each of the candidate ghost's observed windows is one
            // joint-LS side decision: it votes "mirrored" when the real
            // track holds a nearby observed position whose reflection
            // matches it.
            let (mut common, mut mirrored) = (0usize, 0usize);
            for pg in tracks[ghost]
                .history
                .iter()
                .filter(|p| p.observed.is_some())
            {
                let neighbors: Vec<&PositionPoint> = tracks[real]
                    .history
                    .iter()
                    .filter(|p| {
                        p.observed.is_some()
                            && p.window.abs_diff(pg.window) <= MIRROR_VOTE_WINDOW_SLACK
                            && (p.x_m - cfg.mirror_axis_x_m).abs() >= MIRROR_VOTE_AXIS_GUARD_M
                    })
                    .collect();
                if neighbors.is_empty() {
                    continue;
                }
                common += 1;
                if neighbors.iter().any(|pr| {
                    (pg.x_m + pr.x_m - axis2).abs() <= tol
                        && (pg.y_m - pr.y_m).abs() <= MIRROR_VOTE_Y_SLACK * tol
                }) {
                    mirrored += 1;
                }
            }
            if common < MIRROR_VOTE_MIN_COMMON
                || (mirrored as f64) < MIRROR_VOTE_MAJORITY * common as f64
            {
                continue;
            }
            tracks[ghost].extra.mirror_of = Some(tracks[real].id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_track::TrackStatus;

    fn cfg() -> PositionTrackerConfig {
        PositionTrackerConfig::for_image(&ImageConfig::fast_test())
    }

    fn fix(x: f64, y: f64) -> ImageFix {
        ImageFix {
            x_m: x,
            y_m: y,
            power_db: -30.0,
            snr_db: 12.0,
            ix: 0,
            iy: 0,
        }
    }

    #[test]
    fn steady_subject_confirms_and_tracks() {
        let mut tk = PositionTracker::new(cfg());
        for k in 0..8 {
            let t = k as f64 * tk.cfg().window_dt_s();
            tk.push_fixes(&[fix(-1.0 + 0.8 * t, 2.5)]);
        }
        assert_eq!(tk.confirmed_count(), 1);
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 1);
        let tr = &s.tracks[0];
        assert_eq!(tr.observed_windows, 8);
        assert!(tr.confirmed_window.is_some());
        // Velocity learned ≈ (0.8, 0) m/s.
        assert!(
            (tr.filter[0].velocity() - 0.8).abs() < 0.3,
            "vx {}",
            tr.filter[0].velocity()
        );
        assert!(tr.filter[1].velocity().abs() < 0.3);
        assert_eq!(s.confirmed_counts.len(), 8);
        assert_eq!(s.times_s.len(), 8);
    }

    #[test]
    fn single_window_flicker_is_never_reported() {
        let mut tk = PositionTracker::new(cfg());
        tk.push_fixes(&[fix(0.0, 2.0)]);
        for _ in 0..4 {
            tk.push_fixes(&[]);
        }
        let s = tk.finish();
        assert!(s.tracks.is_empty());
        assert!(s.confirmed_counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn two_subjects_keep_identities_through_parallel_motion() {
        let mut tk = PositionTracker::new(cfg());
        for k in 0..10 {
            let t = k as f64 * tk.cfg().window_dt_s();
            tk.push_fixes(&[fix(-2.0 + 0.9 * t, 1.5), fix(2.0 - 0.9 * t, 3.5)]);
        }
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 2);
        // Each track's observations stay on its own lane.
        for tr in &s.tracks {
            let ys: Vec<f64> = tr
                .history
                .iter()
                .filter_map(|p| p.observed.map(|f| f.y_m))
                .collect();
            let first = ys[0];
            assert!(
                ys.iter().all(|y| (y - first).abs() < 0.1),
                "lane mixed: {ys:?}"
            );
        }
        assert_eq!(*s.confirmed_counts.last().unwrap(), 2);
        // Different lanes (Δy well past the tolerance): two real
        // subjects, the mirror vote must not touch them.
        assert!(s.tracks.iter().all(|t| t.extra.mirror_of.is_none()));
    }

    #[test]
    fn mirror_vote_marks_the_intermittent_ghost() {
        // A real subject paces one lane; the per-window joint-LS errs
        // for a stretch of windows, feeding fixes on the conjugate side
        // (x reflected across the boresight axis, same y). The ghost
        // track those errors accrete into mirrors the real track
        // window-for-window but holds fewer observations — the vote
        // must mark it, and only it.
        let mut tk = PositionTracker::new(cfg());
        let dt = tk.cfg().window_dt_s();
        for k in 0..10 {
            let t = k as f64 * dt;
            let x = -2.0 + 0.8 * t;
            let mut fixes = vec![fix(x, 2.0)];
            if k < 4 {
                fixes.push(fix(-x, 2.0)); // the side-flip error windows
            }
            tk.push_fixes(&fixes);
        }
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 2);
        let real = s.tracks.iter().max_by_key(|t| t.observed_windows).unwrap();
        let ghost = s.tracks.iter().min_by_key(|t| t.observed_windows).unwrap();
        assert!(real.extra.mirror_of.is_none(), "real track voted a ghost");
        assert_eq!(
            ghost.extra.mirror_of,
            Some(real.id),
            "ghost not attributed to its real twin"
        );
    }

    #[test]
    fn mirror_vote_is_disabled_by_zero_tolerance() {
        let mut c = cfg();
        c.mirror_vote_tol_m = 0.0;
        let mut tk = PositionTracker::new(c);
        for k in 0..8 {
            let x = -1.6 + 0.3 * k as f64;
            tk.push_fixes(&[fix(x, 2.0), fix(-x, 2.0)]);
        }
        let s = tk.finish();
        assert!(s.tracks.iter().all(|t| t.extra.mirror_of.is_none()));
    }

    #[test]
    fn coasting_bridges_a_short_fade_and_miss_budget_kills() {
        let mut tk = PositionTracker::new(cfg());
        for _ in 0..4 {
            tk.push_fixes(&[fix(1.0, 2.0)]);
        }
        // Two-window fade: the track coasts, then reacquires.
        tk.push_fixes(&[]);
        tk.push_fixes(&[]);
        assert_eq!(tk.confirmed_count(), 1);
        tk.push_fixes(&[fix(1.0, 2.0)]);
        assert_eq!(tk.live_tracks()[0].status, TrackStatus::Confirmed);
        // Now exhaust the miss budget.
        for _ in 0..(tk.cfg().max_misses + 1) {
            tk.push_fixes(&[]);
        }
        assert_eq!(tk.confirmed_count(), 0);
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 1, "confirmed track must still be reported");
        assert_eq!(s.tracks[0].status, TrackStatus::Dead);
    }

    #[test]
    fn confirm_hits_one_confirms_and_counts_at_birth() {
        let mut c = cfg();
        c.confirm_hits = 1;
        let mut tk = PositionTracker::new(c);
        tk.push_fixes(&[fix(1.0, 2.0)]);
        let tr = &tk.live_tracks()[0];
        assert_eq!(tr.status, TrackStatus::Confirmed);
        assert_eq!(tr.confirmed_window, Some(tr.born_window));
        assert_eq!(tk.confirmed_count(), 1, "not counted in its birth window");
        // One window is enough to be reported; the lone miss after it
        // coasts, it does not kill.
        tk.push_fixes(&[]);
        let s = tk.finish();
        assert_eq!(s.confirmed_counts, vec![1, 1]);
        assert_eq!(s.tracks.len(), 1);
        assert_eq!(s.tracks[0].status, TrackStatus::Coasting);
    }

    #[test]
    fn tracker_is_deterministic() {
        let run = || {
            let mut tk = PositionTracker::new(cfg());
            for k in 0..6 {
                let t = k as f64 * 0.4;
                tk.push_fixes(&[fix(-1.0 + t, 2.0), fix(1.5, 3.0 - 0.3 * t)]);
            }
            tk.finish()
        };
        assert_eq!(run(), run());
    }

    /// Callers keep finished summaries, so `finish` trims each vector
    /// it hands back to its length. Ten windows leave every per-window
    /// vector short of a power of two, so an untrimmed one would show
    /// spare capacity.
    #[test]
    fn finished_summary_vectors_have_no_spare_capacity() {
        let mut tk = PositionTracker::new(cfg());
        for k in 0..10 {
            let t = k as f64 * tk.cfg().window_dt_s();
            tk.push_fixes(&[fix(-2.0 + 0.9 * t, 1.5), fix(2.0 - 0.9 * t, 3.5)]);
        }
        let s = tk.finish();
        assert_eq!(s.tracks.len(), 2);
        assert_eq!(s.tracks.capacity(), s.tracks.len());
        for tr in &s.tracks {
            assert_eq!(tr.history.capacity(), tr.history.len(), "track {}", tr.id);
        }
        assert_eq!(s.confirmed_counts.capacity(), s.confirmed_counts.len());
        assert_eq!(s.times_s.capacity(), s.times_s.len());
    }
}
