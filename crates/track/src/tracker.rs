//! The multi-target angle tracker: detections → tracks → events.
//!
//! Per spectrogram column (one analysis window) the tracker detects the
//! column's ridge peaks ([`crate::detect::detect_column`]) and runs one
//! step of the shared track lifecycle ([`crate::lifecycle`]) over them,
//! with a constant-velocity `(θ, θ̇)` [`wivi_num::Kalman2`] per track.
//! This module is the angle policy over that core. It adds the tentative
//! allowance ([`TrackerConfig::tentative_misses`]; one-window tracks are
//! MUSIC grass, never people), the announcement veto
//! ([`TrackerConfig::dominance_lead_fraction`]), merging of converged
//! duplicates, and entry, exit, DC-line crossing and count-change events.
//!
//! Everything here is a pure deterministic function of the column
//! sequence, so the tracker's output never depends on how the
//! observations were batched (pinned by `tests/streaming_equivalence.rs`).

use wivi_core::gesture::DetectedGesture;
use wivi_core::music::MusicConfig;
use wivi_core::spectrogram::AngleSpectrogram;
use wivi_num::Kalman2;

use crate::detect::{detect_column, Detection, DetectorConfig};
use crate::events::{EventKind, TrackEvent};
use crate::lifecycle::{Lifecycle, TrackPolicy, TrackRecord};

/// Tracker tuning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackerConfig {
    pub detector: DetectorConfig,
    /// Hard association gate: a detection farther than this many degrees
    /// from a track's predicted angle can never match it.
    pub gate_deg: f64,
    /// Statistical gate on the normalized innovation squared (χ² with
    /// 1 dof; 9 ≈ a 3σ gate). Doubles as the per-track miss cost in the
    /// assignment, so a worse-than-gate match always loses to starting a
    /// new track.
    pub gate_nis: f64,
    /// Kalman white-acceleration PSD `q`, deg²/s³ — how fast θ̇ is
    /// allowed to wander (people turn on ~1 s timescales).
    pub process_noise: f64,
    /// Measurement noise variance `r`, deg² (sub-bin interpolation
    /// leaves roughly a bin of uncertainty).
    pub measurement_var: f64,
    /// Initial position variance of a newborn track, deg².
    pub init_pos_var: f64,
    /// Initial velocity variance of a newborn track, (deg/s)².
    pub init_vel_var: f64,
    /// Matched windows before a tentative track is confirmed.
    pub confirm_hits: usize,
    /// Consecutive misses a *tentative* track survives before it is
    /// dropped (young ridges flicker while a subject's SNR builds; one
    /// forgiven miss roughly halves confirmation latency without letting
    /// single-window noise live).
    pub tentative_misses: usize,
    /// Two live tracks whose filtered angles come closer than this merge
    /// — provided their angle rates also agree (see
    /// [`Self::merge_vel_deg_s`]): the less-established one is absorbed
    /// (a coasting track drifting onto another's ridge must not
    /// double-count the person).
    pub merge_deg: f64,
    /// Velocity-agreement gate for merging, degrees/second. Crossing
    /// tracks pass within the merge gate with *opposing* rates and must
    /// not be merged; duplicates ride the same ridge with the same rate.
    pub merge_vel_deg_s: f64,
    /// Consecutive misses a confirmed track survives (coasting) before
    /// it is declared dead.
    pub max_misses: usize,
    /// Dominance veto, part 1: a confirmed track is *announced* (enters
    /// the event stream, the count, and the report) once it has been its
    /// column's strongest detection in at least this fraction of its
    /// observed windows…
    pub dominance_lead_fraction: f64,
    /// …or, part 2, once its mean dB gap below the per-column leader
    /// over its last [`DOMINANCE_GAP_WINDOW`] observations is at most
    /// this. Micro-Doppler/multipath ghosts — limb sidebands, conjugate
    /// images, wall-bounce echoes of a strong body — form real,
    /// persistent MUSIC ridges, but they essentially never lead their
    /// column and ride well below it; genuine bodies trade the lead as
    /// their peaks fluctuate, or at least track the leader closely. The
    /// gap test is windowed so a real subject that started during
    /// another subject's strong phase is not burdened forever by its
    /// early gaps. The veto is monotone (announce once, never retract),
    /// so counting stays streaming-consistent.
    pub dominance_mean_gap_db: f64,
    /// Announcement, alternate path: a confirmed track with at least
    /// this many observed windows…
    pub announce_obs_windows: usize,
    /// …covering at least this fraction of its lifetime also announces,
    /// dominance or not. A genuinely weaker body (third-strongest in the
    /// room, far from the device) may ride 10–20 dB below the column
    /// leader indefinitely, but it is detected in nearly *every* window
    /// at a stable angle, while ghost ridges flicker in scattered
    /// windows. Continuity separates them where power cannot.
    pub announce_continuity: f64,
    /// Analysis-window length in channel samples (timing only).
    pub window_len: usize,
    /// Hop between windows in channel samples.
    pub hop: usize,
    /// Channel sampling period, seconds.
    pub sample_period_s: f64,
}

impl TrackerConfig {
    /// A tracker matched to a MUSIC tracker configuration: window timing
    /// from its ISAR parameters, detection thresholds shared with the
    /// counting statistic.
    pub fn for_music(cfg: &MusicConfig) -> Self {
        Self {
            detector: DetectorConfig::default(),
            gate_deg: 18.0,
            gate_nis: 9.0,
            process_noise: 250.0,
            measurement_var: 4.0,
            init_pos_var: 9.0,
            init_vel_var: 400.0,
            confirm_hits: 4,
            tentative_misses: 1,
            merge_deg: 6.0,
            merge_vel_deg_s: 60.0,
            max_misses: 10,
            dominance_lead_fraction: 0.125,
            dominance_mean_gap_db: 5.0,
            announce_obs_windows: 10,
            announce_continuity: 0.7,
            window_len: cfg.isar.window,
            hop: cfg.isar.hop,
            sample_period_s: cfg.isar.sample_period_s,
        }
    }

    /// Centre time of analysis window `k` — the *same expression* the
    /// streaming stages use, so report times match
    /// [`AngleSpectrogram::times_s`] bit-for-bit.
    pub fn window_time_s(&self, k: usize) -> f64 {
        ((k * self.hop) as f64 + self.window_len as f64 / 2.0) * self.sample_period_s
    }

    /// Time between consecutive windows, seconds (the Kalman predict
    /// step).
    pub fn window_dt_s(&self) -> f64 {
        self.hop as f64 * self.sample_period_s
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        self.detector.validate();
        assert!(self.gate_deg > 0.0 && self.gate_nis > 0.0);
        assert!((0.0..=1.0).contains(&self.dominance_lead_fraction));
        assert!(self.dominance_mean_gap_db >= 0.0);
        assert!((0.0..=1.0).contains(&self.announce_continuity));
        assert!(self.process_noise > 0.0 && self.measurement_var > 0.0);
        assert!(self.init_pos_var > 0.0 && self.init_vel_var > 0.0);
        assert!(self.confirm_hits >= 1, "confirm_hits must be at least 1");
        assert!(self.merge_deg >= 0.0);
        assert!(self.window_len >= 1 && self.hop >= 1);
        assert!(self.sample_period_s > 0.0);
    }
}

/// Number of recent observations the windowed dominance-gap test runs
/// over (see [`TrackerConfig::dominance_mean_gap_db`]).
pub const DOMINANCE_GAP_WINDOW: usize = 8;

/// One window of a track's trajectory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrackPoint {
    /// Analysis-window index.
    pub window: usize,
    /// Window centre time, seconds.
    pub time_s: f64,
    /// Filtered angle estimate, degrees.
    pub theta_deg: f64,
    /// Filtered angle rate, degrees/second.
    pub theta_vel: f64,
    /// The raw detection angle this window, if the track was observed.
    pub observed: Option<f64>,
}

/// The angle policy's per-track state: the evidence the announcement
/// veto accumulates (see [`TrackerConfig::dominance_lead_fraction`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Dominance {
    /// Windows in which this track's detection was its column's
    /// strongest.
    pub led_windows: usize,
    /// The last [`DOMINANCE_GAP_WINDOW`] dB gaps below the per-column
    /// strongest detection (ring buffer; only the first
    /// `min(observed_windows, DOMINANCE_GAP_WINDOW)` entries are live).
    pub recent_gaps_db: [f64; DOMINANCE_GAP_WINDOW],
}

/// One target's track through the spectrogram: the shared lifecycle
/// record around a `(θ, θ̇)` [`Kalman2`], with one [`TrackPoint`] per
/// window and the [`Dominance`] evidence.
pub type Track = TrackRecord<Kalman2, TrackPoint, Dominance>;

impl Track {
    /// The dominance test (see
    /// [`TrackerConfig::dominance_lead_fraction`]): led often enough, or
    /// recently close enough to the leader on average.
    pub fn is_dominant(&self, cfg: &TrackerConfig) -> bool {
        if self.observed_windows == 0 {
            return false;
        }
        // The fraction rule needs at least two leads: a ghost gets one
        // free lead whenever its source body's ridge fades for a single
        // window, and one lead over a young track's few observations
        // would clear any sensible fraction.
        let led = self.extra.led_windows;
        if led >= 2 && led as f64 >= cfg.dominance_lead_fraction * self.observed_windows as f64 {
            return true;
        }
        let n = self.observed_windows.min(DOMINANCE_GAP_WINDOW);
        let recent: f64 = self.extra.recent_gaps_db[..n].iter().sum();
        recent <= cfg.dominance_mean_gap_db * n as f64
    }

    /// The full announcement test: confirmed, and either dominant or
    /// continuously observed (see [`TrackerConfig::announce_continuity`]).
    /// `now_window` is the window currently being processed.
    pub fn meets_announcement(&self, cfg: &TrackerConfig, now_window: usize) -> bool {
        if self.confirmed_window.is_none() {
            return false;
        }
        if self.is_dominant(cfg) {
            return true;
        }
        let span = now_window - self.born_window + 1;
        self.observed_windows >= cfg.announce_obs_windows
            && self.observed_windows as f64 >= cfg.announce_continuity * span as f64
    }

    /// Mean observed angle over the track's matched windows.
    pub fn mean_observed_theta(&self) -> Option<f64> {
        let obs: Vec<f64> = self.history.iter().filter_map(|p| p.observed).collect();
        if obs.is_empty() {
            None
        } else {
            Some(obs.iter().sum::<f64>() / obs.len() as f64)
        }
    }
}

/// Everything a tracking run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackingReport {
    /// Every announced track (confirmed + past the dominance veto), in
    /// id (birth) order. Tracks still live at the end of the trace keep
    /// their final status.
    pub tracks: Vec<Track>,
    /// The event stream, in emission order.
    pub events: Vec<TrackEvent>,
    /// Per-window count of announced tracks (coasting included — a fade
    /// is not an exit).
    pub confirmed_counts: Vec<usize>,
    /// Window centre times, seconds (matches the spectrogram's
    /// `times_s`).
    pub times_s: Vec<f64>,
    /// The configuration that produced this report.
    pub cfg: TrackerConfig,
}

impl TrackingReport {
    /// Number of windows processed.
    pub fn n_windows(&self) -> usize {
        self.confirmed_counts.len()
    }

    /// Index of the window whose centre time is nearest `time_s`.
    ///
    /// # Panics
    /// Panics if no windows were processed.
    pub fn window_near_time(&self, time_s: f64) -> usize {
        assert!(!self.times_s.is_empty(), "no windows processed");
        self.times_s
            .iter()
            .enumerate()
            .min_by(|a, b| {
                (a.1 - time_s)
                    .abs()
                    .partial_cmp(&(b.1 - time_s).abs())
                    .unwrap()
            })
            .unwrap()
            .0
    }

    /// Entry events, in order.
    pub fn entries(&self) -> Vec<&TrackEvent> {
        self.events.iter().filter(|e| e.is_entry()).collect()
    }

    /// Exit events, in order.
    pub fn exits(&self) -> Vec<&TrackEvent> {
        self.events.iter().filter(|e| e.is_exit()).collect()
    }

    /// Attributes a decoded gesture to a confirmed track: a step forward
    /// (`polarity = +1`) is a closing motion and shows up as a positive-θ
    /// ridge, a step backward as negative-θ. Among the confirmed tracks
    /// spanning the gesture's window, the one with the largest
    /// polarity-matching |θ| is the signaller (gesturing dominates θ̇,
    /// hence |θ|, while bystanders amble). Returns `None` when no
    /// confirmed track matches the polarity side.
    pub fn attribute_gesture(&self, time_s: f64, polarity: i8) -> Option<u32> {
        if self.times_s.is_empty() {
            return None;
        }
        let w = self.window_near_time(time_s);
        self.tracks
            .iter()
            .filter(|tr| tr.confirmed_window.is_some())
            .filter_map(|tr| tr.point_at(w).map(|p| (tr, p)))
            .filter(|(_, p)| (polarity as f64) * p.theta_deg > 0.0)
            .max_by(|a, b| {
                a.1.theta_deg
                    .abs()
                    .partial_cmp(&b.1.theta_deg.abs())
                    .unwrap()
            })
            .map(|(tr, _)| tr.id)
    }

    /// [`Self::attribute_gesture`] over a decoded gesture sequence.
    pub fn attribute_gestures(&self, gestures: &[DetectedGesture]) -> Vec<Option<u32>> {
        gestures
            .iter()
            .map(|g| self.attribute_gesture(g.time_s, g.polarity))
            .collect()
    }
}

/// The streaming multi-target tracker. Feed it spectrogram columns (from
/// a [`wivi_core::Stage`] observer or an offline spectrogram) and drain
/// the [`TrackingReport`] with [`Self::finish`].
#[derive(Clone, Debug)]
pub struct MultiTargetTracker {
    core: Lifecycle<AnglePolicy>,
}

impl MultiTargetTracker {
    /// Creates a tracker.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: TrackerConfig) -> Self {
        cfg.validate();
        Self {
            core: Lifecycle::new(AnglePolicy {
                cfg,
                col_max_db: f64::NEG_INFINITY,
                events: Vec::new(),
            }),
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &TrackerConfig {
        &self.core.policy.cfg
    }

    /// Windows processed so far.
    pub fn n_windows(&self) -> usize {
        self.core.n_windows()
    }

    /// Live tracks (any status), in birth order.
    pub fn live_tracks(&self) -> &[Track] {
        self.core.live_tracks()
    }

    /// Current confirmed-track count (coasting included).
    pub fn confirmed_count(&self) -> usize {
        self.core.confirmed_count()
    }

    /// Events emitted so far.
    pub fn events(&self) -> &[TrackEvent] {
        &self.core.policy.events
    }

    /// Processes one spectrogram column: detection, one lifecycle step,
    /// then the count-change event, the window's last.
    pub fn push_column(&mut self, thetas_deg: &[f64], power_row: &[f64]) {
        let w = self.core.n_windows();
        let _span = wivi_obs::span_with("track.window", w as u64);
        let policy = &mut self.core.policy;
        let dets = detect_column(thetas_deg, power_row, &policy.cfg.detector);
        // The column's strongest detection — the reference the dominance
        // veto accumulates against.
        policy.col_max_db = dets
            .iter()
            .map(|d| d.power_db)
            .fold(f64::NEG_INFINITY, f64::max);
        let before = self.core.confirmed_count();
        self.core.step(&dets);
        let count = self.core.confirmed_count();
        if count != before {
            self.core
                .policy
                .emit(w, None, EventKind::CountChange { count });
        }
    }

    /// Finalizes the run. Tracks still live keep their final status;
    /// tracks that were never announced — tentative flicker, vetoed
    /// ghosts — are dropped. No exit events are emitted for tracks alive
    /// at the end of the trace — the trace ended, the people didn't
    /// leave.
    pub fn finish(self) -> TrackingReport {
        let (policy, summary) = self.core.finish();
        let mut events = policy.events;
        events.shrink_to_fit();
        TrackingReport {
            tracks: summary.tracks,
            events,
            confirmed_counts: summary.confirmed_counts,
            times_s: summary.times_s,
            cfg: policy.cfg,
        }
    }
}

/// The angle tracker's policy over the shared lifecycle: the `(θ, θ̇)`
/// measurement model, the announcement veto, merging, and the events.
#[derive(Clone, Debug)]
struct AnglePolicy {
    cfg: TrackerConfig,
    /// The current column's strongest detection, dB.
    col_max_db: f64,
    events: Vec<TrackEvent>,
}

impl AnglePolicy {
    /// Emits an event about window `window`, at that window's centre
    /// time.
    fn emit(&mut self, window: usize, track_id: Option<u32>, kind: EventKind) {
        let time_s = self.cfg.window_time_s(window);
        self.events.push(TrackEvent {
            window,
            time_s,
            track_id,
            kind,
        });
    }
}

impl TrackPolicy for AnglePolicy {
    type Measurement = Detection;
    type Filter = Kalman2;
    type Point = TrackPoint;
    type Extra = Dominance;

    fn confirm_hits(&self) -> usize {
        self.cfg.confirm_hits
    }

    fn tentative_misses(&self) -> usize {
        self.cfg.tentative_misses
    }

    fn max_misses(&self) -> usize {
        self.cfg.max_misses
    }

    fn window_time_s(&self, k: usize) -> f64 {
        self.cfg.window_time_s(k)
    }

    fn init(&self, d: &Detection) -> Kalman2 {
        Kalman2::from_observation(d.theta_deg, self.cfg.init_pos_var, self.cfg.init_vel_var)
    }

    fn predict(&self, kf: &mut Kalman2) {
        kf.predict(self.cfg.window_dt_s(), self.cfg.process_noise);
    }

    /// Normalized innovation squared, inside both the hard angle gate
    /// and the statistical gate.
    fn cost(&self, kf: &Kalman2, d: &Detection) -> f64 {
        let resid = (d.theta_deg - kf.predicted()).abs();
        let nis = kf.gate_distance2(d.theta_deg, self.cfg.measurement_var);
        if resid <= self.cfg.gate_deg && nis <= self.cfg.gate_nis {
            nis
        } else {
            f64::INFINITY
        }
    }

    fn miss_cost(&self) -> f64 {
        self.cfg.gate_nis
    }

    fn update(&self, kf: &mut Kalman2, d: &Detection) {
        kf.update(d.theta_deg, self.cfg.measurement_var);
    }

    /// Emits a [`EventKind::Crossing`] first when an announced track's
    /// filtered angle changes sign. The check runs against the
    /// *history*, so a crossing completed while coasting (the DC guard
    /// blanks detections near θ = 0) is caught on reacquisition.
    fn point(
        &mut self,
        tr: &Track,
        window: usize,
        time_s: f64,
        d: Option<&Detection>,
    ) -> TrackPoint {
        let theta_deg = tr.filter.predicted();
        let prev_theta = tr.history.last().map_or(theta_deg, |p| p.theta_deg);
        if tr.announced && prev_theta * theta_deg < 0.0 {
            let direction = if theta_deg > 0.0 { 1 } else { -1 };
            self.emit(window, Some(tr.id), EventKind::Crossing { direction });
        }
        TrackPoint {
            window,
            time_s,
            theta_deg,
            theta_vel: tr.filter.velocity(),
            observed: d.map(|d| d.theta_deg),
        }
    }

    /// Accumulates the dominance evidence, then applies the announcement
    /// veto. The entry event is back-dated to the birth window, so entry
    /// *timing* carries no confirmation or veto latency. A track confirmed
    /// at birth (`confirm_hits == 1`) is announced on dominance alone.
    fn observed(&mut self, tr: &mut Track, d: &Detection, born: bool) {
        let gap = self.col_max_db - d.power_db;
        tr.extra.recent_gaps_db[(tr.observed_windows - 1) % DOMINANCE_GAP_WINDOW] = gap;
        if gap == 0.0 {
            tr.extra.led_windows += 1;
        }
        let announce = if born {
            tr.confirmed_window.is_some() && tr.is_dominant(&self.cfg)
        } else {
            tr.meets_announcement(&self.cfg, tr.last_observed_window)
        };
        if !tr.announced && announce {
            tr.announced = true;
            let theta_deg = tr.filter.predicted();
            self.emit(tr.born_window, Some(tr.id), EventKind::Entry { theta_deg });
        }
    }

    /// An announced track's exit is back-dated to its last observation,
    /// so exit timing does not lag by the miss budget.
    fn died(&mut self, tr: &Track) {
        if !tr.announced {
            return;
        }
        if let Some(last) = tr.point_at(tr.last_observed_window) {
            let theta_deg = last.theta_deg;
            self.emit(last.window, Some(tr.id), EventKind::Exit { theta_deg });
        }
    }

    /// When two live tracks' filtered angles come within the merge gate
    /// with agreeing rates, the less-established one (fewer observed
    /// windows; the elder id wins ties) is absorbed — a coasting track
    /// drifting onto another's ridge must not count the person twice.
    /// The absorbed track hands over its announcement, so the count never
    /// dips from a merge.
    fn merge(&mut self, live: &mut [Track], gone: &mut [bool]) {
        for i in 0..live.len() {
            for j in (i + 1)..live.len() {
                if gone[i] || gone[j] {
                    continue;
                }
                let (a, b) = (&live[i].filter, &live[j].filter);
                if (a.predicted() - b.predicted()).abs() < self.cfg.merge_deg
                    && (a.velocity() - b.velocity()).abs() < self.cfg.merge_vel_deg_s
                {
                    // Birth order means id_i < id_j, so i wins ties.
                    let loser = if live[i].observed_windows >= live[j].observed_windows {
                        j
                    } else {
                        i
                    };
                    let winner = i + j - loser;
                    if live[loser].announced {
                        live[winner].announced = true;
                    }
                    gone[loser] = true;
                }
            }
        }
    }
}

/// Runs the tracker over a complete spectrogram (the offline shape).
pub fn track_spectrogram(spec: &AngleSpectrogram, cfg: TrackerConfig) -> TrackingReport {
    let mut tracker = MultiTargetTracker::new(cfg);
    for row in &spec.power {
        tracker.push_column(&spec.thetas_deg, row);
    }
    tracker.finish()
}
