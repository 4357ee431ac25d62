//! The multi-target tracker: detections → tracks → events.
//!
//! Per spectrogram column (one analysis window) the tracker runs the
//! classic detect–associate–filter cycle:
//!
//! 1. **Predict** every live track's `(θ, θ̇)` Kalman state forward one
//!    window ([`wivi_num::Kalman2`], constant-velocity model).
//! 2. **Detect** ridge peaks in the new column
//!    ([`crate::detect::detect_column`]).
//! 3. **Associate** detections to tracks by solving the *globally
//!    optimal* assignment over gated Mahalanobis distances
//!    ([`wivi_num::solve_assignment`]) — greedy nearest-neighbour swaps
//!    identities exactly when two ridges cross; the optimal assignment
//!    does not.
//! 4. **Update** matched tracks, coast unmatched confirmed tracks
//!    through fades (a body crossing the DC guard emits no detections
//!    for several windows), spawn tentative tracks from unmatched
//!    detections, and retire tracks that exhaust their miss budget.
//!
//! Track lifecycle: `Tentative → Confirmed → Coasting ⇄ Confirmed … →
//! Dead`. Tentative tracks die on their first miss and are never
//! reported — MUSIC grass occasionally clears the ridge threshold for a
//! single window, and one-window tracks are noise, not people.
//!
//! Everything here is a pure deterministic function of the column
//! sequence, so the tracker's output never depends on how the
//! observations were batched (pinned by `tests/streaming_equivalence.rs`).

use wivi_core::gesture::DetectedGesture;
use wivi_core::music::MusicConfig;
use wivi_core::spectrogram::AngleSpectrogram;
use wivi_num::{solve_assignment, Kalman2};

use crate::detect::{detect_column, DetectorConfig};
use crate::events::{EventKind, TrackEvent};

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

/// Lifecycle state of a track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackStatus {
    /// Newborn; dies on its first miss, never reported.
    Tentative,
    /// Seen `confirm_hits` consecutive windows — a person.
    Confirmed,
    /// Confirmed but currently unobserved (ridge fade, DC-guard
    /// crossing); propagates on prediction alone.
    Coasting,
    /// Exhausted the miss budget.
    Dead,
}

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

/// One target's track through the spectrogram.
#[derive(Clone, Debug, PartialEq)]
pub struct Track {
    /// Stable identity, assigned at birth in spawn order.
    pub id: u32,
    /// Window of the first detection.
    pub born_window: usize,
    /// Window at which the track reached confirmation, if it ever did.
    pub confirmed_window: Option<usize>,
    /// Window of the most recent detection.
    pub last_observed_window: usize,
    pub status: TrackStatus,
    /// The Kalman state as of the last processed window.
    pub kf: Kalman2,
    /// Consecutive windows with a matched detection.
    pub hits: usize,
    /// Consecutive windows without one.
    pub misses: usize,
    /// Total windows with a matched detection.
    pub observed_windows: usize,
    /// Windows in which this track's detection was its column's
    /// strongest.
    pub led_windows: usize,
    /// The last [`DOMINANCE_GAP_WINDOW`] dB gaps below the per-column
    /// strongest detection (ring buffer; only the first
    /// `min(observed_windows, DOMINANCE_GAP_WINDOW)` entries are live).
    pub recent_gaps_db: [f64; DOMINANCE_GAP_WINDOW],
    /// Whether the track has passed the dominance veto and entered the
    /// event stream / count (see
    /// [`TrackerConfig::dominance_lead_fraction`]). Monotone.
    pub announced: bool,
    /// One point per window from birth to death (or to the end of the
    /// trace): `history[k]` is window `born_window + k`.
    pub history: Vec<TrackPoint>,
}

impl Track {
    /// The track's point at absolute window `w`, if the track spans it.
    pub fn point_at(&self, w: usize) -> Option<&TrackPoint> {
        w.checked_sub(self.born_window)
            .and_then(|k| self.history.get(k))
    }

    /// Number of windows the track spans.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// `true` if the track never recorded a point (not possible for
    /// reported tracks; included for completeness).
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

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
        if self.led_windows >= 2
            && self.led_windows as f64 >= cfg.dominance_lead_fraction * self.observed_windows as f64
        {
            return true;
        }
        let n = self.observed_windows.min(DOMINANCE_GAP_WINDOW);
        let recent: f64 = self.recent_gaps_db[..n].iter().sum();
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
    cfg: TrackerConfig,
    /// Live tracks in birth order (determinism depends on stable order).
    live: Vec<Track>,
    /// Retired tracks that reached confirmation.
    finished: Vec<Track>,
    next_id: u32,
    window: usize,
    events: Vec<TrackEvent>,
    confirmed_counts: Vec<usize>,
    times_s: Vec<f64>,
    last_count: usize,
    /// Scratch: per-live-track × per-detection gated costs.
    costs: Vec<Vec<f64>>,
}

impl MultiTargetTracker {
    /// Creates a tracker.
    ///
    /// # Panics
    /// Panics on an invalid configuration.
    pub fn new(cfg: TrackerConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            live: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            window: 0,
            events: Vec::new(),
            confirmed_counts: Vec::new(),
            times_s: Vec::new(),
            last_count: 0,
            costs: Vec::new(),
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> &TrackerConfig {
        &self.cfg
    }

    /// Windows processed so far.
    pub fn n_windows(&self) -> usize {
        self.window
    }

    /// Live tracks (any status), in birth order.
    pub fn live_tracks(&self) -> &[Track] {
        &self.live
    }

    /// Current confirmed-track count (coasting included).
    pub fn confirmed_count(&self) -> usize {
        self.last_count
    }

    /// Events emitted so far.
    pub fn events(&self) -> &[TrackEvent] {
        &self.events
    }

    /// Processes one spectrogram column: the full
    /// predict–detect–associate–update–lifecycle cycle.
    pub fn push_column(&mut self, thetas_deg: &[f64], power_row: &[f64]) {
        let _span = wivi_obs::span_with("track.window", self.window as u64);
        let w = self.window;
        let t = self.cfg.window_time_s(w);
        let dt = self.cfg.window_dt_s();

        // 1. Predict.
        if w > 0 {
            for tr in &mut self.live {
                tr.kf.predict(dt, self.cfg.process_noise);
            }
        }

        // 2. Detect.
        let dets = detect_column(thetas_deg, power_row, &self.cfg.detector);

        // 3. Associate: gated Mahalanobis costs, globally optimal
        //    assignment, misses priced at the gate.
        self.costs.clear();
        for tr in &self.live {
            let row: Vec<f64> = dets
                .iter()
                .map(|d| {
                    let resid = (d.theta_deg - tr.kf.predicted()).abs();
                    let nis = tr.kf.gate_distance2(d.theta_deg, self.cfg.measurement_var);
                    if resid <= self.cfg.gate_deg && nis <= self.cfg.gate_nis {
                        nis
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            self.costs.push(row);
        }
        let miss = vec![self.cfg.gate_nis; self.live.len()];
        let assignment = solve_assignment(&self.costs, &miss);

        // The column's strongest detection — the reference the dominance
        // veto accumulates against.
        let col_max_db = dets
            .iter()
            .map(|d| d.power_db)
            .fold(f64::NEG_INFINITY, f64::max);

        // 4. Update matched tracks, age unmatched ones.
        let mut det_used = vec![false; dets.len()];
        let mut retired: Vec<usize> = Vec::new();
        for (i, tr) in self.live.iter_mut().enumerate() {
            match assignment.pairing[i] {
                Some(j) => {
                    det_used[j] = true;
                    let z = dets[j].theta_deg;
                    tr.kf.update(z, self.cfg.measurement_var);
                    tr.hits += 1;
                    tr.misses = 0;
                    tr.last_observed_window = w;
                    let gap = col_max_db - dets[j].power_db;
                    tr.recent_gaps_db[tr.observed_windows % DOMINANCE_GAP_WINDOW] = gap;
                    tr.observed_windows += 1;
                    if gap == 0.0 {
                        tr.led_windows += 1;
                    }
                    if tr.status == TrackStatus::Coasting {
                        tr.status = TrackStatus::Confirmed;
                    } else if tr.status == TrackStatus::Tentative
                        && tr.observed_windows >= self.cfg.confirm_hits
                    {
                        tr.status = TrackStatus::Confirmed;
                        tr.confirmed_window = Some(w);
                    }
                    // Announcement: confirmed and past the dominance
                    // veto. The entry event is back-dated to the birth
                    // window, so entry *timing* carries no confirmation
                    // or veto latency.
                    if !tr.announced && tr.meets_announcement(&self.cfg, w) {
                        tr.announced = true;
                        self.events.push(TrackEvent {
                            window: tr.born_window,
                            time_s: self.cfg.window_time_s(tr.born_window),
                            track_id: Some(tr.id),
                            kind: EventKind::Entry {
                                theta_deg: tr.kf.predicted(),
                            },
                        });
                    }
                    record_point(&mut self.events, tr, w, t, Some(z));
                }
                None => {
                    tr.misses += 1;
                    match tr.status {
                        TrackStatus::Tentative => {
                            if tr.misses > self.cfg.tentative_misses {
                                tr.status = TrackStatus::Dead;
                                retired.push(i);
                            } else {
                                record_point(&mut self.events, tr, w, t, None);
                            }
                        }
                        TrackStatus::Confirmed | TrackStatus::Coasting => {
                            tr.status = TrackStatus::Coasting;
                            if tr.misses > self.cfg.max_misses {
                                tr.status = TrackStatus::Dead;
                                let last = tr.point_at(tr.last_observed_window).copied().unwrap_or(
                                    TrackPoint {
                                        window: w,
                                        time_s: t,
                                        theta_deg: tr.kf.predicted(),
                                        theta_vel: tr.kf.velocity(),
                                        observed: None,
                                    },
                                );
                                if tr.announced {
                                    self.events.push(TrackEvent {
                                        window: tr.last_observed_window,
                                        time_s: last.time_s,
                                        track_id: Some(tr.id),
                                        kind: EventKind::Exit {
                                            theta_deg: last.theta_deg,
                                        },
                                    });
                                }
                                retired.push(i);
                            } else {
                                record_point(&mut self.events, tr, w, t, None);
                            }
                        }
                        TrackStatus::Dead => unreachable!("dead tracks are retired"),
                    }
                }
            }
        }
        // Retire in reverse so indices stay valid; keep only announced
        // tracks (the rest are flicker or vetoed ghosts).
        for &i in retired.iter().rev() {
            let tr = self.live.remove(i);
            if tr.announced {
                self.finished.push(tr);
            }
        }

        // 5. Merge converged tracks: when two live tracks' filtered
        // angles come within the merge gate, the less-established one
        // (fewer observed windows; elder id wins ties) is absorbed — a
        // coasting track drifting onto another's ridge must not count
        // the person twice. The absorbed track transfers its
        // announcement, so the count never dips from a merge.
        let mut absorbed: Vec<usize> = Vec::new();
        for i in 0..self.live.len() {
            for j in (i + 1)..self.live.len() {
                if absorbed.contains(&i) || absorbed.contains(&j) {
                    continue;
                }
                let (a, b) = (&self.live[i], &self.live[j]);
                if (a.kf.predicted() - b.kf.predicted()).abs() < self.cfg.merge_deg
                    && (a.kf.velocity() - b.kf.velocity()).abs() < self.cfg.merge_vel_deg_s
                {
                    // Birth order means id_i < id_j, so i wins ties.
                    let loser = if a.observed_windows >= b.observed_windows {
                        j
                    } else {
                        i
                    };
                    let winner = i + j - loser;
                    if self.live[loser].announced {
                        self.live[winner].announced = true;
                    }
                    absorbed.push(loser);
                }
            }
        }
        absorbed.sort_unstable();
        for &i in absorbed.iter().rev() {
            let tr = self.live.remove(i);
            if tr.announced {
                self.finished.push(tr);
            }
        }

        // 6. Spawn tentative tracks from unmatched detections.
        for (j, d) in dets.iter().enumerate() {
            if det_used[j] {
                continue;
            }
            let kf = Kalman2::from_observation(
                d.theta_deg,
                self.cfg.init_pos_var,
                self.cfg.init_vel_var,
            );
            let gap = col_max_db - d.power_db;
            let mut recent_gaps_db = [0.0; DOMINANCE_GAP_WINDOW];
            recent_gaps_db[0] = gap;
            let mut tr = Track {
                id: self.next_id,
                born_window: w,
                confirmed_window: None,
                last_observed_window: w,
                status: TrackStatus::Tentative,
                kf,
                hits: 1,
                misses: 0,
                observed_windows: 1,
                led_windows: usize::from(gap == 0.0),
                recent_gaps_db,
                announced: false,
                history: Vec::new(),
            };
            // A single hit confirms immediately when confirm_hits == 1.
            if self.cfg.confirm_hits == 1 {
                tr.status = TrackStatus::Confirmed;
                tr.confirmed_window = Some(w);
                if tr.is_dominant(&self.cfg) {
                    tr.announced = true;
                    self.events.push(TrackEvent {
                        window: w,
                        time_s: t,
                        track_id: Some(tr.id),
                        kind: EventKind::Entry {
                            theta_deg: d.theta_deg,
                        },
                    });
                }
            }
            tr.history.push(TrackPoint {
                window: w,
                time_s: t,
                theta_deg: tr.kf.predicted(),
                theta_vel: tr.kf.velocity(),
                observed: Some(d.theta_deg),
            });
            self.next_id += 1;
            self.live.push(tr);
        }

        // 7. Scene-level bookkeeping: announced tracks only (coasting
        // included — a fade is not an exit).
        let count = self.live.iter().filter(|tr| tr.announced).count();
        if count != self.last_count {
            self.events.push(TrackEvent {
                window: w,
                time_s: t,
                track_id: None,
                kind: EventKind::CountChange { count },
            });
            self.last_count = count;
        }
        self.confirmed_counts.push(count);
        self.times_s.push(t);
        self.window += 1;
    }

    /// Finalizes the run. Tracks still live keep their final status;
    /// tracks that were never announced — tentative flicker, vetoed
    /// ghosts — are dropped. No exit events are emitted for tracks alive
    /// at the end of the trace — the trace ended, the people didn't
    /// leave.
    pub fn finish(mut self) -> TrackingReport {
        let mut tracks = std::mem::take(&mut self.finished);
        for tr in self.live {
            if tr.announced {
                tracks.push(tr);
            }
        }
        tracks.sort_by_key(|t| t.id);
        TrackingReport {
            tracks,
            events: self.events,
            confirmed_counts: self.confirmed_counts,
            times_s: self.times_s,
            cfg: self.cfg,
        }
    }
}

/// Appends one window to `tr`'s history, emitting a [`EventKind::Crossing`]
/// event first if the filtered angle changed sign since the last point.
/// Shared by the matched and coasting paths of
/// [`MultiTargetTracker::push_column`] so observed and coasted crossings
/// can never drift apart. The sign check runs against the *history* so a
/// crossing completed while coasting (the DC guard blanks detections
/// near θ = 0) is caught on reacquisition.
fn record_point(
    events: &mut Vec<TrackEvent>,
    tr: &mut Track,
    w: usize,
    t: f64,
    observed: Option<f64>,
) {
    let new_theta = tr.kf.predicted();
    let prev_theta = tr.history.last().map_or(new_theta, |p| p.theta_deg);
    if tr.announced && prev_theta * new_theta < 0.0 {
        events.push(TrackEvent {
            window: w,
            time_s: t,
            track_id: Some(tr.id),
            kind: EventKind::Crossing {
                direction: if new_theta > 0.0 { 1 } else { -1 },
            },
        });
    }
    tr.history.push(TrackPoint {
        window: w,
        time_s: t,
        theta_deg: new_theta,
        theta_vel: tr.kf.velocity(),
        observed,
    });
}

/// Runs the tracker over a complete spectrogram (the offline shape).
pub fn track_spectrogram(spec: &AngleSpectrogram, cfg: TrackerConfig) -> TrackingReport {
    let mut tracker = MultiTargetTracker::new(cfg);
    for row in &spec.power {
        tracker.push_column(&spec.thetas_deg, row);
    }
    tracker.finish()
}
