//! The track lifecycle, written once for every tracker in the workspace.
//!
//! Each analysis window, [`Lifecycle::step`] predicts every live track's
//! filter; associates the window's measurements to tracks by the
//! globally optimal assignment over gated costs
//! ([`wivi_num::solve_assignment`]; greedy nearest-neighbour association
//! swaps identities exactly when two targets cross), with a miss priced
//! at the gate; updates matched tracks and ages the rest through
//! `Tentative → Confirmed → Coasting ⇄ Confirmed … → Dead`; retires the
//! dead; spawns tentative tracks from unmatched measurements; and counts
//! the announced tracks. A [`TrackPolicy`] supplies the measurement model
//! and, through hooks, what a tracker adds on top: the angle tracker
//! ([`crate::tracker`]) and `wivi_image::track2d` are two such policies.
//! Everything is a pure deterministic function of the measurements.

use std::fmt::Debug;

use wivi_num::solve_assignment;

/// Lifecycle state of a track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrackStatus {
    /// Newborn; dies once it misses more than its policy's tentative
    /// allowance, and is never reported.
    Tentative,
    /// Seen `confirm_hits` windows — a person.
    Confirmed,
    /// Confirmed but currently unobserved (a fade, a DC-guard crossing);
    /// propagates on prediction alone.
    Coasting,
    /// Exhausted the miss budget.
    Dead,
}

/// One target's track: the lifecycle record every tracker shares, around
/// its policy's filter `F`, history point `P` and per-track state `X`.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackRecord<F, P, X> {
    /// Stable identity, assigned at birth in spawn order.
    pub id: u32,
    /// Window of the first measurement.
    pub born_window: usize,
    /// Window at which the track reached confirmation, if it ever did.
    pub confirmed_window: Option<usize>,
    /// Window of the most recent measurement.
    pub last_observed_window: usize,
    pub status: TrackStatus,
    /// The filter state as of the last processed window.
    pub filter: F,
    /// Consecutive windows without a matched measurement.
    pub misses: usize,
    /// Total windows with a matched measurement.
    pub observed_windows: usize,
    /// Whether the track has entered the count and the report. Monotone
    /// (announce once, never retract), so counting stays
    /// streaming-consistent.
    pub announced: bool,
    /// The policy's own per-track state.
    pub extra: X,
    /// One point per window from birth to death (or to the end of the
    /// stream): `history[k]` is window `born_window + k`.
    pub history: Vec<P>,
}

impl<F, P, X> TrackRecord<F, P, X> {
    /// The track's point at absolute window `w`, if the track spans it.
    pub fn point_at(&self, w: usize) -> Option<&P> {
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
}

/// The track record of policy `P`.
pub type TrackOf<P> =
    TrackRecord<<P as TrackPolicy>::Filter, <P as TrackPolicy>::Point, <P as TrackPolicy>::Extra>;

/// What a tracker supplies to the shared lifecycle. The defaults are the
/// plain lifecycle: no tentative allowance, and a track is announced
/// once it is confirmed.
pub trait TrackPolicy {
    /// One measurement (a ridge detection, an image fix).
    type Measurement;
    /// The per-track filter.
    type Filter: Clone + Debug + PartialEq;
    /// One window of a track's history.
    type Point: Clone + Debug + PartialEq;
    /// The policy's own per-track state.
    type Extra: Clone + Debug + PartialEq + Default;

    /// Matched windows before a tentative track is confirmed.
    fn confirm_hits(&self) -> usize;
    /// Consecutive misses a tentative track survives (none by default).
    fn tentative_misses(&self) -> usize {
        0
    }
    /// Consecutive misses a confirmed track survives (coasting).
    fn max_misses(&self) -> usize;
    /// Centre time of analysis window `k`, seconds.
    fn window_time_s(&self, k: usize) -> f64;

    /// A newborn track's filter, from its first measurement.
    fn init(&self, z: &Self::Measurement) -> Self::Filter;
    /// Time-update over one window.
    fn predict(&self, f: &mut Self::Filter);
    /// The association cost of `z`: [`f64::INFINITY`] outside the gate.
    fn cost(&self, f: &Self::Filter, z: &Self::Measurement) -> f64;
    /// The cost of a miss — the statistical gate.
    fn miss_cost(&self) -> f64;
    /// Measurement update.
    fn update(&self, f: &mut Self::Filter, z: &Self::Measurement);
    /// `tr`'s history point for window `w` (centre time `t`), with the
    /// matched measurement if there was one. `tr.history` still ends at
    /// the previous window.
    fn point(
        &mut self,
        tr: &TrackOf<Self>,
        w: usize,
        t: f64,
        z: Option<&Self::Measurement>,
    ) -> Self::Point;

    /// Called once `tr` has taken measurement `z` — matched, or `born`
    /// from it — with its lifecycle fields already updated
    /// (`tr.last_observed_window` is the current window).
    fn observed(&mut self, tr: &mut TrackOf<Self>, _z: &Self::Measurement, _born: bool) {
        tr.announced = tr.confirmed_window.is_some();
    }

    /// Called when `tr` dies.
    fn died(&mut self, _tr: &TrackOf<Self>) {}

    /// Called after aging, before retirement. `gone[i]` marks the tracks
    /// leaving `live` this window (so far, the dead ones); a policy that
    /// merges tracks marks the ones it absorbs.
    fn merge(&mut self, _live: &mut [TrackOf<Self>], _gone: &mut [bool]) {}
}

/// What a tracking run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackingSummary<T> {
    /// Every announced track, in id (birth) order. Tracks still live at
    /// the end keep their final status.
    pub tracks: Vec<T>,
    /// Per-window count of announced tracks (coasting included — a fade
    /// is not an exit).
    pub confirmed_counts: Vec<usize>,
    /// Window centre times, seconds.
    pub times_s: Vec<f64>,
}

/// The streaming lifecycle core: feed it each window's measurements with
/// [`Self::step`], drain it with [`Self::finish`].
#[derive(Clone, Debug)]
pub struct Lifecycle<P: TrackPolicy> {
    /// The policy layered on this core.
    pub policy: P,
    /// Live tracks in birth order (determinism depends on stable order).
    live: Vec<TrackOf<P>>,
    /// Retired tracks that were announced.
    finished: Vec<TrackOf<P>>,
    next_id: u32,
    confirmed_counts: Vec<usize>,
    times_s: Vec<f64>,
    /// Scratch: live-track × measurement gated costs, row-major.
    costs: Vec<f64>,
    /// Scratch: live tracks leaving this window.
    gone: Vec<bool>,
}

impl<P: TrackPolicy> Lifecycle<P> {
    /// A core with no tracks and no windows.
    pub fn new(policy: P) -> Self {
        Self {
            policy,
            live: Vec::new(),
            finished: Vec::new(),
            next_id: 0,
            confirmed_counts: Vec::new(),
            times_s: Vec::new(),
            costs: Vec::new(),
            gone: Vec::new(),
        }
    }

    /// Windows processed so far.
    pub fn n_windows(&self) -> usize {
        self.confirmed_counts.len()
    }

    /// Live tracks (any status), in birth order.
    pub fn live_tracks(&self) -> &[TrackOf<P>] {
        &self.live
    }

    /// Current announced-track count (coasting included).
    pub fn confirmed_count(&self) -> usize {
        self.confirmed_counts.last().copied().unwrap_or(0)
    }

    /// Processes one window's measurements.
    pub fn step(&mut self, meas: &[P::Measurement]) {
        let p = &mut self.policy;
        let w = self.confirmed_counts.len();
        let t = p.window_time_s(w);

        // 1. Predict.
        if w > 0 {
            for tr in &mut self.live {
                p.predict(&mut tr.filter);
            }
        }

        // 2. Associate.
        self.costs.clear();
        for tr in &self.live {
            self.costs
                .extend(meas.iter().map(|z| p.cost(&tr.filter, z)));
        }
        let assignment = solve_assignment(&self.costs, self.live.len(), p.miss_cost());

        // 3. Update matched tracks, age unmatched ones.
        for (tr, &pairing) in self.live.iter_mut().zip(&assignment.pairing) {
            if let Some(j) = pairing {
                p.update(&mut tr.filter, &meas[j]);
                observe(p, tr, &meas[j], w, t, false);
                continue;
            }
            tr.misses += 1;
            let budget = if tr.status == TrackStatus::Tentative {
                p.tentative_misses()
            } else {
                tr.status = TrackStatus::Coasting;
                p.max_misses()
            };
            if tr.misses > budget {
                tr.status = TrackStatus::Dead;
                p.died(tr);
            } else {
                let point = p.point(tr, w, t, None);
                tr.history.push(point);
            }
        }

        // 4. Retire the dead and whatever the policy merged away, keeping
        //    announced tracks for the report (the rest are flicker or
        //    vetoed ghosts).
        self.gone.clear();
        self.gone
            .extend(self.live.iter().map(|tr| tr.status == TrackStatus::Dead));
        p.merge(&mut self.live, &mut self.gone);
        let mut gone = self.gone.iter();
        let leaving = self.live.extract_if(.., |_| gone.next() == Some(&true));
        self.finished.extend(leaving.filter(|tr| tr.announced));

        // 5. Spawn a tentative track from each unmatched measurement: its
        //    first one, which confirms it at once if `confirm_hits == 1`.
        let unmatched = (0..meas.len()).filter(|&j| !assignment.pairing.contains(&Some(j)));
        for z in unmatched.map(|j| &meas[j]) {
            let mut tr = TrackRecord {
                id: self.next_id,
                born_window: w,
                confirmed_window: None,
                last_observed_window: w,
                status: TrackStatus::Tentative,
                filter: p.init(z),
                misses: 0,
                observed_windows: 0,
                announced: false,
                extra: P::Extra::default(),
                history: Vec::new(),
            };
            observe(p, &mut tr, z, w, t, true);
            self.next_id += 1;
            self.live.push(tr);
        }

        // 6. Count (coasting included — a fade is not an exit).
        let count = self.live.iter().filter(|tr| tr.announced).count();
        self.confirmed_counts.push(count);
        self.times_s.push(t);
    }

    /// Finalizes the run: announced tracks only, in id order, live ones
    /// keeping their final status. Hands back the policy too. Every
    /// vector is trimmed to its length, because callers keep finished
    /// summaries and growth by doubling can leave half of one unused.
    pub fn finish(self) -> (P, TrackingSummary<TrackOf<P>>) {
        let mut tracks = self.finished;
        tracks.extend(self.live.into_iter().filter(|tr| tr.announced));
        tracks.sort_by_key(|t| t.id);
        for tr in &mut tracks {
            tr.history.shrink_to_fit();
        }
        tracks.shrink_to_fit();
        let mut summary = TrackingSummary {
            tracks,
            confirmed_counts: self.confirmed_counts,
            times_s: self.times_s,
        };
        summary.confirmed_counts.shrink_to_fit();
        summary.times_s.shrink_to_fit();
        (self.policy, summary)
    }
}

/// Books measurement `z` into `tr` at window `w` (centre time `t`): it
/// leaves coasting, or confirms once it holds `confirm_hits` of them;
/// then the policy sees it, and the window joins its history.
fn observe<P: TrackPolicy>(
    p: &mut P,
    tr: &mut TrackOf<P>,
    z: &P::Measurement,
    w: usize,
    t: f64,
    born: bool,
) {
    tr.misses = 0;
    tr.last_observed_window = w;
    tr.observed_windows += 1;
    if tr.status == TrackStatus::Coasting {
        tr.status = TrackStatus::Confirmed;
    } else if tr.status == TrackStatus::Tentative && tr.observed_windows >= p.confirm_hits() {
        tr.status = TrackStatus::Confirmed;
        tr.confirmed_window = Some(w);
    }
    p.observed(tr, z, born);
    let point = p.point(tr, w, t, Some(z));
    tr.history.push(point);
}
