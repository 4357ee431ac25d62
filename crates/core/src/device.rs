//! The end-to-end Wi-Vi device (paper Ch. 3).
//!
//! [`WiViDevice`] ties the stages together in the order the real device
//! runs them: null the static environment (Algorithm 1), then observe the
//! residual channel at the channel sampling rate, and hand the samples to
//! the mode-specific read-out — MUSIC tracking / counting (mode 1, §3.2)
//! or gesture decoding (mode 2).
//!
//! Every read-out is a [`Session`] (see [`crate::session`]), and every
//! device method runs its session through one batch loop,
//! [`WiViDevice::run_session`]: observations arrive from the front-end
//! in `batch_len`-sample batches and the session windows them through the
//! per-window engine it owns. The `*_streaming` methods pick the batch
//! length; the offline one-shot methods ([`WiViDevice::track`],
//! [`WiViDevice::decode_gestures`], …) are the same loop with a single
//! batch. A serving shard runs the same session types.

use wivi_num::Complex64;
use wivi_rf::SceneHandle;
use wivi_sdr::{MimoFrontend, RadioConfig};

use crate::gesture::{GestureDecode, GestureDecoderConfig};
use crate::music::MusicConfig;
use crate::nulling::{run_nulling, NullingConfig, NullingReport};
use crate::session::{CountSession, GestureSession, Session, TrackSession};
use crate::spectrogram::AngleSpectrogram;

/// Batch length that makes [`WiViDevice::run_session`] observe the whole
/// recording in one batch — the offline one-shot shape.
pub const ONE_BATCH: usize = usize::MAX;

/// Default number of observations per batch for the streaming entry
/// points: 16 channel samples ≈ 51 ms at the paper's 312.5 Hz rate — the
/// frame-chunked cadence a UHD receive stream delivers.
pub const DEFAULT_BATCH_LEN: usize = 16;

/// Complete device configuration.
#[derive(Clone, Copy, Debug)]
pub struct WiViConfig {
    pub radio: RadioConfig,
    pub nulling: NullingConfig,
    pub music: MusicConfig,
    pub gesture: GestureDecoderConfig,
}

impl WiViConfig {
    /// The paper's parameters: 64-subcarrier 5 MHz OFDM, w = 100 over
    /// 0.32 s, w′ = 50, 12 dB boost, 3 dB gesture threshold.
    pub fn paper_default() -> Self {
        Self {
            radio: RadioConfig::wivi_default(),
            nulling: NullingConfig::default(),
            music: MusicConfig::wivi_default(),
            gesture: GestureDecoderConfig::default(),
        }
    }

    /// Reduced parameters for fast tests (16 subcarriers, w = 40, w′ = 20).
    pub fn fast_test() -> Self {
        Self {
            radio: RadioConfig::fast_test(),
            nulling: NullingConfig::default(),
            music: MusicConfig::fast_test(),
            gesture: GestureDecoderConfig::default(),
        }
    }

    /// Validates cross-stage consistency.
    ///
    /// # Panics
    /// Panics if the ISAR sampling period does not match the radio's
    /// channel rate.
    pub fn validate(&self) {
        self.music.validate();
        let radio_period = 1.0 / self.radio.channel_rate_hz;
        assert!(
            (self.music.isar.sample_period_s - radio_period).abs() < 1e-9,
            "ISAR sample period ({}) must match the radio channel rate period ({})",
            self.music.isar.sample_period_s,
            radio_period
        );
    }
}

/// The Wi-Vi device: a nulling MIMO radio plus the tracking/gesture DSP.
pub struct WiViDevice {
    fe: MimoFrontend,
    cfg: WiViConfig,
    report: Option<NullingReport>,
}

impl WiViDevice {
    /// Builds a device over `scene` with deterministic noise from `seed`.
    /// `scene` may be an owned [`Scene`](wivi_rf::Scene) or a shared
    /// [`SceneHandle`] from a [`SceneStore`](wivi_rf::SceneStore) —
    /// devices never mutate their scene during recording, so sharing is
    /// free and bitwise-invisible.
    ///
    /// The MUSIC noise floor is derived from the radio configuration
    /// (thermal noise per subcarrier, combined over the subcarriers) —
    /// the simulated analogue of the one-off terminated-input noise
    /// calibration a real receiver performs.
    pub fn new(scene: impl Into<SceneHandle>, mut cfg: WiViConfig, seed: u64) -> Self {
        cfg.validate();
        if cfg.music.noise_floor_power.is_none() {
            let k = cfg.radio.ofdm.n_subcarriers as f64;
            cfg.music.noise_floor_power = Some(cfg.radio.noise_sigma.powi(2) / k);
        }
        Self {
            fe: MimoFrontend::new(scene, cfg.radio, seed),
            cfg,
            report: None,
        }
    }

    /// Runs the nulling pipeline (Algorithm 1). Must be called before any
    /// recording; may be re-run to re-null (e.g. after large scene
    /// changes).
    pub fn calibrate(&mut self) -> &NullingReport {
        let report = run_nulling(&mut self.fe, &self.cfg.nulling);
        self.report = Some(report);
        self.report.as_ref().unwrap()
    }

    /// The most recent nulling report.
    pub fn nulling_report(&self) -> Option<&NullingReport> {
        self.report.as_ref()
    }

    /// Number of channel samples a recording of `duration_s` seconds
    /// produces — the one conversion every drive uses (the device's own
    /// batch loop and the serving engine), so no two paths can round
    /// differently.
    pub fn trace_len(&self, duration_s: f64) -> usize {
        (duration_s * self.cfg.radio.channel_rate_hz).round() as usize
    }

    /// Observes `n` residual-channel samples (subcarrier-combined) into
    /// `out` (cleared first) — the *resumable* drive: [`Self::run_session`]
    /// calls it once per batch, and a serving engine interleaves many
    /// sessions' batches on one worker. Repeated calls produce exactly
    /// the sample sequence one [`Self::record_trace`] of the same total
    /// would — the front-end advances identically — so output never
    /// depends on the batch split.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated.
    pub fn observe_batch_into(&mut self, n: usize, out: &mut Vec<Complex64>) {
        assert!(
            self.report.is_some(),
            "call calibrate() before recording traces"
        );
        out.clear();
        self.fe.record_trace_into(n, out);
    }

    /// Records `duration_s` seconds of the nulled residual channel
    /// (subcarrier-combined), at the radio's channel rate.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated.
    pub fn record_trace(&mut self, duration_s: f64) -> Vec<Complex64> {
        let mut trace = Vec::new();
        self.observe_batch_into(self.trace_len(duration_s), &mut trace);
        trace
    }

    /// Runs `session` over `duration_s` seconds of observations delivered
    /// in `batch_len`-sample batches ([`ONE_BATCH`] for the offline
    /// shape) and drains it into its payload — the one batch loop behind
    /// every device read-out, including the `wivi-track` and
    /// `wivi-image` extension traits. A served session runs the same
    /// session type, so the output equals a served session's bit for
    /// bit.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or `batch_len == 0`.
    pub fn run_session<S: Session>(
        &mut self,
        mut session: S,
        duration_s: f64,
        batch_len: usize,
    ) -> S::Output {
        assert!(batch_len > 0, "batch length must be positive");
        assert!(
            self.report.is_some(),
            "call calibrate() before recording traces"
        );
        let mut samples = Vec::new();
        let mut remaining = self.trace_len(duration_s);
        while remaining > 0 {
            let n = remaining.min(batch_len);
            self.observe_batch_into(n, &mut samples);
            session.step(&samples);
            remaining -= n;
        }
        session.finish()
    }

    /// Mode 1 — imaging/tracking: observes `duration_s` seconds and runs
    /// smoothed MUSIC, producing the paper's `A′[θ, n]`. Offline one-shot
    /// shape of [`Self::track_streaming`].
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or the duration is
    /// shorter than one analysis window.
    pub fn track(&mut self, duration_s: f64) -> AngleSpectrogram {
        self.track_streaming(duration_s, ONE_BATCH)
    }

    /// Mode 1, streaming shape: a [`TrackSession`] emits spectrogram
    /// columns as windows complete, observing `batch_len` samples at a
    /// time.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated, `batch_len == 0`, or
    /// the duration is shorter than one analysis window.
    pub fn track_streaming(&mut self, duration_s: f64, batch_len: usize) -> AngleSpectrogram {
        let session = TrackSession::new(&self.cfg);
        self.run_session(session, duration_s, batch_len)
            .expect("trace shorter than the analysis window")
    }

    /// Mode 1 — counting support: the trial's mean spatial variance
    /// (classify it with a trained
    /// [`VarianceClassifier`](crate::counting::VarianceClassifier)).
    /// Offline one-shot shape of
    /// [`Self::measure_spatial_variance_streaming`].
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or the duration is
    /// shorter than one analysis window.
    pub fn measure_spatial_variance(&mut self, duration_s: f64) -> f64 {
        self.measure_spatial_variance_streaming(duration_s, ONE_BATCH)
    }

    /// Mode 1 counting, streaming shape: a [`CountSession`] folds the
    /// spatial-variance statistic column by column — no trace and no
    /// spectrogram is ever materialized.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated, `batch_len == 0`, or
    /// the duration is shorter than one analysis window.
    pub fn measure_spatial_variance_streaming(&mut self, duration_s: f64, batch_len: usize) -> f64 {
        let session = CountSession::new(&self.cfg);
        self.run_session(session, duration_s, batch_len)
            .expect("no spectrogram columns accumulated")
    }

    /// Mode 2 — gesture interface: beamforms the residual (Eq. 5.1 — the
    /// amplitude-bearing spectrum the matched filter needs; see
    /// [`crate::gesture::signed_amplitude_track`]) and decodes the
    /// gesture message. Offline one-shot shape of
    /// [`Self::decode_gestures_streaming`].
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or the duration
    /// yields fewer than [`MIN_DECODE_WINDOWS`](crate::gesture::MIN_DECODE_WINDOWS)
    /// windows.
    pub fn decode_gestures(&mut self, duration_s: f64) -> GestureDecode {
        self.decode_gestures_streaming(duration_s, ONE_BATCH)
    }

    /// Mode 2, streaming shape: a [`GestureSession`] beamforms batches as
    /// they arrive; the decode runs once the message window closes.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated, `batch_len == 0`, or
    /// the duration yields fewer than
    /// [`MIN_DECODE_WINDOWS`](crate::gesture::MIN_DECODE_WINDOWS) windows.
    pub fn decode_gestures_streaming(
        &mut self,
        duration_s: f64,
        batch_len: usize,
    ) -> GestureDecode {
        let session = GestureSession::new(&self.cfg);
        self.run_session(session, duration_s, batch_len)
            .expect("spectrogram too short to decode")
    }

    /// Current scene time, seconds.
    pub fn now(&self) -> f64 {
        self.fe.now()
    }

    /// The device configuration.
    pub fn config(&self) -> &WiViConfig {
        &self.cfg
    }

    /// Access to the underlying front-end (diagnostics, gain inspection).
    pub fn frontend(&self) -> &MimoFrontend {
        &self.fe
    }

    /// Mutable front-end access (e.g. to mutate the scene between stages).
    pub fn frontend_mut(&mut self) -> &mut MimoFrontend {
        &mut self.fe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_rf::{
        GestureScript, GestureStyle, Material, Mover, Point, Scene, Vec2, WaypointWalker,
    };

    fn static_scene() -> Scene {
        Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small())
    }

    #[test]
    fn calibrate_then_track_static_scene_shows_only_dc() {
        let mut dev = WiViDevice::new(static_scene(), WiViConfig::fast_test(), 1);
        dev.calibrate();
        let spec = dev.track(1.5);
        // Dominant energy at θ ≈ 0 in (almost) all windows.
        let mut dc_wins = 0;
        for t in 0..spec.n_times() {
            let all = spec.dominant_angle(t, 0.0).unwrap();
            if all.abs() <= 10.0 {
                dc_wins += 1;
            }
        }
        assert!(
            dc_wins * 10 >= spec.n_times() * 8,
            "static scene not DC-dominated: {dc_wins}/{}",
            spec.n_times()
        );
    }

    #[test]
    fn walker_produces_off_dc_energy() {
        let scene = static_scene().with_mover(Mover::human(WaypointWalker::new(
            vec![
                Point::new(-1.5, 4.0),
                Point::new(0.0, 1.2),
                Point::new(1.5, 4.0),
            ],
            1.0,
        )));
        let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), 2);
        dev.calibrate();
        let v_moving = dev.measure_spatial_variance(2.5);

        let mut dev2 = WiViDevice::new(static_scene(), WiViConfig::fast_test(), 2);
        dev2.calibrate();
        let v_static = dev2.measure_spatial_variance(2.5);

        assert!(
            v_moving > 2.0 * v_static,
            "moving variance {v_moving:.1} not above static {v_static:.1}"
        );
    }

    #[test]
    fn gesture_bit_decodes_through_wall() {
        let style = GestureStyle::default();
        // Lead-in of 3 s: the decoder's noise reference (default 1.5 s)
        // must see a gesture-free interval.
        let script = GestureScript::for_bits(
            Point::new(0.0, 3.0),
            Vec2::new(0.0, -1.0), // facing the device
            style,
            3.0,
            &[false],
        );
        let total = 3.0 + script.duration() + 1.0;
        let scene = static_scene().with_mover(Mover::human(script));
        let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), 3);
        dev.calibrate();
        let d = dev.decode_gestures(total);
        assert_eq!(
            d.bits.first().copied().flatten(),
            Some(false),
            "decoded {:?} (gestures: {:?})",
            d.bits,
            d.gestures
        );
    }

    #[test]
    fn record_before_calibrate_panics() {
        let mut dev = WiViDevice::new(static_scene(), WiViConfig::fast_test(), 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = dev.record_trace(0.5);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn config_validation_catches_rate_mismatch() {
        let mut cfg = WiViConfig::fast_test();
        cfg.music.isar.sample_period_s *= 2.0;
        let r = std::panic::catch_unwind(|| cfg.validate());
        assert!(r.is_err());
    }

    #[test]
    fn batched_observation_matches_one_shot_recording() {
        // The serving drive's contract: repeated observe_batch_into calls
        // reproduce record_trace bit for bit, whatever the batch split.
        let mut dev = WiViDevice::new(static_scene(), WiViConfig::fast_test(), 55);
        dev.calibrate();
        let expect = dev.record_trace(0.5);
        let n = dev.trace_len(0.5);
        assert_eq!(expect.len(), n);

        let mut dev2 = WiViDevice::new(static_scene(), WiViConfig::fast_test(), 55);
        dev2.calibrate();
        let mut got: Vec<Complex64> = Vec::new();
        let mut batch = Vec::new();
        let mut remaining = n;
        for len in [7usize, 1, 16, usize::MAX] {
            let take = len.min(remaining);
            dev2.observe_batch_into(take, &mut batch);
            assert_eq!(batch.len(), take);
            got.extend_from_slice(&batch);
            remaining -= take;
        }
        assert_eq!(got, expect);
        assert_eq!(dev.now(), dev2.now());
    }

    #[test]
    fn device_is_deterministic_per_seed() {
        let run = || {
            let mut dev = WiViDevice::new(static_scene(), WiViConfig::fast_test(), 77);
            dev.calibrate();
            dev.record_trace(0.5)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }
}
