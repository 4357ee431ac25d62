//! The staged MIMO front-end (2 TX, 1 RX) over a simulated scene.
//!
//! This is the seam between the Wi-Vi algorithms and the "hardware": the
//! nulling/tracking code in `wivi-core` drives exactly the operations the
//! real UHD implementation performs —
//!
//! 1. [`MimoFrontend::sound`] — transmit the known preamble on *one*
//!    antenna and estimate the per-subcarrier channel (Algorithm 1's
//!    channel-estimation steps);
//! 2. [`MimoFrontend::set_precoder`] — install the per-subcarrier weight
//!    `p = −ĥ₁/ĥ₂` on the second antenna;
//! 3. [`MimoFrontend::observe`] — transmit on both antennas concurrently
//!    and measure the residual channel `h_res = h₁ + p·h₂` (+ movers);
//! 4. TX power boost / RX gain boost, subject to the PA's linear range and
//!    the ADC's dynamic range.
//!
//! Scene time advances with every operation, so humans keep moving while
//! the radio works — which is precisely why iterative nulling observes a
//! drifting residual, and why the emulated ISAR array sees successive
//! spatial positions.

use wivi_num::fft::FftPlan;
use wivi_num::rng::{complex_gaussian, Rng64};
use wivi_num::Complex64;
use wivi_rf::channel::{continue_gain, Path};
use wivi_rf::{Scene, SceneHandle};

use crate::adc::{clip_tx, Adc, QuantizeOutcome};
use crate::ofdm::{demodulate_in_place, modulate_in_place, OfdmConfig};

/// Radio parameters for the simulated front-end.
#[derive(Clone, Copy, Debug)]
pub struct RadioConfig {
    /// OFDM PHY parameters.
    pub ofdm: OfdmConfig,
    /// The receive ADC.
    pub adc: Adc,
    /// Thermal noise sigma at the antenna, in channel-gain units per
    /// subcarrier (`CN(0, σ²)`).
    pub noise_sigma: f64,
    /// Fast (per-measurement, iid) phase jitter of each TX chain,
    /// radians.
    pub phase_noise_std: f64,
    /// Slow per-TX-chain LO phase drift: a Wiener process with this
    /// standard deviation per √second, independent per transmit chain.
    /// Three USRPs share an external clock, but each analog chain's PLL
    /// still wanders; because nulling balances one chain *against* the
    /// other, it is the **differential** drift that slowly rotates the
    /// static channel away from the installed null. This floors the
    /// operational nulling depth over a trace in the ~40 dB regime of
    /// Fig. 7-7 and leaves the residual DC line visible in every
    /// A′[θ, n] figure ("minuscule errors in channel estimates during
    /// the nulling phase would still be registered as a residual DC",
    /// §5.1 fn. 4).
    pub phase_drift_std: f64,
    /// Nominal transmit amplitude per antenna (1.0 = the sounding level).
    pub tx_amplitude: f64,
    /// PA linear range: time-domain samples above this amplitude clip
    /// (§7.5: USRPs are linear to ≈ 20 mW; the 12 dB boost of Algorithm 1
    /// is sized to stay inside this).
    pub tx_linear_limit: f64,
    /// Rate at which `observe()` samples the channel for ISAR traces, Hz.
    /// The paper's emulated array uses 100 samples per 0.32 s ⇒ 312.5 Hz.
    pub channel_rate_hz: f64,
    /// Time consumed by one sounding exchange, seconds ("each iteration
    /// estimates the channel over few milliseconds", §4.1).
    pub sounding_dwell_s: f64,
}

impl RadioConfig {
    /// The paper's configuration: 64-subcarrier 5 MHz OFDM, 14-bit ADC,
    /// 312.5 Hz channel sampling.
    pub fn wivi_default() -> Self {
        Self {
            ofdm: OfdmConfig::wivi_default(),
            adc: Adc::usrp_n210(),
            noise_sigma: 6.0e-5,
            phase_noise_std: 0.001,
            phase_drift_std: 4.5e-3,
            tx_amplitude: 1.0,
            tx_linear_limit: 8.0,
            channel_rate_hz: 312.5,
            sounding_dwell_s: 2e-3,
        }
    }

    /// Reduced configuration (16 subcarriers) for fast unit tests.
    pub fn fast_test() -> Self {
        Self {
            ofdm: OfdmConfig::small(),
            ..Self::wivi_default()
        }
    }
}

/// One measurement: per-subcarrier channel estimates plus converter
/// telemetry.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Per-subcarrier channel estimate `ĥ[k]`, normalized to channel-gain
    /// units (independent of the currently configured TX power / RX gain).
    pub h: Vec<Complex64>,
    /// ADC outcome for the underlying time-domain block.
    pub outcome: QuantizeOutcome,
    /// Scene time at which the measurement was taken, seconds.
    pub time: f64,
}

impl Observation {
    /// Combines subcarriers into a single complex channel sample by plain
    /// averaging (§7.1: "the channel measurements across the different
    /// subcarriers are combined to improve the SNR"). Averaging is ~18 dB
    /// of noise gain at 64 subcarriers at the cost of a small coherence
    /// loss from the delay spread across the 5 MHz band.
    pub fn combined(&self) -> Complex64 {
        combine(&self.h)
    }

    /// `true` if the ADC clipped during this measurement.
    pub fn saturated(&self) -> bool {
        self.outcome.saturated()
    }

    /// Mean per-subcarrier channel power, `mean |ĥ[k]|²`.
    pub fn mean_power(&self) -> f64 {
        self.h.iter().map(|z| z.norm_sqr()).sum::<f64>() / self.h.len() as f64
    }
}

/// The subcarrier average behind [`Observation::combined`]: one left
/// fold and one division, shared with the allocation-free
/// [`MimoFrontend::record_trace_into`] so both give the same bits.
fn combine(h: &[Complex64]) -> Complex64 {
    h.iter().copied().sum::<Complex64>() / h.len() as f64
}

/// Which antennas drive one transmission block (see
/// [`MimoFrontend::transmit`]).
#[derive(Clone, Copy, Debug)]
enum TxMode {
    /// Preamble on one antenna only (channel sounding).
    Sound(usize),
    /// Both antennas concurrently; antenna 2 applies the precoder.
    Observe,
}

/// The simulated 3-antenna MIMO radio bound to a scene.
///
/// The scene is held through a [`SceneHandle`]: radios observing the
/// same room (fleet-style serving) share one immutable scene rather
/// than each owning a copy, and [`Self::scene_mut`] is copy-on-write —
/// mutating a shared scene clones a private copy first, so no radio can
/// perturb another's world.
///
/// The static paths (direct, flash, clutter) do not change while the
/// scene does not, so the radio sums them once per TX antenna and
/// subcarrier, on its first transmission, and every transmission after
/// that traces only the movers and continues the sum over them
/// ([`continue_gain`]): the same left fold in the same order, so every
/// channel estimate keeps its bits. [`Self::scene_mut`] drops the sums.
pub struct MimoFrontend {
    scene: SceneHandle,
    cfg: RadioConfig,
    rng: Rng64,
    /// Linear RX amplitude gain ahead of the ADC.
    rx_gain: f64,
    /// Linear TX amplitude multiplier on top of `cfg.tx_amplitude`.
    tx_boost: f64,
    /// Per-subcarrier precoding weight for TX antenna 2 (`None` ⇒ no
    /// concurrent transmission configured yet).
    precoder: Option<Vec<Complex64>>,
    now: f64,
    /// Accumulated per-TX-chain LO phase drift (Wiener processes), radians.
    phase_walk: [f64; 2],
    /// FFT plan for the OFDM symbol length (shared by TX and RX chains).
    plan: FftPlan,
    /// The sounding preamble, computed once.
    preamble: Vec<Complex64>,
    /// Scratch: one OFDM block, reused by the per-antenna PA round trip and
    /// the receiver chain; after [`Self::transmit`] it holds the
    /// per-subcarrier channel estimate.
    scratch_block: Vec<Complex64>,
    /// Scratch: the superposed received spectrum.
    scratch_rx: Vec<Complex64>,
    /// Static-path cache: entry `a·k + i` is the static paths' summed
    /// gain from TX antenna `a` at subcarrier `i` (`k` subcarriers).
    /// Empty until the first transmission and after [`Self::scene_mut`].
    static_gains: Vec<Complex64>,
    /// Scratch: the movers' traced propagation paths.
    scratch_paths: Vec<Path>,
}

impl MimoFrontend {
    /// Binds a radio to `scene` with deterministic noise from `seed`.
    /// Accepts an owned [`Scene`] or a shared [`SceneHandle`] — sharing
    /// changes nothing about the radio's behavior, only who owns the
    /// room description.
    pub fn new(scene: impl Into<SceneHandle>, cfg: RadioConfig, seed: u64) -> Self {
        assert!(cfg.noise_sigma >= 0.0);
        assert!(cfg.tx_amplitude > 0.0 && cfg.tx_linear_limit > 0.0);
        assert!(cfg.channel_rate_hz > 0.0 && cfg.sounding_dwell_s > 0.0);
        let k = cfg.ofdm.n_subcarriers;
        Self {
            scene: scene.into(),
            cfg,
            rng: Rng64::seed_from_u64(seed),
            rx_gain: 1.0,
            tx_boost: 1.0,
            precoder: None,
            now: 0.0,
            phase_walk: [0.0; 2],
            plan: FftPlan::new(k),
            preamble: cfg.ofdm.preamble(),
            scratch_block: vec![Complex64::ZERO; k],
            scratch_rx: vec![Complex64::ZERO; k],
            static_gains: Vec::new(),
            scratch_paths: Vec::new(),
        }
    }

    /// Current scene time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Radio configuration.
    pub fn cfg(&self) -> &RadioConfig {
        &self.cfg
    }

    /// The bound scene.
    pub fn scene(&self) -> &Scene {
        &self.scene
    }

    /// Mutable access to the scene (e.g. to add movers between stages).
    /// Copy-on-write: if other radios share this scene through the same
    /// [`SceneHandle`], a private copy is cloned first and only this
    /// radio sees the change. The caller may change static paths too, so
    /// the static-path cache is dropped and rebuilt (in place) at the
    /// next transmission.
    pub fn scene_mut(&mut self) -> &mut Scene {
        self.static_gains.clear();
        self.scene.make_mut()
    }

    /// The scene handle, cheap to clone into further radios or session
    /// specs observing the same room.
    pub fn scene_handle(&self) -> &SceneHandle {
        &self.scene
    }

    /// Current RX amplitude gain.
    pub fn rx_gain(&self) -> f64 {
        self.rx_gain
    }

    /// Sets the RX amplitude gain.
    ///
    /// # Panics
    /// Panics if `gain <= 0`.
    pub fn set_rx_gain(&mut self, gain: f64) {
        assert!(gain > 0.0, "RX gain must be positive");
        self.rx_gain = gain;
    }

    /// Multiplies the RX gain by `db` decibels (power).
    pub fn boost_rx_gain_db(&mut self, db: f64) {
        self.rx_gain *= 10f64.powf(db / 20.0);
    }

    /// Current TX boost in dB over nominal.
    pub fn tx_boost_db(&self) -> f64 {
        20.0 * self.tx_boost.log10()
    }

    /// Sets the TX boost (dB over nominal). Algorithm 1's power-boosting
    /// step uses +12 dB.
    pub fn set_tx_boost_db(&mut self, db: f64) {
        self.tx_boost = 10f64.powf(db / 20.0);
    }

    /// Installs the per-subcarrier precoder for TX antenna 2.
    ///
    /// # Panics
    /// Panics if the length does not match the subcarrier count.
    pub fn set_precoder(&mut self, p: Vec<Complex64>) {
        assert_eq!(
            p.len(),
            self.cfg.ofdm.n_subcarriers,
            "precoder must have one weight per subcarrier"
        );
        self.precoder = Some(p);
    }

    /// Currently installed precoder, if any.
    pub fn precoder(&self) -> Option<&[Complex64]> {
        self.precoder.as_deref()
    }

    /// Removes the precoder (single-antenna operation).
    pub fn clear_precoder(&mut self) {
        self.precoder = None;
    }

    /// Advances scene time without transmitting.
    pub fn advance(&mut self, dt: f64) {
        self.advance_clock(dt);
    }

    /// Advances time and walks each TX chain's LO phase accordingly.
    fn advance_clock(&mut self, dt: f64) {
        assert!(dt >= 0.0);
        self.now += dt;
        if self.cfg.phase_drift_std > 0.0 && dt > 0.0 {
            for w in &mut self.phase_walk {
                *w +=
                    wivi_num::rng::normal(&mut self.rng, 0.0, self.cfg.phase_drift_std * dt.sqrt());
            }
        }
    }

    /// Transmits the sounding preamble on TX antenna `tx_idx` *only* and
    /// returns the measured per-subcarrier channel. Advances time by the
    /// sounding dwell.
    pub fn sound(&mut self, tx_idx: usize) -> Observation {
        assert!(tx_idx < 2, "Wi-Vi has exactly two transmit antennas");
        let time = self.now;
        let outcome = self.transmit(TxMode::Sound(tx_idx));
        self.advance_clock(self.cfg.sounding_dwell_s);
        self.observation(outcome, time)
    }

    /// Transmits concurrently on both antennas — antenna 1 sends the
    /// preamble `x`, antenna 2 sends `p·x` — and measures the *residual*
    /// channel `h_res = h₁ + p·h₂`. Advances time by one channel-sample
    /// period.
    ///
    /// # Panics
    /// Panics if no precoder is installed.
    pub fn observe(&mut self) -> Observation {
        let time = self.now;
        let outcome = self.observe_in_place();
        self.observation(outcome, time)
    }

    /// [`Self::observe`] without the [`Observation`]: the channel
    /// estimate stays in `scratch_block`, so the per-sample loop of
    /// [`Self::record_trace_into`] allocates nothing.
    fn observe_in_place(&mut self) -> QuantizeOutcome {
        assert!(
            self.precoder.is_some(),
            "observe() requires a precoder; call set_precoder first"
        );
        let outcome = self.transmit(TxMode::Observe);
        self.advance_clock(1.0 / self.cfg.channel_rate_hz);
        outcome
    }

    /// Records a trace of `n` residual-channel samples at the channel
    /// rate, combining subcarriers per sample.
    pub fn record_trace(&mut self, n: usize) -> Vec<Complex64> {
        let mut out = Vec::with_capacity(n);
        self.record_trace_into(n, &mut out);
        out
    }

    /// Appends `n` subcarrier-combined residual-channel samples to `out`
    /// without allocating beyond the output's own growth — the batch
    /// streaming path calls this once per fixed-size batch into a reused
    /// buffer. Each sample is combined straight from the front end's
    /// per-subcarrier buffer, with the same bits as
    /// `observe().combined()`.
    pub fn record_trace_into(&mut self, n: usize, out: &mut Vec<Complex64>) {
        out.reserve(n);
        for _ in 0..n {
            self.observe_in_place();
            out.push(combine(&self.scratch_block));
        }
    }

    /// Streams `total` residual-channel observations in batches of
    /// `batch_len` — the front-end's real-time delivery shape. The stream
    /// borrows the front-end mutably, so the radio cannot be reconfigured
    /// mid-stream; scene time advances sample-by-sample exactly as in
    /// [`Self::observe`], and a fully drained stream leaves the front-end
    /// in the same state as `total` direct `observe()` calls.
    ///
    /// # Panics
    /// Panics if `batch_len == 0` or no precoder is installed.
    pub fn observe_stream(&mut self, total: usize, batch_len: usize) -> ObservationStream<'_> {
        assert!(batch_len > 0, "batch length must be positive");
        assert!(
            self.precoder.is_some(),
            "observe() requires a precoder; call set_precoder first"
        );
        ObservationStream {
            fe: self,
            remaining: total,
            batch_len,
        }
    }

    /// The last [`Self::transmit`]'s channel estimate as an
    /// [`Observation`] taken at scene time `time` (its one allocation).
    fn observation(&self, outcome: QuantizeOutcome, time: f64) -> Observation {
        Observation {
            h: self.scratch_block.clone(),
            outcome,
            time,
        }
    }

    /// Full TX→RX simulation of one OFDM block, leaving the normalized
    /// per-subcarrier channel estimate `ĥ[k]` in `scratch_block`.
    fn transmit(&mut self, mode: TxMode) -> QuantizeOutcome {
        let ofdm = self.cfg.ofdm;
        let k = ofdm.n_subcarriers;
        let tx_scale = self.cfg.tx_amplitude * self.tx_boost;
        if self.static_gains.is_empty() {
            self.static_gains.resize(2 * k, Complex64::ZERO);
            for (ant, gains) in self.static_gains.chunks_exact_mut(k).enumerate() {
                self.scene
                    .static_gains_into(ant, |i| ofdm.subcarrier_freq(i), gains);
            }
        }

        // Superpose the active antennas' contributions per subcarrier.
        self.scratch_rx.fill(Complex64::ZERO);
        for ant in 0..2 {
            match mode {
                TxMode::Sound(idx) if ant != idx => continue,
                _ => {}
            }
            // Per-chain LO phase: slow drift plus fast jitter. This is
            // what ultimately limits how long an installed null survives.
            let lo_phase = Complex64::cis(
                self.phase_walk[ant]
                    + wivi_num::rng::normal(&mut self.rng, 0.0, self.cfg.phase_noise_std),
            );
            for i in 0..k {
                let w = match (mode, ant) {
                    // Antenna 2 applies the installed precoding weight when
                    // both antennas transmit.
                    (TxMode::Observe, 1) => self.precoder.as_ref().unwrap()[i],
                    _ => Complex64::ONE,
                };
                self.scratch_block[i] = self.preamble[i] * w * lo_phase * tx_scale;
            }
            // PA: modulate, clip to the linear range, re-analyze. Under
            // normal operation nothing clips and this is a no-op round
            // trip; over-boosted transmissions distort here.
            modulate_in_place(&self.plan, &mut self.scratch_block);
            clip_tx(&mut self.scratch_block, self.cfg.tx_linear_limit);
            demodulate_in_place(&self.plan, &mut self.scratch_block);

            self.scene
                .trace_mover_paths_into(ant, self.now, &mut self.scratch_paths);
            let statics = &self.static_gains[ant * k..(ant + 1) * k];
            for (i, &partial) in statics.iter().enumerate() {
                let h = continue_gain(partial, &self.scratch_paths, ofdm.subcarrier_freq(i));
                self.scratch_rx[i] += h * self.scratch_block[i];
            }
        }

        // Receiver: time-domain antenna noise, analog gain, ADC.
        self.scratch_block.copy_from_slice(&self.scratch_rx);
        modulate_in_place(&self.plan, &mut self.scratch_block);
        for z in self.scratch_block.iter_mut() {
            *z = (*z + complex_gaussian(&mut self.rng, self.cfg.noise_sigma)).scale(self.rx_gain);
        }
        let outcome = self.cfg.adc.quantize_block(&mut self.scratch_block);
        demodulate_in_place(&self.plan, &mut self.scratch_block);

        // Normalize back to channel units.
        let norm = tx_scale * self.rx_gain;
        for (h, x) in self.scratch_block.iter_mut().zip(&self.preamble) {
            *h = *h / *x / norm;
        }
        outcome
    }
}

/// A borrowing iterator over fixed-size [`Observation`] batches — the
/// stand-in for the frame-chunked delivery a real UHD receive stream
/// provides. Produced by [`MimoFrontend::observe_stream`].
pub struct ObservationStream<'a> {
    fe: &'a mut MimoFrontend,
    remaining: usize,
    batch_len: usize,
}

impl ObservationStream<'_> {
    /// Observations not yet emitted.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// The configured (maximum) batch size.
    pub fn batch_len(&self) -> usize {
        self.batch_len
    }

    /// Fills `out` (cleared first) with the next batch, returning how many
    /// observations were produced — `0` once the stream is exhausted. The
    /// allocation-conscious alternative to the `Iterator` impl: one output
    /// buffer serves the whole stream.
    pub fn next_batch_into(&mut self, out: &mut Vec<Observation>) -> usize {
        out.clear();
        let n = self.remaining.min(self.batch_len);
        out.reserve(n);
        for _ in 0..n {
            out.push(self.fe.observe());
        }
        self.remaining -= n;
        n
    }
}

impl Iterator for ObservationStream<'_> {
    type Item = Vec<Observation>;

    fn next(&mut self) -> Option<Vec<Observation>> {
        if self.remaining == 0 {
            return None;
        }
        let mut batch = Vec::new();
        self.next_batch_into(&mut batch);
        Some(batch)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.div_ceil(self.batch_len);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wivi_rf::{Material, Mover, Point, Scatterer, Scene, Stationary, WaypointWalker};

    fn quiet_cfg() -> RadioConfig {
        RadioConfig {
            noise_sigma: 0.0,
            phase_noise_std: 0.0,
            phase_drift_std: 0.0,
            ..RadioConfig::fast_test()
        }
    }

    fn test_scene() -> Scene {
        Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small())
    }

    #[test]
    fn sounding_recovers_true_channel_without_noise() {
        let scene = test_scene();
        let cfg = quiet_cfg();
        // High RX gain so quantization is negligible relative to the flash.
        let mut fe = MimoFrontend::new(scene, cfg, 1);
        fe.set_rx_gain(30.0);
        let obs = fe.sound(0);
        assert!(!obs.saturated());
        for kidx in 0..cfg.ofdm.n_subcarriers {
            let truth = fe
                .scene()
                .channel_gain(0, cfg.ofdm.subcarrier_freq(kidx), obs.time);
            let err = (obs.h[kidx] - truth).abs();
            assert!(
                err < 1e-4 * truth.abs().max(1e-9) + 1e-5,
                "subcarrier {kidx}: est {} vs truth {}",
                obs.h[kidx],
                truth
            );
        }
    }

    #[test]
    fn channels_differ_between_tx_antennas() {
        let mut fe = MimoFrontend::new(test_scene(), quiet_cfg(), 2);
        fe.set_rx_gain(30.0);
        let h1 = fe.sound(0).combined();
        let h2 = fe.sound(1).combined();
        assert!((h1 - h2).abs() > 1e-6);
    }

    #[test]
    fn manual_nulling_cancels_static_channel() {
        let mut fe = MimoFrontend::new(test_scene(), quiet_cfg(), 3);
        fe.set_rx_gain(30.0);
        let h1 = fe.sound(0);
        let h2 = fe.sound(1);
        let p: Vec<Complex64> = h1.h.iter().zip(&h2.h).map(|(a, b)| -(*a) / *b).collect();
        let before = h1.mean_power();
        fe.set_precoder(p);
        let after = fe.observe().mean_power();
        let reduction_db = 10.0 * (before / after).log10();
        assert!(
            reduction_db > 40.0,
            "noise-free nulling only achieved {reduction_db:.1} dB"
        );
    }

    #[test]
    fn noise_limits_nulling_depth() {
        let cfg = RadioConfig::fast_test();
        let mut fe = MimoFrontend::new(test_scene(), cfg, 4);
        fe.set_rx_gain(30.0);
        let h1 = fe.sound(0);
        let h2 = fe.sound(1);
        let p: Vec<Complex64> = h1.h.iter().zip(&h2.h).map(|(a, b)| -(*a) / *b).collect();
        fe.set_precoder(p);
        let before = h1.mean_power();
        let after = fe.observe().mean_power();
        let reduction_db = 10.0 * (before / after).log10();
        // Finite (estimate-error-limited), in the paper's observed range.
        assert!(
            (20.0..70.0).contains(&reduction_db),
            "reduction {reduction_db:.1} dB"
        );
    }

    #[test]
    fn excessive_rx_gain_saturates_adc() {
        let mut fe = MimoFrontend::new(test_scene(), quiet_cfg(), 5);
        fe.set_rx_gain(1e4);
        let obs = fe.sound(0);
        assert!(obs.saturated());
        assert!(obs.outcome.peak_relative > 1.0);
    }

    #[test]
    fn quantization_hides_weak_movers_at_low_gain() {
        // The flash-effect mechanism end-to-end: a human's reflection is
        // below the ADC step at unit gain but visible at high gain.
        let scene = Scene::new(Material::HollowWall6In)
            .with_mover(Mover::human(Stationary(Point::new(1.0, 4.0))));
        let cfg = quiet_cfg();
        let fe = MimoFrontend::new(scene, cfg, 6);

        // Human-only channel magnitude (ground truth, carrier):
        let human_amp: f64 = fe
            .scene()
            .trace_mover_paths(0, 0.0)
            .iter()
            .map(|p| p.amplitude)
            .sum();
        assert!(
            human_amp < cfg.adc.step() / 2.0,
            "test premise: human ({human_amp:.2e}) below LSB ({:.2e})",
            cfg.adc.step()
        );
        // At unit gain the time-domain samples of the human alone would
        // vanish; at 40 dB gain they are comfortably representable.
        assert!(human_amp * 100.0 > cfg.adc.step());
    }

    #[test]
    fn observe_advances_time_at_channel_rate() {
        let cfg = quiet_cfg();
        let mut fe = MimoFrontend::new(test_scene(), cfg, 7);
        fe.set_precoder(vec![Complex64::ZERO; cfg.ofdm.n_subcarriers]);
        let t0 = fe.now();
        let _ = fe.observe();
        let _ = fe.observe();
        assert!((fe.now() - t0 - 2.0 / cfg.channel_rate_hz).abs() < 1e-12);
    }

    #[test]
    fn trace_sees_moving_human_after_nulling() {
        let scene = test_scene().with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.0, 3.0), Point::new(2.0, 3.0)],
            1.0,
        )));
        let cfg = RadioConfig::fast_test();
        let mut fe = MimoFrontend::new(scene, cfg, 8);
        fe.set_rx_gain(30.0);
        let h1 = fe.sound(0);
        let h2 = fe.sound(1);
        let p: Vec<Complex64> = h1.h.iter().zip(&h2.h).map(|(a, b)| -(*a) / *b).collect();
        fe.set_precoder(p);
        let trace = fe.record_trace(64);
        // The residual channel must vary over time (the human's phase
        // rotates) by more than the noise floor.
        let mean: Complex64 = trace.iter().copied().sum::<Complex64>() / trace.len() as f64;
        let var: f64 =
            trace.iter().map(|z| (*z - mean).norm_sqr()).sum::<f64>() / trace.len() as f64;
        assert!(
            var.sqrt() > cfg.noise_sigma / (cfg.ofdm.n_subcarriers as f64).sqrt(),
            "trace variation {} below combined noise",
            var.sqrt()
        );
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mk = || {
            let mut fe = MimoFrontend::new(test_scene(), RadioConfig::fast_test(), 99);
            fe.set_rx_gain(30.0);
            fe.sound(0).combined()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
    }

    #[test]
    fn tx_boost_changes_effective_snr_not_channel() {
        let cfg = RadioConfig::fast_test();
        let mut fe = MimoFrontend::new(test_scene(), cfg, 10);
        fe.set_rx_gain(30.0);
        let h_lo = fe.sound(0).combined();
        fe.set_tx_boost_db(12.0);
        let h_hi = fe.sound(0).combined();
        // Same channel (normalized), just less noisy.
        assert!(
            (h_lo - h_hi).abs() < 0.05 * h_lo.abs(),
            "boost changed normalized channel: {h_lo} vs {h_hi}"
        );
    }

    #[test]
    fn overdriven_pa_clips_and_distorts() {
        let cfg = quiet_cfg();
        let mut fe = MimoFrontend::new(test_scene(), cfg, 11);
        fe.set_rx_gain(30.0);
        let clean = fe.sound(0);
        fe.set_tx_boost_db(40.0); // way past the linear range
        let dirty = fe.sound(0);
        // Normalized estimates should now deviate due to clipping.
        let err: f64 = clean
            .h
            .iter()
            .zip(&dirty.h)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            / clean.mean_power()
            / cfg.ofdm.n_subcarriers as f64;
        assert!(err > 1e-4, "clipping caused no distortion (err {err:.2e})");
    }

    #[test]
    fn scene_mut_drops_the_static_path_cache() {
        // A quiet radio draws no noise, so what it observes depends only
        // on its scene, its settings and the scene time.
        let cfg = quiet_cfg();
        let dt = 1.0 / cfg.channel_rate_hz;
        let walker = || {
            Mover::human(WaypointWalker::new(
                vec![Point::new(-2.0, 3.0), Point::new(2.0, 3.0)],
                1.0,
            ))
        };
        let radio = |scene: Scene, seed: u64| {
            let mut fe = MimoFrontend::new(scene, cfg, seed);
            fe.set_rx_gain(30.0);
            fe.set_precoder(vec![Complex64::new(-0.5, 0.25); cfg.ofdm.n_subcarriers]);
            fe
        };
        let chair = Scatterer {
            position: Point::new(1.5, 2.0),
            sqrt_rcs: 0.4,
        };
        let bits = |o: &Observation| -> Vec<(u64, u64)> {
            o.h.iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };

        // Observe (building the cache), then add a chair.
        let mut fe = radio(test_scene().with_mover(walker()), 31);
        for _ in 0..8 {
            fe.observe();
        }
        fe.scene_mut().clutter.push(chair);
        let after = fe.observe();

        // A fresh radio that has only ever seen the chair.
        let mut with_chair = test_scene().with_mover(walker());
        with_chair.clutter.push(chair);
        let mut fresh = radio(with_chair, 32);
        for _ in 0..8 {
            fresh.advance(dt);
        }
        let expect = fresh.observe();
        assert_eq!(after.time, expect.time);
        assert_eq!(bits(&after), bits(&expect), "a stale static-path cache");

        // The chair is visible, so a stale cache could not pass.
        let mut without = radio(test_scene().with_mover(walker()), 33);
        for _ in 0..8 {
            without.advance(dt);
        }
        assert_ne!(bits(&without.observe()), bits(&expect));
    }

    #[test]
    #[should_panic(expected = "requires a precoder")]
    fn observe_without_precoder_panics() {
        let mut fe = MimoFrontend::new(test_scene(), quiet_cfg(), 12);
        let _ = fe.observe();
    }

    /// Builds a nulled front-end ready for observation.
    fn nulled_frontend(seed: u64) -> MimoFrontend {
        let mut fe = MimoFrontend::new(test_scene(), RadioConfig::fast_test(), seed);
        fe.set_rx_gain(30.0);
        let h1 = fe.sound(0);
        let h2 = fe.sound(1);
        let p: Vec<Complex64> = h1.h.iter().zip(&h2.h).map(|(a, b)| -(*a) / *b).collect();
        fe.set_precoder(p);
        fe
    }

    #[test]
    fn batched_stream_matches_direct_observation_exactly() {
        // The streaming contract: draining batches produces the identical
        // observation sequence (times, channels, telemetry) as one-shot
        // recording, regardless of the batch size.
        let total = 50;
        let mut fe = nulled_frontend(21);
        let direct: Vec<Observation> = (0..total).map(|_| fe.observe()).collect();

        for batch_len in [1usize, 7, 16, 64] {
            let mut fe2 = nulled_frontend(21);
            let mut streamed: Vec<Observation> = Vec::new();
            for batch in fe2.observe_stream(total, batch_len) {
                assert!(batch.len() <= batch_len);
                streamed.extend(batch);
            }
            assert_eq!(streamed.len(), total);
            for (a, b) in direct.iter().zip(&streamed) {
                assert_eq!(a.time, b.time, "batch_len {batch_len}");
                assert_eq!(a.h, b.h, "batch_len {batch_len}");
            }
            assert_eq!(fe.now(), fe2.now());
        }
    }

    #[test]
    fn stream_next_batch_into_reuses_one_buffer() {
        let mut fe = nulled_frontend(22);
        let mut stream = fe.observe_stream(10, 4);
        assert_eq!(stream.remaining(), 10);
        assert_eq!(stream.batch_len(), 4);
        let mut buf = Vec::new();
        let mut sizes = Vec::new();
        loop {
            let n = stream.next_batch_into(&mut buf);
            if n == 0 {
                break;
            }
            sizes.push(n);
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(stream.remaining(), 0);
    }

    #[test]
    fn record_trace_into_appends_to_reused_buffer() {
        let mut fe = nulled_frontend(23);
        let expect = fe.record_trace(12);
        let mut fe2 = nulled_frontend(23);
        let mut buf = Vec::new();
        fe2.record_trace_into(8, &mut buf);
        fe2.record_trace_into(4, &mut buf);
        assert_eq!(buf, expect);
    }

    #[test]
    #[should_panic(expected = "batch length must be positive")]
    fn stream_rejects_zero_batch() {
        let mut fe = nulled_frontend(24);
        let _ = fe.observe_stream(10, 0);
    }
}
