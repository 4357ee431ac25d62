//! Per-session sensing modes: one type per read-out, used by every entry
//! point.
//!
//! Wi-Vi is one radio pipeline with several read-outs. Each read-out is
//! a [`Session`]: it windows nulled residual samples through a
//! [`Streaming`] stage that owns its per-window engine and folds each
//! completed column into its sink, then [`finish`](Session::finish)es
//! into the mode's payload. The device's offline and streaming methods
//! run a session through
//! [`WiViDevice::run_session`](crate::WiViDevice::run_session) (offline
//! is the same loop with a single batch); a serving shard runs the same
//! session type. There is no second copy of a mode's column folding to
//! keep in step.
//!
//! | session | payload | sink |
//! |---------|---------|------|
//! | [`TrackSession`] | `Option<AngleSpectrogram>` | retained MUSIC columns |
//! | [`CountSession`] | `Option<f64>` | [`StreamingVariance`] |
//! | [`GestureSession`] | `Option<GestureDecode>` | retained beamformer columns, decoded at finish |
//!
//! `wivi-track` and `wivi-image` add `TrackTargetsSession` and
//! `ImageSession` the same way. Payloads that need a minimum number of
//! analysis windows are `Option`s: a session too short for its mode
//! finishes with `None` instead of panicking.

use wivi_num::Complex64;

use crate::counting::StreamingVariance;
use crate::device::WiViConfig;
use crate::gesture::{decode, GestureDecode, GestureDecoderConfig, MIN_DECODE_WINDOWS};
use crate::isar::BeamformEngine;
use crate::music::MusicEngine;
use crate::spectrogram::AngleSpectrogram;
use crate::stage::{Stage, Streaming};

/// One sensing session: advance it batch by batch, then drain it into
/// its payload. Output must be a pure function of the configuration the
/// session was built from and the sample sequence — never of the batch
/// split or of which other sessions run beside it.
pub trait Session {
    /// The mode's payload.
    type Output;

    /// Consumes one batch of nulled residual-channel samples.
    fn step(&mut self, samples: &[Complex64]);

    /// Analysis windows completed so far.
    fn columns(&self) -> usize;

    /// Drains the session into its payload.
    fn finish(self) -> Self::Output;
}

/// Mode 1, imaging: retains every smoothed-MUSIC column and finishes
/// into the full `A′[θ, n]` (`None` if no window completed).
pub struct TrackSession {
    stage: Streaming<MusicEngine>,
}

impl TrackSession {
    /// Opens a session for the device's effective configuration.
    pub fn new(cfg: &WiViConfig) -> Self {
        Self {
            stage: Streaming::new(cfg.music),
        }
    }
}

impl Session for TrackSession {
    type Output = Option<AngleSpectrogram>;

    fn step(&mut self, samples: &[Complex64]) {
        self.stage.push(samples);
    }

    fn columns(&self) -> usize {
        self.stage.n_columns()
    }

    fn finish(mut self) -> Option<AngleSpectrogram> {
        (self.stage.n_columns() > 0).then(|| self.stage.finish())
    }
}

/// Mode 1, counting: folds each MUSIC column into the spatial-variance
/// statistic and retains nothing, so memory stays bounded by one
/// analysis window. Finishes into the mean (`None` if no window
/// completed).
pub struct CountSession {
    stage: Streaming<MusicEngine>,
    sink: StreamingVariance,
}

impl CountSession {
    /// Opens a session for the device's effective configuration.
    pub fn new(cfg: &WiViConfig) -> Self {
        Self {
            stage: Streaming::sink_only(cfg.music),
            sink: StreamingVariance::new(),
        }
    }
}

impl Session for CountSession {
    type Output = Option<f64>;

    fn step(&mut self, samples: &[Complex64]) {
        let sink = &mut self.sink;
        self.stage
            .push_with(samples, &mut |thetas, row| sink.push_column(thetas, row));
    }

    fn columns(&self) -> usize {
        self.stage.n_columns()
    }

    fn finish(self) -> Option<f64> {
        (self.sink.n_columns() > 0).then(|| self.sink.mean())
    }
}

/// Mode 2, gestures: retains the beamformer columns and runs the
/// matched-filter decode once the message window closes (the decoder
/// needs the whole track for its noise reference). Finishes with `None`
/// below [`MIN_DECODE_WINDOWS`] windows.
pub struct GestureSession {
    stage: Streaming<BeamformEngine>,
    gesture: GestureDecoderConfig,
}

impl GestureSession {
    /// Opens a session for the device's effective configuration.
    pub fn new(cfg: &WiViConfig) -> Self {
        Self {
            stage: Streaming::new(cfg.music.isar),
            gesture: cfg.gesture,
        }
    }
}

impl Session for GestureSession {
    type Output = Option<GestureDecode>;

    fn step(&mut self, samples: &[Complex64]) {
        self.stage.push(samples);
    }

    fn columns(&self) -> usize {
        self.stage.n_columns()
    }

    fn finish(mut self) -> Option<GestureDecode> {
        (self.stage.n_columns() >= MIN_DECODE_WINDOWS)
            .then(|| decode(&self.stage.finish(), &self.gesture))
    }
}
