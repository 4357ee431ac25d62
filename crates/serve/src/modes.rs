//! The device's five built-in sensing modes, as [`SensingMode`]
//! implementations.
//!
//! Each mode only delegates: its per-session state *is* the mode's one
//! session type from the mode's home crate — the same type the device's
//! offline and `*_streaming` methods run through
//! `WiViDevice::run_session`. The heavy per-window engines come from the
//! shard's [`EngineCache`] keyed by the same configuration values, so a
//! served session produces the standalone payload bit for bit. The
//! golden traces and the determinism matrix pin this.
//!
//! | mode | tag | session | payload ([`ModeOutput::expect`]) |
//! |------|-----|---------|----------------------------------|
//! | [`Track`] | `track` | [`TrackSession`] | `Option<AngleSpectrogram>` |
//! | [`TrackTargets`] | `track_targets` | [`TrackTargetsSession`] | `TrackingReport` |
//! | [`Count`] | `count` | [`CountSession`] | `Option<f64>` |
//! | [`Gestures`] | `gestures` | [`GestureSession`] | `Option<GestureDecode>` |
//! | [`Image`] | `image` | [`ImageSession`] | `ImagingReport` |
//!
//! Modes whose output needs a minimum number of analysis windows carry
//! `Option`s: a zero-duration, too-short, or immediately closed session
//! drains cleanly with `None` instead of panicking.

use wivi_core::{
    CountSession, EngineCache, GestureSession, Session, TrackSession, WiViConfig, WiViDevice,
};
use wivi_image::{ImageConfig, ImageSession};
use wivi_num::Complex64;
use wivi_track::{TrackEvent, TrackTargetsSession};

use crate::mode::{ModeOutput, SensingMode};

/// Mode 1, imaging: the full `A′[θ, n]` spectrogram.
pub struct Track;

impl SensingMode for Track {
    type State = TrackSession;

    fn tag(&self) -> &'static str {
        "track"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> TrackSession {
        TrackSession::new(eff)
    }

    fn step(&self, state: &mut TrackSession, engines: &mut EngineCache, samples: &[Complex64]) {
        state.step(engines, samples);
    }

    fn columns(&self, state: &TrackSession) -> usize {
        state.columns()
    }

    fn finalize(&self, state: TrackSession) -> (ModeOutput, Vec<TrackEvent>) {
        (ModeOutput::new(self.tag(), state.finish()), Vec::new())
    }
}

/// Mode 1, extended: multi-target tracking; contributes the report's
/// entry/exit/crossing/count events to the engine's unified stream.
pub struct TrackTargets;

impl SensingMode for TrackTargets {
    type State = TrackTargetsSession;

    fn tag(&self) -> &'static str {
        "track_targets"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> TrackTargetsSession {
        TrackTargetsSession::new(eff)
    }

    fn step(
        &self,
        state: &mut TrackTargetsSession,
        engines: &mut EngineCache,
        samples: &[Complex64],
    ) {
        state.step(engines, samples);
    }

    fn columns(&self, state: &TrackTargetsSession) -> usize {
        state.columns()
    }

    fn finalize(&self, state: TrackTargetsSession) -> (ModeOutput, Vec<TrackEvent>) {
        let report = state.finish();
        let events = report.events.clone();
        (ModeOutput::new(self.tag(), report), events)
    }
}

/// Mode 1, counting: the mean spatial variance; nothing is retained.
pub struct Count;

impl SensingMode for Count {
    type State = CountSession;

    fn tag(&self) -> &'static str {
        "count"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> CountSession {
        CountSession::new(eff)
    }

    fn step(&self, state: &mut CountSession, engines: &mut EngineCache, samples: &[Complex64]) {
        state.step(engines, samples);
    }

    fn columns(&self, state: &CountSession) -> usize {
        state.columns()
    }

    fn finalize(&self, state: CountSession) -> (ModeOutput, Vec<TrackEvent>) {
        (ModeOutput::new(self.tag(), state.finish()), Vec::new())
    }
}

/// Mode 2: the gesture message, decoded when the session closes.
pub struct Gestures;

impl SensingMode for Gestures {
    type State = GestureSession;

    fn tag(&self) -> &'static str {
        "gestures"
    }

    fn open(&self, _dev: &WiViDevice, eff: &WiViConfig) -> GestureSession {
        GestureSession::new(eff)
    }

    fn step(&self, state: &mut GestureSession, engines: &mut EngineCache, samples: &[Complex64]) {
        state.step(engines, samples);
    }

    fn columns(&self, state: &GestureSession) -> usize {
        state.columns()
    }

    fn finalize(&self, state: GestureSession) -> (ModeOutput, Vec<TrackEvent>) {
        (ModeOutput::new(self.tag(), state.finish()), Vec::new())
    }
}

/// Mode 1, 2-D: per-window (x, y) CFAR fixes and position tracks, with
/// the configuration `WiViDevice::image_streaming` derives
/// ([`ImageConfig::for_wivi`]) and the session's own nulling weight.
pub struct Image;

impl SensingMode for Image {
    type State = ImageSession;

    fn tag(&self) -> &'static str {
        "image"
    }

    fn open(&self, dev: &WiViDevice, eff: &WiViConfig) -> ImageSession {
        ImageSession::for_device(dev, &ImageConfig::for_wivi(eff))
    }

    fn step(&self, state: &mut ImageSession, engines: &mut EngineCache, samples: &[Complex64]) {
        state.step(engines, samples);
    }

    fn columns(&self, state: &ImageSession) -> usize {
        state.columns()
    }

    fn finalize(&self, state: ImageSession) -> (ModeOutput, Vec<TrackEvent>) {
        (ModeOutput::new(self.tag(), state.finish()), Vec::new())
    }
}
