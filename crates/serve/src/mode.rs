//! The sensing modes: one radio, a closed set of read-outs.
//!
//! The paper's device is a single RF front end with a fixed set of
//! read-outs. [`Mode`] names them and [`ModeOutput`] carries their
//! payloads, one variant each:
//!
//! | mode | tag | session | payload ([`ModeOutput`] variant) |
//! |------|-----|---------|----------------------------------|
//! | [`Mode::Track`] | `track` | [`TrackSession`] | `Option<AngleSpectrogram>` |
//! | [`Mode::TrackTargets`] | `track_targets` | [`TrackTargetsSession`] | `TrackingReport` |
//! | [`Mode::Count`] | `count` | [`CountSession`] | `Option<f64>` |
//! | [`Mode::Gestures`] | `gestures` | [`GestureSession`] | `Option<GestureDecode>` |
//! | [`Mode::Image`] | `image` | [`ImageSession`] | `ImagingReport` |
//!
//! A served session runs its mode's one session type from the mode's
//! home crate — the same type the device's offline and `*_streaming`
//! methods run through `WiViDevice::run_session` — so it produces the
//! standalone payload bit for bit. Payloads that need a minimum number
//! of analysis windows are `Option`s: a zero-duration, too-short, or
//! immediately closed session drains cleanly with `None`.
//!
//! `Mode::open` is the one place a mode meets its session type; the
//! shard drives every session through one object-safe adapter over
//! [`Session`]. Adding a read-out is one variant in each enum plus the
//! `match` arms the compiler then asks for.
//!
//! **Determinism contract.** A session's output must be a pure function
//! of `(effective config, sample stream)`: state lives in the session,
//! engines hold no cross-window state, and nothing may read
//! clocks, thread ids, or global state. The serving engine inherits its
//! bitwise shard-count/submission-order invariance from this.

use wivi_core::gesture::GestureDecode;
use wivi_core::{
    AngleSpectrogram, CountSession, GestureSession, Session, TrackSession, WiViConfig, WiViDevice,
};
use wivi_image::{ImageConfig, ImageSession, ImagingReport};
use wivi_num::Complex64;
use wivi_track::{TrackEvent, TrackTargetsSession, TrackingReport};

/// One sensing read-out of the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Mode 1, imaging: the full `A′[θ, n]` spectrogram.
    Track,
    /// Mode 1, extended: multi-target tracking, with the report's
    /// entry/exit/crossing/count events.
    TrackTargets,
    /// Mode 1, counting: the mean spatial variance; nothing is retained.
    Count,
    /// Mode 2: the gesture message, decoded when the session closes.
    Gestures,
    /// Mode 1, 2-D: per-window (x, y) CFAR fixes and position tracks,
    /// with the configuration `WiViDevice::image_streaming` derives
    /// ([`ImageConfig::for_wivi`]) and the session's own nulling weight.
    Image,
}

impl Mode {
    /// Every mode, in the stable order reports and tests index.
    pub const ALL: [Mode; 5] = [
        Mode::Track,
        Mode::TrackTargets,
        Mode::Count,
        Mode::Gestures,
        Mode::Image,
    ];

    /// The mode's stable tag, used in reports, JSON, and wire `OPEN`s.
    pub const fn tag(self) -> &'static str {
        match self {
            Mode::Track => "track",
            Mode::TrackTargets => "track_targets",
            Mode::Count => "count",
            Mode::Gestures => "gestures",
            Mode::Image => "image",
        }
    }

    /// The mode tagged `tag`, if any — the inverse of [`Self::tag`].
    pub fn from_tag(tag: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.tag() == tag)
    }

    /// Opens the mode's session for a calibrated device. `eff` is the
    /// device's *effective* configuration (the device derives e.g. the
    /// MUSIC noise floor at construction) — the same values the
    /// standalone `*_streaming` entry points run with.
    pub(crate) fn open(self, dev: &WiViDevice, eff: &WiViConfig) -> Box<dyn ModeSession> {
        match self {
            Mode::Track => Served::boxed(TrackSession::new(eff), ModeOutput::Track),
            Mode::TrackTargets => {
                Served::boxed(TrackTargetsSession::new(eff), ModeOutput::TrackTargets)
            }
            Mode::Count => Served::boxed(CountSession::new(eff), ModeOutput::Count),
            Mode::Gestures => Served::boxed(GestureSession::new(eff), ModeOutput::Gestures),
            Mode::Image => Served::boxed(
                ImageSession::for_device(dev, &ImageConfig::for_wivi(eff)),
                ModeOutput::Image,
            ),
        }
    }
}

/// The payload a finished session produced: one variant per [`Mode`].
#[derive(Clone, Debug)]
pub enum ModeOutput {
    /// The spectrogram (`None` if no window completed).
    Track(Option<AngleSpectrogram>),
    /// The tracking report.
    TrackTargets(TrackingReport),
    /// The mean spatial variance (`None` if no window completed).
    Count(Option<f64>),
    /// The gesture decode (`None` below the decoder's minimum windows).
    Gestures(Option<GestureDecode>),
    /// The imaging report.
    Image(ImagingReport),
}

impl ModeOutput {
    /// The session's tracker events (session-relative times, emission
    /// order): the tracking report's events for `track_targets`, none
    /// for every other mode. The engine merges these into its unified
    /// stream.
    pub fn events(&self) -> &[TrackEvent] {
        match self {
            ModeOutput::TrackTargets(report) => &report.events,
            ModeOutput::Track(_)
            | ModeOutput::Count(_)
            | ModeOutput::Gestures(_)
            | ModeOutput::Image(_) => &[],
        }
    }
}

/// Object-safe view of a session being served: what a shard needs to
/// advance and drain it without knowing its mode.
pub(crate) trait ModeSession: Send {
    fn step(&mut self, samples: &[Complex64]);
    fn columns(&self) -> usize;
    fn finish(self: Box<Self>) -> ModeOutput;
}

/// A mode's session paired with the [`ModeOutput`] variant that wraps
/// its payload.
struct Served<S: Session> {
    session: S,
    wrap: fn(S::Output) -> ModeOutput,
}

impl<S: Session + Send + 'static> Served<S> {
    fn boxed(session: S, wrap: fn(S::Output) -> ModeOutput) -> Box<dyn ModeSession> {
        Box::new(Self { session, wrap })
    }
}

impl<S: Session + Send> ModeSession for Served<S> {
    fn step(&mut self, samples: &[Complex64]) {
        self.session.step(samples);
    }

    fn columns(&self) -> usize {
        self.session.columns()
    }

    fn finish(self: Box<Self>) -> ModeOutput {
        (self.wrap)(self.session.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_tag_round_trips_in_order() {
        let tags = Mode::ALL.map(Mode::tag);
        assert_eq!(
            tags,
            ["track", "track_targets", "count", "gestures", "image"]
        );
        for mode in Mode::ALL {
            assert_eq!(Mode::from_tag(mode.tag()), Some(mode));
        }
        assert_eq!(Mode::from_tag("no_such_mode"), None);
    }
}
