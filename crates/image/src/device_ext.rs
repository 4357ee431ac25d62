//! `WiViDevice` entry points for through-wall imaging — the fifth
//! device mode, layered above `wivi-core` through an extension trait
//! exactly like `wivi-track`'s tracking mode: `use
//! wivi_image::ImageThroughWall;` and every device can `image(..)`.
//!
//! Every entry point opens an [`ImageSession`] on the device and runs it
//! through [`WiViDevice::run_session`]: the streaming shape observes in
//! `batch_len`-sample batches, the offline shape in a single batch, and
//! the serving engine's `image` mode runs the same session type on its
//! shards.

use wivi_core::device::ONE_BATCH;
use wivi_core::WiViDevice;
use wivi_num::Complex64;

use crate::config::ImageConfig;
use crate::stage::{ImageSession, ImagingReport};

/// The subcarrier-averaged nulling weight the calibration installed on
/// the second transmit antenna — the `w` of the imaging model
/// `q = s¹ + w·s²` (see [`crate::engine::ImagingEngine`]): after
/// nulling, a mover's residual is its TX-1 path plus this weight times
/// its TX-2 path. Every imaging session on a device takes it from here
/// ([`ImageSession::for_device`]).
///
/// # Panics
/// Panics if the device has not been calibrated.
pub fn nulling_tx_weight(dev: &WiViDevice) -> Complex64 {
    let p = dev
        .frontend()
        .precoder()
        .expect("call calibrate() before imaging");
    p.iter().copied().sum::<Complex64>() / p.len() as f64
}

/// Device-level imaging entry points: room images and (x, y) fixes
/// instead of bare ridge angles.
pub trait ImageThroughWall {
    /// Observes `duration_s` seconds in one batch and backprojects it
    /// with the configuration derived from the device configuration
    /// ([`ImageConfig::for_wivi`]). Offline one-shot shape of
    /// [`Self::image_streaming`].
    ///
    /// # Panics
    /// Panics if the device has not been calibrated.
    fn image(&mut self, duration_s: f64) -> ImagingReport;

    /// [`Self::image`] with an explicit imaging configuration.
    fn image_with(&mut self, duration_s: f64, cfg: &ImageConfig) -> ImagingReport;

    /// Streaming shape: observations flow in `batch_len`-sample batches
    /// through an [`ImageSession`]; each completed aperture is focused,
    /// CFAR-detected, and folded into the position tracker the moment
    /// it completes. Memory stays bounded by one aperture plus the
    /// engine's resident tables.
    ///
    /// # Panics
    /// Panics if the device has not been calibrated or `batch_len == 0`.
    fn image_streaming(&mut self, duration_s: f64, batch_len: usize) -> ImagingReport;
}

impl ImageThroughWall for WiViDevice {
    fn image(&mut self, duration_s: f64) -> ImagingReport {
        self.image_streaming(duration_s, ONE_BATCH)
    }

    fn image_with(&mut self, duration_s: f64, cfg: &ImageConfig) -> ImagingReport {
        let session = ImageSession::for_device(self, cfg);
        self.run_session(session, duration_s, ONE_BATCH)
    }

    fn image_streaming(&mut self, duration_s: f64, batch_len: usize) -> ImagingReport {
        let cfg = ImageConfig::for_wivi(self.config());
        let session = ImageSession::for_device(self, &cfg);
        self.run_session(session, duration_s, batch_len)
    }
}
