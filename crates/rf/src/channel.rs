//! Multipath channel computation.
//!
//! For each transmit antenna the channel to the receive antenna is a
//! linear superposition of ray paths (Ch. 4: "wireless signals (including
//! reflections) combine linearly over the medium"):
//!
//! 1. **Direct** TX→RX leakage — strongly attenuated by the directional
//!    antennas but still far above through-wall reflections.
//! 2. **Flash** — the specular reflection off the wall surface, the
//!    dominant term for any real material.
//! 3. **Static clutter** — furniture and fixtures on both sides of the
//!    wall (bistatic scattering, wall attenuation per crossing).
//! 4. **Movers** — the body scatterers of each human at the evaluation
//!    time, the only *time-varying* contribution.
//!
//! Geometry is frequency-independent, so paths are traced once per
//! (TX antenna, time) as `(amplitude, length)` pairs ([`Path`]) and then
//! evaluated at each OFDM subcarrier frequency by phase rotation
//! ([`gain_from_paths`]). Static paths come first in every path set and
//! never change, so the front end in `wivi-sdr` sums them once per
//! subcarrier ([`Scene::static_gains_into`]) and per sample traces and
//! folds in only the movers ([`Scene::trace_mover_paths_into`],
//! [`continue_gain`]), with the same bits as summing the whole set.

use wivi_num::Complex64;

use crate::geometry::Point;
use crate::scene::{Scatterer, Scene};
use crate::SPEED_OF_LIGHT;

/// Which physical mechanism produced a path (for diagnostics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathKind {
    /// Direct TX→RX leakage.
    Direct,
    /// Specular wall reflection (the flash).
    Flash,
    /// Static clutter scatterer `i`.
    Clutter(usize),
    /// Scatterer `part` of mover `mover`.
    Mover { mover: usize, part: usize },
}

/// A traced ray path: real amplitude (all gains, spreading and wall
/// attenuation applied) plus geometric length. The complex gain at
/// frequency `f` is `amplitude · e^{−j2πf·length/c}`.
#[derive(Clone, Copy, Debug)]
pub struct Path {
    pub amplitude: f64,
    pub length_m: f64,
    pub kind: PathKind,
}

/// A path evaluated at a specific frequency.
#[derive(Clone, Copy, Debug)]
pub struct PathContribution {
    pub gain: Complex64,
    pub kind: PathKind,
}

impl Path {
    /// Complex gain of this path at `freq_hz`.
    pub fn gain(&self, freq_hz: f64) -> Complex64 {
        let phase = -std::f64::consts::TAU * freq_hz * self.length_m / SPEED_OF_LIGHT;
        Complex64::from_polar(self.amplitude, phase)
    }
}

/// Sums a traced path set at one frequency: a left fold from zero, in
/// path order.
pub fn gain_from_paths(paths: &[Path], freq_hz: f64) -> Complex64 {
    continue_gain(Complex64::ZERO, paths, freq_hz)
}

/// Continues [`gain_from_paths`]'s fold from `partial`, the sum of the
/// paths that precede `paths`. For any split of a path set into `a`
/// then `b`, `continue_gain(gain_from_paths(a, f), b, f)` adds the same
/// terms in the same order as `gain_from_paths` over the whole set, so
/// the two agree bit for bit.
pub fn continue_gain(partial: Complex64, paths: &[Path], freq_hz: f64) -> Complex64 {
    paths.iter().fold(partial, |acc, p| acc + p.gain(freq_hz))
}

/// Number of wall crossings of the straight segment `a → b` (0 or 1: the
/// wall is the full line `y = 0`).
fn wall_crossings(a: Point, b: Point) -> u32 {
    u32::from(a.y.signum() != b.y.signum() && a.y != 0.0 && b.y != 0.0)
}

impl Scene {
    /// Traces every path from TX antenna `tx_idx` to the RX antenna at
    /// scene time `t`: the static paths (direct, flash, clutter), then
    /// the movers' body scatterers at their time-`t` positions.
    ///
    /// # Panics
    /// Panics if `tx_idx >= 2`.
    pub fn trace_paths(&self, tx_idx: usize, t: f64) -> Vec<Path> {
        let mut out = self.trace_static_paths(tx_idx);
        self.append_mover_paths(tx_idx, t, &mut out);
        out
    }

    /// Only the static paths (direct + flash + clutter). These are what
    /// MIMO nulling cancels; tests use this to verify the residual.
    pub fn trace_static_paths(&self, tx_idx: usize) -> Vec<Path> {
        let mut out = Vec::with_capacity(2 + self.clutter.len());
        self.for_each_static_path(tx_idx, |p| out.push(p));
        out
    }

    /// Fills `out[i]` with [`gain_from_paths`] over
    /// [`Self::trace_static_paths`] at `freq_hz(i)`, bit for bit, without
    /// materializing the paths: each entry starts at zero and adds the
    /// static paths' gains in trace order. The front end's static-path
    /// cache is this, once per TX antenna.
    ///
    /// # Panics
    /// Panics if `tx_idx >= 2`.
    pub fn static_gains_into(
        &self,
        tx_idx: usize,
        freq_hz: impl Fn(usize) -> f64,
        out: &mut [Complex64],
    ) {
        out.fill(Complex64::ZERO);
        self.for_each_static_path(tx_idx, |p| {
            for (i, g) in out.iter_mut().enumerate() {
                *g += p.gain(freq_hz(i));
            }
        });
    }

    fn for_each_static_path(&self, tx_idx: usize, mut visit: impl FnMut(Path)) {
        assert!(tx_idx < 2, "Wi-Vi has exactly two transmit antennas");
        let tx = self.device.tx[tx_idx];
        let rx = self.device.rx;
        let lambda = crate::carrier_wavelength();

        // 1. Direct leakage.
        {
            let d = tx.distance(rx).max(lambda);
            let g_tx = self.device.tx_antenna.amplitude_gain(rx - tx);
            let g_rx = self.device.rx_antenna.amplitude_gain(tx - rx);
            visit(Path {
                amplitude: g_tx * g_rx * lambda / (4.0 * std::f64::consts::PI * d),
                length_m: d,
                kind: PathKind::Direct,
            });
        }

        // 2. Specular flash off the wall: image of RX across y = 0.
        let gamma = self.wall.material.reflection_amplitude();
        if gamma > 0.0 {
            let rx_img = rx.mirror_y();
            let tx_img = tx.mirror_y();
            let d = tx.distance(rx_img).max(lambda);
            // Departure: toward the image of RX. Arrival: from the
            // reflection point, i.e. along (rx − tx_img).
            let g_tx = self.device.tx_antenna.amplitude_gain(rx_img - tx);
            let g_rx = self.device.rx_antenna.amplitude_gain(tx_img - rx);
            visit(Path {
                amplitude: gamma * g_tx * g_rx * lambda / (4.0 * std::f64::consts::PI * d),
                length_m: d,
                kind: PathKind::Flash,
            });
        }

        // 3. Static clutter.
        for (i, s) in self.clutter.iter().enumerate() {
            visit(self.scatter_path(tx, rx, s, PathKind::Clutter(i)));
        }
    }

    /// Only the movers' paths at time `t`.
    pub fn trace_mover_paths(&self, tx_idx: usize, t: f64) -> Vec<Path> {
        let mut out = Vec::new();
        self.append_mover_paths(tx_idx, t, &mut out);
        out
    }

    /// [`Self::trace_mover_paths`] into a caller-provided buffer (cleared
    /// first). The front end calls this at the channel rate; reusing one
    /// buffer keeps the per-sample radio path allocation-free.
    ///
    /// # Panics
    /// Panics if `tx_idx >= 2`.
    pub fn trace_mover_paths_into(&self, tx_idx: usize, t: f64, out: &mut Vec<Path>) {
        out.clear();
        self.append_mover_paths(tx_idx, t, out);
    }

    fn append_mover_paths(&self, tx_idx: usize, t: f64, out: &mut Vec<Path>) {
        assert!(tx_idx < 2, "Wi-Vi has exactly two transmit antennas");
        let tx = self.device.tx[tx_idx];
        let rx = self.device.rx;
        for (mi, mover) in self.movers.iter().enumerate() {
            let mut pi = 0;
            mover.for_each_scatterer(t, |s| {
                out.push(self.scatter_path(
                    tx,
                    rx,
                    s,
                    PathKind::Mover {
                        mover: mi,
                        part: pi,
                    },
                ));
                pi += 1;
            });
        }
    }

    /// Bistatic scattering path TX → scatterer → RX with wall attenuation
    /// applied once per crossing of each leg.
    fn scatter_path(&self, tx: Point, rx: Point, s: &Scatterer, kind: PathKind) -> Path {
        let lambda = crate::carrier_wavelength();
        let d1 = tx.distance(s.position).max(lambda);
        let d2 = s.position.distance(rx).max(lambda);
        let crossings = wall_crossings(tx, s.position) + wall_crossings(s.position, rx);
        let wall_amp = self
            .wall
            .material
            .transmission_amplitude()
            .powi(crossings as i32);
        let g_tx = self.device.tx_antenna.amplitude_gain(s.position - tx);
        let g_rx = self.device.rx_antenna.amplitude_gain(s.position - rx);
        // Bistatic radar amplitude: λ·√σ / ((4π)^{3/2}·d₁·d₂).
        let four_pi = 4.0 * std::f64::consts::PI;
        let amplitude =
            g_tx * g_rx * wall_amp * lambda * s.sqrt_rcs / (four_pi.powf(1.5) * d1 * d2);
        Path {
            amplitude,
            length_m: d1 + d2,
            kind,
        }
    }

    /// Complex channel gain from TX antenna `tx_idx` at `freq_hz`, time `t`
    /// — the convenience entry point (traces paths internally).
    pub fn channel_gain(&self, tx_idx: usize, freq_hz: f64, t: f64) -> Complex64 {
        gain_from_paths(&self.trace_paths(tx_idx, t), freq_hz)
    }

    /// Per-path breakdown at one frequency, for diagnostics.
    pub fn path_contributions(&self, tx_idx: usize, freq_hz: f64, t: f64) -> Vec<PathContribution> {
        self.trace_paths(tx_idx, t)
            .iter()
            .map(|p| PathContribution {
                gain: p.gain(freq_hz),
                kind: p.kind,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Point, Vec2};
    use crate::materials::Material;
    use crate::motion::{Mover, Stationary, WaypointWalker};
    use crate::{Scene, CARRIER_HZ};

    fn human_at(p: Point) -> Mover {
        Mover::human(Stationary(p))
    }

    #[test]
    fn flash_dominates_behind_wall_reflections() {
        // Ch. 4: the flash is orders of magnitude above anything behind the
        // wall. Place a human 3 m behind a hollow wall and compare.
        let scene = Scene::new(Material::HollowWall6In).with_mover(human_at(Point::new(0.0, 3.0)));
        let paths = scene.trace_paths(0, 0.0);
        let flash = paths
            .iter()
            .find(|p| p.kind == PathKind::Flash)
            .unwrap()
            .amplitude;
        let human: f64 = paths
            .iter()
            .filter(|p| matches!(p.kind, PathKind::Mover { .. }))
            .map(|p| p.amplitude)
            .fold(0.0, f64::max);
        let ratio_db = 20.0 * (flash / human).log10();
        assert!(
            (18.0..60.0).contains(&ratio_db),
            "flash/human ratio {ratio_db:.1} dB outside the paper's regime"
        );
    }

    #[test]
    fn direct_path_is_strong_but_attenuated_by_directionality() {
        let directional = Scene::new(Material::HollowWall6In);
        let isotropic = {
            let mut s = Scene::new(Material::HollowWall6In);
            s.device = crate::DeviceLayout::standard_isotropic(1.0);
            s
        };
        let d_amp = directional.trace_static_paths(0)[0].amplitude;
        let i_amp = isotropic.trace_static_paths(0)[0].amplitude;
        // §4.1: directional antennas attenuate the direct channel relative
        // to a typical MIMO system.
        assert!(
            d_amp < i_amp / 2.0,
            "directional {d_amp} vs isotropic {i_amp}"
        );
    }

    #[test]
    fn through_wall_round_trip_attenuation_applied() {
        // Same geometry, free space vs hollow wall: the mover's path must
        // differ by exactly the two-crossing attenuation (18 dB).
        let free = Scene::new(Material::FreeSpace).with_mover(human_at(Point::new(0.5, 3.0)));
        let wall = Scene::new(Material::HollowWall6In).with_mover(human_at(Point::new(0.5, 3.0)));
        let get = |s: &Scene| {
            s.trace_mover_paths(0, 0.0)
                .iter()
                .find(|p| matches!(p.kind, PathKind::Mover { part: 0, .. }))
                .unwrap()
                .amplitude
        };
        let ratio_db = 20.0 * (get(&free) / get(&wall)).log10();
        assert!(
            (ratio_db - 18.0).abs() < 1e-9,
            "round trip attenuation {ratio_db} dB != 18 dB"
        );
    }

    #[test]
    fn clutter_in_front_of_wall_suffers_no_wall_loss() {
        let mut scene = Scene::new(Material::ConcreteWall18In);
        scene.clutter.push(Scatterer {
            position: Point::new(0.5, -0.5),
            sqrt_rcs: 0.5,
        });
        let mut free = Scene::new(Material::FreeSpace);
        free.clutter.push(Scatterer {
            position: Point::new(0.5, -0.5),
            sqrt_rcs: 0.5,
        });
        let amp = |s: &Scene| {
            s.trace_static_paths(0)
                .iter()
                .find(|p| matches!(p.kind, PathKind::Clutter(_)))
                .unwrap()
                .amplitude
        };
        assert!((amp(&scene) - amp(&free)).abs() < 1e-15);
    }

    #[test]
    fn static_paths_are_time_invariant_and_mover_paths_are_not() {
        let scene = Scene::new(Material::HollowWall6In)
            .with_office_clutter(Scene::conference_room_small())
            .with_mover(Mover::human(WaypointWalker::new(
                vec![Point::new(-2.0, 3.0), Point::new(2.0, 3.0)],
                1.0,
            )));
        let f = CARRIER_HZ;
        let s0 = gain_from_paths(&scene.trace_static_paths(0), f);
        let s1 = gain_from_paths(&scene.trace_static_paths(0), f);
        assert_eq!(s0, s1);
        let m0 = gain_from_paths(&scene.trace_mover_paths(0, 0.0), f);
        let m1 = gain_from_paths(&scene.trace_mover_paths(0, 1.0), f);
        assert!((m0 - m1).abs() > 1e-9, "mover path did not change channel");
    }

    #[test]
    fn moving_scatterer_rotates_phase_at_spatial_rate() {
        // A body moving radially by Δd lengthens the round-trip by 2Δd and
        // must rotate the path phase by 2π·2Δd/λ — the ISAR foundation.
        let scene = Scene::new(Material::FreeSpace).with_mover(Mover::with_body(
            WaypointWalker::new(vec![Point::new(0.0, 3.0), Point::new(0.0, 2.0)], 1.0),
            crate::BodyConfig::rigid(0.7),
            0.0,
        ));
        let lambda = crate::carrier_wavelength();
        let dt = 0.01; // 1 cm of motion toward the device
        let p0 = scene.trace_mover_paths(0, 0.0)[0];
        let p1 = scene.trace_mover_paths(0, dt)[0];
        let dlen = p0.length_m - p1.length_m;
        // Round-trip shortening ≈ 2 cm (monostatic approximation: the TX
        // and RX are nearly co-located relative to a 3 m range).
        assert!((dlen - 0.02).abs() < 0.002, "Δlength {dlen}");
        let phase_turns =
            (p0.gain(CARRIER_HZ).arg() - p1.gain(CARRIER_HZ).arg()).abs() / std::f64::consts::TAU;
        assert!((phase_turns - dlen / lambda).abs() < 1e-6);
    }

    #[test]
    fn free_space_has_no_flash() {
        let scene = Scene::new(Material::FreeSpace);
        assert!(!scene
            .trace_static_paths(0)
            .iter()
            .any(|p| p.kind == PathKind::Flash));
    }

    #[test]
    fn gain_from_paths_matches_channel_gain() {
        let scene = Scene::new(Material::HollowWall6In)
            .with_office_clutter(Scene::conference_room_small())
            .with_mover(human_at(Point::new(1.0, 2.0)));
        let f = CARRIER_HZ + 1.25e6;
        let a = scene.channel_gain(1, f, 0.5);
        let b = gain_from_paths(&scene.trace_paths(1, 0.5), f);
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn static_partial_sums_continued_over_movers_keep_every_bit() {
        // The front end's static-path cache: per (antenna, subcarrier),
        // the static paths' sum, continued over the movers only, must be
        // the whole path set's sum bit for bit at every sample.
        let room = Scene::conference_room_small();
        let scene = Scene::new(Material::HollowWall6In)
            .with_office_clutter(room)
            .with_mover(Mover::human(WaypointWalker::new(
                vec![Point::new(-2.0, 3.0), Point::new(2.0, 1.5)],
                1.0,
            )))
            .with_mover(Mover::human(crate::ConfinedRandomWalk::new(
                room, 5, 1.2, 4.0,
            )))
            .with_mover(human_at(Point::new(-1.0, 2.5)));
        // The 64 subcarriers of the paper's 5 MHz band.
        let freq = |i: usize| CARRIER_HZ + (i as f64 - 32.0) * 5e6 / 64.0;
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        let mut statics = [Complex64::ONE; 64];
        let mut movers = Vec::new();
        for tx in 0..2 {
            scene.static_gains_into(tx, freq, &mut statics);
            let static_paths = scene.trace_static_paths(tx);
            for (i, &s) in statics.iter().enumerate() {
                assert_eq!(bits(s), bits(gain_from_paths(&static_paths, freq(i))));
            }
            for n in 0..400 {
                let t = n as f64 / 100.0;
                scene.trace_mover_paths_into(tx, t, &mut movers);
                assert!(movers.len() >= 3, "every mover contributes paths");
                let all = scene.trace_paths(tx, t);
                assert_eq!(all.len(), static_paths.len() + movers.len());
                for (i, &s) in statics.iter().enumerate() {
                    let cached = continue_gain(s, &movers, freq(i));
                    let whole = gain_from_paths(&all, freq(i));
                    assert_eq!(bits(cached), bits(whole), "tx {tx}, t {t}, subcarrier {i}");
                }
            }
        }
    }

    #[test]
    fn channels_from_the_two_tx_antennas_differ() {
        // MIMO nulling needs two distinguishable channels.
        let scene =
            Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small());
        let h1 = scene.channel_gain(0, CARRIER_HZ, 0.0);
        let h2 = scene.channel_gain(1, CARRIER_HZ, 0.0);
        assert!((h1 - h2).abs() > 1e-9);
    }

    #[test]
    fn subcarrier_channels_decorrelate_with_delay_spread() {
        // 5 MHz apart on a ~10 m path set should visibly rotate phases.
        let scene = Scene::new(Material::HollowWall6In).with_mover(human_at(Point::new(2.0, 4.0)));
        let h_lo = scene.channel_gain(0, CARRIER_HZ - 2.5e6, 0.0);
        let h_hi = scene.channel_gain(0, CARRIER_HZ + 2.5e6, 0.0);
        assert!((h_lo - h_hi).abs() > 1e-9);
    }

    #[test]
    #[should_panic(expected = "two transmit antennas")]
    fn rejects_bad_tx_index() {
        let scene = Scene::new(Material::FreeSpace);
        let _ = scene.trace_paths(2, 0.0);
    }

    #[test]
    fn antenna_boresight_favours_flash_over_direct_geometrically() {
        // The flash departs near boresight (toward the wall); the direct
        // path departs sideways. Gains must reflect that.
        let scene = Scene::new(Material::ConcreteWall8In);
        let paths = scene.trace_static_paths(0);
        let direct = paths.iter().find(|p| p.kind == PathKind::Direct).unwrap();
        let flash = paths.iter().find(|p| p.kind == PathKind::Flash).unwrap();
        // Despite the reflection loss, the flash should beat the direct
        // leakage here thanks to the directional antennas (§4.1).
        assert!(flash.amplitude > direct.amplitude);
        let _ = Vec2::UNIT_Y; // geometry convention documented above
    }
}
