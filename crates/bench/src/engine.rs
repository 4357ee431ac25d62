//! The multi-scenario engine: declarative trial grids with
//! coordinate-hashed seeds, and tracking ground truth and scoring.
//!
//! The paper's evaluation — and every related through-wall system (crowd
//! counting, 2.4 GHz commodity-Wi-Fi imaging) — lives or dies by sweeping
//! many scene configurations. The seed repo's binaries each hand-rolled
//! their own (room, material, count, seed) loops; this module replaces
//! that with one engine:
//!
//! * [`ScenarioSpec`] — one fully-described trial: room × material ×
//!   subject count × motion model × trial index. Its seed is a *stable
//!   hash of the coordinates*, so a trial's randomness is independent of
//!   grid shape, enumeration order, and executor thread count.
//! * [`ScenarioGrid`] — the Cartesian product enumerator. Run its
//!   [`specs`](ScenarioGrid::specs) through
//!   [`wivi_num::par::parallel_map`] for a parallel sweep.
//! * [`ground_truth_thetas`] and [`score_tracking`] — the tracking
//!   workload's ground truth and metrics.

use wivi_core::WiViConfig;
use wivi_num::rng::Rng64;
use wivi_rf::{BodyConfig, Material, Mover, Point, Scene, WaypointWalker};

use wivi_core::counting::DC_GUARD_DEG;
use wivi_track::TrackingReport;

use crate::scenarios::{add_random_walkers, Room};

/// How the subjects of a scenario move (the motion-model axis of the
/// grid).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MotionModel {
    /// People moving "at will": seeded [`wivi_rf::ConfinedRandomWalk`]s
    /// (§7.2).
    RandomWalk,
    /// Pacing a straight line parallel to the wall — the classic Fig. 7-2
    /// trajectory shape.
    Pacing,
    /// Walking a loop around the room's perimeter.
    Perimeter,
    /// The tracking workload: subjects on one-way diagonal lanes,
    /// alternating approaching/receding, paced so nobody reaches their
    /// lane's end during the trial. Radial speeds stay well off zero, so
    /// every subject keeps a ridge clear of the DC guard and their
    /// angle trajectories cross — the scenario the multi-target
    /// tracker's metrics are judged on.
    Crossing,
}

impl MotionModel {
    /// Stable tag used in seeds and reports.
    pub fn tag(self) -> &'static str {
        match self {
            MotionModel::RandomWalk => "random_walk",
            MotionModel::Pacing => "pacing",
            MotionModel::Perimeter => "perimeter",
            MotionModel::Crossing => "crossing",
        }
    }
}

fn material_tag(m: Material) -> &'static str {
    match m {
        Material::FreeSpace => "free_space",
        Material::TintedGlass => "tinted_glass",
        Material::SolidWoodDoor => "solid_wood_door",
        Material::HollowWall6In => "hollow_wall_6in",
        Material::ConcreteWall8In => "concrete_8in",
        Material::ConcreteWall18In => "concrete_18in",
        Material::ReinforcedConcrete => "reinforced_concrete",
    }
}

fn room_tag(r: Room) -> &'static str {
    match r {
        Room::Small => "small_7x4",
        Room::Large => "large_11x7",
    }
}

/// One fully-described trial of the scenario grid.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    pub room: Room,
    pub material: Material,
    pub n_humans: usize,
    pub motion: MotionModel,
    /// Trial index within this grid cell.
    pub trial: u64,
    /// Recording duration, seconds.
    pub duration_s: f64,
}

impl ScenarioSpec {
    /// The trial's deterministic seed: an FNV-1a hash of the scenario
    /// coordinates. Depends only on *what the trial is*, never on where it
    /// sits in the grid or which thread runs it.
    pub fn seed(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(room_tag(self.room).as_bytes());
        eat(material_tag(self.material).as_bytes());
        eat(&(self.n_humans as u64).to_le_bytes());
        eat(self.motion.tag().as_bytes());
        eat(&self.trial.to_le_bytes());
        h
    }

    /// Builds the trial's scene: clutter, wall material, and `n_humans`
    /// movers following the scenario's motion model. Deterministic in
    /// [`Self::seed`].
    pub fn build_scene(&self) -> Scene {
        let rect = self.room.rect();
        let mut scene = Scene::new(self.material).with_office_clutter(rect);
        let mix_seed = self.seed() ^ 0xA24B_AED4_963E_E407;
        if self.motion == MotionModel::RandomWalk {
            // The §7.2 "moving at will" population, shared with
            // `scenarios::counting_scene` so the two cannot drift apart.
            return add_random_walkers(scene, rect, self.n_humans, mix_seed, self.duration_s);
        }
        let mut rng = Rng64::seed_from_u64(mix_seed);
        for i in 0..self.n_humans {
            let speed = rng.gen_range(0.8, 1.2); // comfortable walking ±20 %
            let gait_phase = rng.gen_range(0.0, std::f64::consts::TAU);
            let mover = match self.motion {
                MotionModel::RandomWalk => unreachable!("handled above"),
                MotionModel::Pacing => {
                    let inner = rect.shrunk(0.4);
                    let y = rng.gen_range(inner.min.y, inner.max.y);
                    let line = [Point::new(inner.min.x, y), Point::new(inner.max.x, y)];
                    // Enough back-and-forth legs to cover the trial.
                    let mut path = Vec::new();
                    let legs = (self.duration_s * speed / inner.width()).ceil() as usize + 2;
                    for leg in 0..legs {
                        path.push(line[leg % 2]);
                    }
                    Mover::with_body(
                        WaypointWalker::new(path, speed),
                        BodyConfig::default(),
                        gait_phase,
                    )
                }
                MotionModel::Perimeter => {
                    let inner = rect.shrunk(0.5);
                    let corners = [
                        Point::new(inner.min.x, inner.min.y),
                        Point::new(inner.max.x, inner.min.y),
                        Point::new(inner.max.x, inner.max.y),
                        Point::new(inner.min.x, inner.max.y),
                    ];
                    let lap = 2.0 * (inner.width() + inner.height());
                    let laps = (self.duration_s * speed / lap).ceil() as usize + 1;
                    let start = rng.gen_below(4) as usize;
                    let mut path = Vec::new();
                    for i in 0..=(4 * laps) {
                        path.push(corners[(start + i) % 4]);
                    }
                    Mover::with_body(
                        WaypointWalker::new(path, speed),
                        BodyConfig::default(),
                        gait_phase,
                    )
                }
                MotionModel::Crossing => {
                    let mut inner = rect.shrunk(0.4);
                    // Cap lane depth: the tracking workload probes
                    // crossing geometry at comparable ranges, not
                    // extreme-range sensitivity (that axis belongs to the
                    // material/room sweeps). Deep-room subjects return so
                    // much less ridge power that they are
                    // indistinguishable from multipath ghosts.
                    inner.max.y = inner.max.y.min(4.3);
                    let x0 = rng.gen_range(inner.min.x, inner.max.x);
                    // Lanes aim at (or away from) a point at the device's
                    // depth but laterally offset: the range to the
                    // receive antenna then changes *monotonically* along
                    // the whole lane — no subject ever parks on the DC
                    // line mid-trial — while the radial-speed fraction
                    // (hence the ridge angle) drifts smoothly and
                    // differently per subject, so trajectories cross.
                    // Aim within a narrow cone of the device so the
                    // radial-speed fraction stays high: a wide-offset
                    // lane walks mostly sideways, its ridge hugging the
                    // DC guard.
                    let aim = Point::new(0.4 * x0 + rng.gen_range(-0.6, 0.6), -1.0);
                    let (start, dir) = if i % 2 == 0 {
                        // Approaching: deep in the room walking toward
                        // `aim` — already 0.6 m into the lane so the
                        // ridge has power from the first window.
                        let far = Point::new(x0, inner.max.y);
                        let dir = (aim - far).normalized();
                        (far + dir * 0.6, dir)
                    } else {
                        // Receding: near (not at) the wall, walking away
                        // from `aim`. Start within the middle of the
                        // room's width — a receder hugging a side wall
                        // walks out through it after a stride.
                        let start = Point::new(0.35 * x0, inner.min.y + 0.3);
                        (start, (start - aim).normalized())
                    };
                    // Walk to where the lane leaves the (shrunken) room.
                    let mut reach = f64::INFINITY;
                    if dir.x.abs() > 1e-9 {
                        let lim = if dir.x > 0.0 {
                            inner.max.x
                        } else {
                            inner.min.x
                        };
                        reach = reach.min((lim - start.x) / dir.x);
                    }
                    if dir.y.abs() > 1e-9 {
                        let lim = if dir.y > 0.0 {
                            inner.max.y
                        } else {
                            inner.min.y
                        };
                        reach = reach.min((lim - start.y) / dir.y);
                    }
                    let end = Point::new(start.x + reach * dir.x, start.y + reach * dir.y);
                    // Stratified speed tiers: ridge angle is set by
                    // radial speed (sin θ = v_r / v_assumed), so two
                    // subjects at the *same* speed share one unresolvable
                    // ridge. Tiers force distinct angle bands. The lane
                    // pacing cap keeps every subject short of their
                    // lane's end during the trial — a parked subject
                    // merges with the DC line and stops being trackable
                    // ground truth — and it takes precedence over the
                    // detectability floor: on long trials a slow subject
                    // near the DC guard is scored as undetectable ground
                    // truth, while a parked one would corrupt it.
                    let tier: f64 = [0.95, 0.68, 0.5][i % 3];
                    let lane_speed = (tier * 0.8)
                        .max(0.3)
                        .min(start.distance(end) / (self.duration_s + 1.0));
                    Mover::with_body(
                        WaypointWalker::new(vec![start, end], lane_speed),
                        BodyConfig::default(),
                        gait_phase,
                    )
                }
            };
            scene = scene.with_mover(mover);
        }
        scene
    }
}

/// Ground-truth ridge angles per analysis window: the angle each mover's
/// *radial* speed maps to under the ISAR convention
/// `sin θ = v_radial / v_assumed` (approaching ⇒ positive). Computed by
/// central finite difference of the mover's range to the receive antenna
/// across the analysis window — exactly what the emulated array
/// integrates over.
pub fn ground_truth_thetas(scene: &Scene, cfg: &WiViConfig, times_s: &[f64]) -> Vec<Vec<f64>> {
    let rx = scene.device.rx;
    let isar = &cfg.music.isar;
    let half = 0.5 * isar.window as f64 * isar.sample_period_s;
    times_s
        .iter()
        .map(|&t| {
            scene
                .movers
                .iter()
                .map(|m| {
                    let r0 = m.position(t - half).distance(rx);
                    let r1 = m.position(t + half).distance(rx);
                    let v_radial = (r0 - r1) / (2.0 * half);
                    (v_radial / isar.assumed_speed)
                        .clamp(-1.0, 1.0)
                        .asin()
                        .to_degrees()
                })
                .collect()
        })
        .collect()
}

/// Scores a tracking report against ground truth, returning
/// `(count_accuracy, track_purity)`.
///
/// * Count accuracy is the fraction of windows after the first
///   `confirm_latency_windows` where the confirmed-track count equals
///   the number of movers whose ground-truth angle is clear of the DC
///   guard.
/// * Track purity is detection-weighted: per track, the share of its
///   observations whose nearest ground-truth mover is the track's
///   majority mover; 1.0 for an empty scene correctly left trackless.
pub fn score_tracking(
    report: &TrackingReport,
    gt: &[Vec<f64>],
    confirm_latency_windows: usize,
) -> (f64, f64) {
    // A mover counts as trackable ground truth when its ridge sits clear
    // of the DC guard (plus one 3° bin of slack for the ridge skirt).
    let detectable_margin = DC_GUARD_DEG + 3.0;
    let n = report.confirmed_counts.len();
    let eval_from = confirm_latency_windows.min(n);
    let mut matched = 0usize;
    let mut evaluated = 0usize;
    for (gt_row, &count) in gt[eval_from..n]
        .iter()
        .zip(&report.confirmed_counts[eval_from..n])
    {
        let detectable = gt_row
            .iter()
            .filter(|th| th.abs() >= detectable_margin)
            .count();
        evaluated += 1;
        if count == detectable {
            matched += 1;
        }
    }
    let count_accuracy = if evaluated == 0 {
        0.0
    } else {
        matched as f64 / evaluated as f64
    };

    let n_movers = gt.first().map_or(0, Vec::len);
    let mut purity_weighted = 0.0;
    let mut purity_weight = 0usize;
    for tr in &report.tracks {
        if n_movers == 0 {
            continue;
        }
        let mut votes = vec![0usize; n_movers];
        for p in &tr.history {
            if let Some(z) = p.observed {
                let nearest = (0..n_movers)
                    .min_by(|&a, &b| {
                        (gt[p.window][a] - z)
                            .abs()
                            .partial_cmp(&(gt[p.window][b] - z).abs())
                            .unwrap()
                    })
                    .unwrap();
                votes[nearest] += 1;
            }
        }
        let total: usize = votes.iter().sum();
        if total > 0 {
            let majority = *votes.iter().max().unwrap();
            purity_weighted += majority as f64;
            purity_weight += total;
        }
    }
    let track_purity = if purity_weight > 0 {
        purity_weighted / purity_weight as f64
    } else if n_movers == 0 && report.tracks.is_empty() {
        1.0
    } else {
        0.0
    };
    (count_accuracy, track_purity)
}

/// A Cartesian scenario grid.
#[derive(Clone, Debug)]
pub struct ScenarioGrid {
    pub rooms: Vec<Room>,
    pub materials: Vec<Material>,
    pub human_counts: Vec<usize>,
    pub motions: Vec<MotionModel>,
    /// Trials per grid cell.
    pub trials_per_cell: u64,
    /// Recording duration per trial, seconds.
    pub duration_s: f64,
}

impl ScenarioGrid {
    /// The tracking-acceptance grid: both rooms, the standard wall,
    /// 0–3 crossing subjects.
    pub fn tracking() -> Self {
        Self {
            rooms: vec![Room::Small, Room::Large],
            materials: vec![Material::HollowWall6In],
            human_counts: vec![0, 1, 2, 3],
            motions: vec![MotionModel::Crossing],
            trials_per_cell: 1,
            duration_s: 4.0,
        }
    }

    /// Number of trials the grid enumerates.
    pub fn len(&self) -> usize {
        self.rooms.len()
            * self.materials.len()
            * self.human_counts.len()
            * self.motions.len()
            * self.trials_per_cell as usize
    }

    /// `true` if the grid enumerates nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every trial in deterministic order.
    pub fn specs(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::with_capacity(self.len());
        for &room in &self.rooms {
            for &material in &self.materials {
                for &n_humans in &self.human_counts {
                    for &motion in &self.motions {
                        for trial in 0..self.trials_per_cell {
                            out.push(ScenarioSpec {
                                room,
                                material,
                                n_humans,
                                motion,
                                trial,
                                duration_s: self.duration_s,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_full_cartesian_product() {
        let grid = ScenarioGrid {
            rooms: vec![Room::Small, Room::Large],
            materials: vec![
                Material::TintedGlass,
                Material::HollowWall6In,
                Material::ConcreteWall8In,
            ],
            human_counts: vec![0, 1, 2, 3],
            motions: vec![MotionModel::RandomWalk, MotionModel::Pacing],
            trials_per_cell: 2,
            duration_s: 4.0,
        };
        let specs = grid.specs();
        assert_eq!(specs.len(), 2 * 3 * 4 * 2 * 2);
        assert_eq!(specs.len(), grid.len());
        assert!(!grid.is_empty());
        // All seeds distinct.
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed()).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), specs.len());
    }

    #[test]
    fn seed_depends_only_on_coordinates() {
        let a = ScenarioSpec {
            room: Room::Small,
            material: Material::HollowWall6In,
            n_humans: 2,
            motion: MotionModel::RandomWalk,
            trial: 3,
            duration_s: 4.0,
        };
        let b = ScenarioSpec {
            duration_s: 25.0,
            ..a
        };
        // Duration is not a coordinate: the same scenario recorded longer
        // keeps its randomness.
        assert_eq!(a.seed(), b.seed());
        let c = ScenarioSpec { trial: 4, ..a };
        assert_ne!(a.seed(), c.seed());
        let d = ScenarioSpec {
            motion: MotionModel::Pacing,
            ..a
        };
        assert_ne!(a.seed(), d.seed());
    }

    #[test]
    fn scenes_are_deterministic_and_respect_spec() {
        for motion in [
            MotionModel::RandomWalk,
            MotionModel::Pacing,
            MotionModel::Perimeter,
        ] {
            let spec = ScenarioSpec {
                room: Room::Small,
                material: Material::TintedGlass,
                n_humans: 3,
                motion,
                trial: 0,
                duration_s: 6.0,
            };
            let s1 = spec.build_scene();
            let s2 = spec.build_scene();
            assert_eq!(s1.movers.len(), 3);
            let rect = spec.room.rect();
            for t in [0.0, 2.0, 5.5] {
                for (m1, m2) in s1.movers.iter().zip(&s2.movers) {
                    assert_eq!(m1.position(t), m2.position(t), "{motion:?} t={t}");
                    assert!(rect.contains(m1.position(t)), "{motion:?} escaped at t={t}");
                }
            }
        }
    }

    #[test]
    fn crossing_scenes_are_deterministic_and_paced_inside_the_room() {
        for n in [1usize, 2, 3] {
            let spec = ScenarioSpec {
                room: Room::Small,
                material: Material::HollowWall6In,
                n_humans: n,
                motion: MotionModel::Crossing,
                trial: 0,
                duration_s: 4.0,
            };
            let s1 = spec.build_scene();
            let s2 = spec.build_scene();
            assert_eq!(s1.movers.len(), n);
            let rect = spec.room.rect();
            for t in [0.0, 2.0, 4.0] {
                for (m1, m2) in s1.movers.iter().zip(&s2.movers) {
                    assert_eq!(m1.position(t), m2.position(t));
                    assert!(rect.contains(m1.position(t)), "escaped at t={t}");
                }
            }
            // Nobody parks during the trial: every mover still moves at
            // the end.
            for m in &s1.movers {
                let d = m.position(4.0).distance(m.position(3.8));
                assert!(d > 0.01, "mover parked before the trial ended");
            }
        }
    }

    #[test]
    fn ground_truth_thetas_sign_convention() {
        // An approaching mover closes range ⇒ positive θ; receding ⇒
        // negative.
        let spec = ScenarioSpec {
            room: Room::Small,
            material: Material::HollowWall6In,
            n_humans: 2, // mover 0 approaches, mover 1 recedes
            motion: MotionModel::Crossing,
            trial: 0,
            duration_s: 4.0,
        };
        let scene = spec.build_scene();
        let cfg = WiViConfig::paper_default();
        let gt = ground_truth_thetas(&scene, &cfg, &[1.0, 2.0, 3.0]);
        assert_eq!(gt.len(), 3);
        for row in &gt {
            assert_eq!(row.len(), 2);
            assert!(row[0] > 0.0, "approacher got θ {}", row[0]);
            assert!(row[1] < 0.0, "receder got θ {}", row[1]);
            assert!(row.iter().all(|t| t.abs() <= 90.0));
        }
    }

    #[test]
    fn score_tracking_counts_and_purity() {
        use wivi_track::{track_spectrogram, TrackerConfig};
        // A synthetic spectrogram with one clean ridge at +45° lets us
        // pin the scorer: perfect count accuracy and purity against a
        // matching single-mover ground truth, zero accuracy against a
        // ground truth that says nobody is there.
        let thetas: Vec<f64> = (0..61).map(|i| -90.0 + 3.0 * i as f64).collect();
        let n_win = 30usize;
        let rows: Vec<Vec<f64>> = (0..n_win)
            .map(|_| {
                thetas
                    .iter()
                    .map(|&th| {
                        let db: f64 = 30.0 - 0.5 * (th - 45.0) * (th - 45.0);
                        1.0 + if db > 0.0 { 10f64.powf(db / 10.0) } else { 0.0 }
                    })
                    .collect()
            })
            .collect();
        let cfg = wivi_core::MusicConfig::fast_test();
        let spec = wivi_core::AngleSpectrogram::new(
            thetas,
            cfg.isar
                .window_times(cfg.isar.window + (n_win - 1) * cfg.isar.hop),
            rows,
        );
        let report = track_spectrogram(&spec, TrackerConfig::for_music(&cfg));
        assert_eq!(report.tracks.len(), 1);

        let gt_present: Vec<Vec<f64>> = (0..n_win).map(|_| vec![45.0]).collect();
        let (acc, purity) = score_tracking(&report, &gt_present, 5);
        assert_eq!(acc, 1.0);
        assert_eq!(purity, 1.0);

        let gt_empty: Vec<Vec<f64>> = (0..n_win).map(|_| Vec::new()).collect();
        let (acc0, purity0) = score_tracking(&report, &gt_empty, 5);
        assert_eq!(acc0, 0.0, "phantom track must score zero accuracy");
        assert_eq!(purity0, 0.0);
    }
}
