//! Diagnostic: end-to-end imaging of a real simulated through-wall
//! scene (full radio chain: nulling, noise, gait, wall attenuation).
use wivi_core::{WiViConfig, WiViDevice};
use wivi_image::{ImageConfig, ImageThroughWall};
use wivi_rf::{Material, Mover, Point, Scene, WaypointWalker};

fn main() {
    let n_subjects: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(11);
    let ya: f64 = std::env::var("YA")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let yb: f64 = std::env::var("YB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.4);
    let duration = 6.0;

    let build = || {
        let mut s =
            Scene::new(Material::HollowWall6In).with_office_clutter(Scene::conference_room_small());
        s = s.with_mover(Mover::human(WaypointWalker::new(
            vec![Point::new(-2.6, ya), Point::new(2.6, ya)],
            1.0,
        )));
        if n_subjects >= 2 {
            s = s.with_mover(Mover::human(WaypointWalker::new(
                vec![Point::new(2.4, yb), Point::new(-2.6, yb)],
                1.0,
            )));
        }
        s
    };
    let scene = build();
    let gt_scene = build();

    let mut dev = WiViDevice::new(scene, WiViConfig::fast_test(), seed);
    dev.calibrate();
    let mut cfg = ImageConfig::wivi_default();
    if let Ok(d) = std::env::var("D") {
        cfg.cfar.threshold_db = d.parse().unwrap();
    }
    let t0 = std::time::Instant::now();
    let report = dev.image_with(duration, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "{} windows in {:.2}s wall ({:.0} samples/sec)",
        report.n_windows(),
        wall,
        duration * 312.5 / wall
    );

    let mut errs = Vec::new();
    let mut detected = 0usize;
    let mut total = 0usize;
    for (w, (t, fixes)) in report.times_s.iter().zip(&report.fixes).enumerate() {
        print!("w{w} t={t:.2}: ");
        for m in &gt_scene.movers {
            let p = m.position(*t);
            total += 1;
            let near = fixes
                .iter()
                .map(|f| (f.x_m - p.x).hypot(f.y_m - p.y))
                .fold(f64::INFINITY, f64::min);
            if near < 1.0 {
                detected += 1;
                errs.push(near);
            }
            print!("gt({:+.2},{:.2})e={near:.2} ", p.x, p.y);
        }
        for f in fixes {
            print!(
                "| fix({:+.2},{:.2}) {:.0}dB snr{:.0} ",
                f.x_m, f.y_m, f.power_db, f.snr_db
            );
        }
        println!();
    }
    errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    println!(
        "detection {detected}/{total} = {:.2}, mean err {mean:.3} m, median {:.3} m, tracks {}",
        detected as f64 / total as f64,
        errs.get(errs.len() / 2).copied().unwrap_or(f64::NAN),
        report.tracks.len()
    );
}
