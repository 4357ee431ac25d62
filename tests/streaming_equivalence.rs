//! Batch invariance of every sensing mode: a mode's output must not
//! depend on how its observations are batched. Each test below checks
//! one row of the shared table in `common::batch` (the `track_targets`
//! row is checked in `tracking_equivalence.rs`): streaming at every
//! batch length must reproduce the offline one-shot output bit for bit.

mod common;

use common::assert_result_eq;
use common::batch::{assert_batch_invariant, cases, device, walker_scene};
use wivi::core::counting::mean_spatial_variance;
use wivi::core::stage::{Stage, StreamingMusic};
use wivi::prelude::*;

#[test]
fn batch_table_covers_every_mode() {
    let modes = cases().map(|c| c.mode);
    assert_eq!(modes, Mode::ALL, "table must cover every mode");
}

#[test]
fn streaming_track_is_bitwise_identical_to_offline() {
    assert_batch_invariant(Mode::Track);
}

#[test]
fn streaming_count_statistic_is_exact() {
    let ModeOutput::Count(mean) = assert_batch_invariant(Mode::Count) else {
        panic!("the count row returned another mode's payload");
    };
    // The count statistic is the mean spatial variance of the tracking
    // spectrogram of the same trial.
    let case = common::batch::case(Mode::Count);
    let spec = device((case.scene)(), case.seed).track(case.duration_s);
    assert_eq!(
        mean.map(f64::to_bits),
        Some(mean_spatial_variance(&spec).to_bits()),
        "count differs from the spectrogram's spatial variance"
    );
}

#[test]
fn streaming_gesture_decode_is_exact() {
    assert_batch_invariant(Mode::Gestures);
}

#[test]
fn streaming_imaging_is_bitwise_identical_to_offline() {
    let derived = assert_batch_invariant(Mode::Image);
    // An explicit configuration equal to the derived one round-trips.
    let case = common::batch::case(Mode::Image);
    let cfg = ImageConfig::for_wivi(&WiViConfig::fast_test());
    let explicit = device((case.scene)(), case.seed).image_with(case.duration_s, &cfg);
    assert_result_eq(&ModeOutput::Image(explicit), &derived, "explicit cfg");
}

#[test]
fn partial_spectrogram_grows_while_device_streams() {
    // Drive the stage manually off the device's front-end stream: columns
    // must appear incrementally, not only at the end.
    let mut dev = device(walker_scene(), 74);
    let cfg = dev.config().music;
    let rate = dev.config().radio.channel_rate_hz;
    let total = (2.0 * rate).round() as usize;

    let mut stage = StreamingMusic::new(cfg);
    let mut growth = Vec::new();
    let mut batch = Vec::new();
    let mut stream = dev.frontend_mut().observe_stream(total, 32);
    loop {
        let got = stream.next_batch_into(&mut batch);
        if got == 0 {
            break;
        }
        let samples: Vec<_> = batch.iter().map(|o| o.combined()).collect();
        stage.push(&samples);
        growth.push(stage.n_columns());
    }
    assert!(growth.len() > 3);
    assert!(
        growth[growth.len() - 1] > growth[0],
        "no incremental columns: {growth:?}"
    );
    assert!(growth.windows(2).all(|w| w[0] <= w[1]));
    let spec = stage.finish();
    assert_eq!(spec.n_times(), *growth.last().unwrap());
}
