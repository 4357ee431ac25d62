//! Numerics substrate for the Wi-Vi reproduction.
//!
//! The Wi-Vi signal chain is built entirely on complex baseband arithmetic:
//! OFDM modulation needs an FFT, the smoothed-MUSIC direction estimator
//! needs an eigendecomposition of complex Hermitian correlation matrices,
//! and the channel simulator needs circularly-symmetric Gaussian noise.
//! None of the crates available offline provide these, so this crate
//! implements them from scratch with property-tested invariants:
//!
//! * [`Complex64`] — complex double-precision arithmetic ([`complex`]).
//! * [`fft`] — iterative radix-2 FFT/IFFT used by the OFDM PHY.
//! * [`CMatrix`] and [`eig::hermitian_eig`] — dense complex matrices and a
//!   cyclic-Jacobi Hermitian eigensolver, the core of MUSIC ([`matrix`],
//!   [`eig`]).
//! * [`rng`] — the deterministic in-house [`rng::Rng64`] generator with
//!   Box–Muller normal and circularly-symmetric complex Gaussian sampling.
//! * [`assign`] — exact small-N minimum-cost assignment (the
//!   data-association kernel of the multi-target tracker).
//! * [`kalman`] — the 2-state constant-velocity Kalman filter each track
//!   runs over its (θ, θ̇) ridge state.
//! * [`merge`] — the deterministic timestamp-ordered k-way merge the
//!   serving engine uses to unify per-session event streams.
//! * [`hash`] — the FNV-1a byte hash behind shard routing and seeds.
//! * [`grid2d`] and [`cfar`] — row-major image-buffer indexing and the
//!   cell-averaging CFAR detector of the 2-D imaging pipeline.
//! * [`stats`] — means, variances, percentiles, empirical CDFs and the
//!   dB conversions used throughout the evaluation harness.
//! * [`simd`] — runtime-dispatched AVX2 kernels for the complex inner
//!   loops (Givens rotations, butterflies, axpy, backprojection focus),
//!   bitwise-pinned to their scalar references (DESIGN.md §12).
//! * [`par`] — the order-preserving, thread-count-invariant parallel
//!   map the bench runner, imaging sweep, and serving shards share.
//! * [`probe`] — the `WIVI_OBS` observability switch plus single-writer
//!   per-thread kernel counters (SIMD dispatch levels, eig sweeps, FFT
//!   plan hits) that the `wivi-obs` registry exports (DESIGN.md §13).

pub mod assign;
pub mod cfar;
pub mod complex;
pub mod eig;
pub mod fft;
pub mod grid2d;
pub mod hash;
pub mod kalman;
pub mod matrix;
pub mod merge;
pub mod par;
pub mod probe;
pub mod rng;
pub mod simd;
pub mod stats;

pub use assign::{solve_assignment, Assignment};
pub use cfar::{ca_cfar_2d, CfarConfig, CfarDetection};
pub use complex::Complex64;
pub use eig::{hermitian_eig, EigWorkspace, HermitianEig};
pub use fft::FftPlan;
pub use grid2d::Grid2d;
pub use kalman::Kalman2;
pub use matrix::CMatrix;
pub use merge::{merge_streams, TimedStream};
pub use par::{parallel_map, parallel_map_threads};
pub use rng::Rng64;
