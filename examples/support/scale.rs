//! Problem-size scaling shared by every example (included via `#[path]`, so
//! it is not itself an example target).
//!
//! `MEG_EXAMPLE_SCALE` multiplies each example's nominal problem sizes; CI
//! smoke-runs the examples with `MEG_EXAMPLE_SCALE=0.1` (see `ci.sh`). It is
//! deliberately distinct from `meg-lab`'s `MEG_SCALE` so tuning one surface
//! never silently changes the other.

#![allow(dead_code)]

/// The multiplier from `MEG_EXAMPLE_SCALE` (default 1.0; unparsable → 1.0).
pub fn example_scale() -> f64 {
    std::env::var("MEG_EXAMPLE_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a nominal size, never dropping below `floor`.
pub fn scaled(n: usize, floor: usize) -> usize {
    ((n as f64 * example_scale()) as usize).max(floor)
}

/// Like [`scaled`], rounded down to an even value (for models that need an
/// even node count, e.g. the rotating bridge).
pub fn scaled_even(n: usize, floor: usize) -> usize {
    scaled(n, floor) & !1
}
