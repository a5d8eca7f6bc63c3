//! Float-to-integer rounding without a libm call.
//!
//! `f64::round` is not an inline instruction on the baseline x86-64 target
//! (SSE2 has no round-to-nearest-away), so `x.round() as u64` calls the
//! soft-float `round` routine wherever the engine converts a fractional
//! tuple count or a scaled duration back to an integer. [`round_u64`]
//! computes the same value from a truncating cast and one compare.

/// Returns exactly `x.round() as u64` for every `f64`: halves round away from
/// zero, negative inputs and NaN give 0, and values at or beyond 2⁶⁴ saturate
/// at `u64::MAX`.
///
/// Below 2⁵² the truncating cast is exact and so is the fraction
/// `x - trunc(x)` (it keeps a subset of `x`'s significand bits), so comparing
/// that fraction with ½ decides the rounding direction exactly. From 2⁵² on
/// every `f64` is an integer, and the saturating cast alone is the answer, as
/// it is for negative inputs and NaN. The signed cast is the cheap one on
/// x86-64 (one `cvttsd2si`); the unsigned one needs a second range split.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    /// 2⁵²: the first binade whose values are all integers.
    const INTEGRAL: f64 = 4_503_599_627_370_496.0;
    if (0.0..INTEGRAL).contains(&x) {
        let whole = x as i64;
        (whole + i64::from(x - whole as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference(x: f64) -> u64 {
        x.round() as u64
    }

    #[test]
    fn matches_round_on_edge_inputs() {
        let two52 = 4_503_599_627_370_496.0_f64;
        let two53 = 9_007_199_254_740_992.0_f64;
        let two63 = 9_223_372_036_854_775_808.0_f64;
        let two64 = 18_446_744_073_709_551_616.0_f64;
        let mut inputs = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            -0.49999999999999994,
            two52 - 0.5,
            two52 + 0.5,
            two52 - 1.5,
            two53 + 1.0,
            two53 - 1.0,
            two63,
            two63 - 1024.0,
            two64,
            two64 - 2048.0,
            two64 * 2.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            -1.0,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        // Every multiple of ½ in a window around zero, both signs.
        for k in -40..=40 {
            inputs.push(k as f64 * 0.5);
        }
        // Halves up to where f64 stops representing them, and neighbours.
        for e in 1..=53 {
            let p = (1u64 << e) as f64;
            for x in [p - 0.5, p + 0.5, p - 1.0, p + 1.0] {
                inputs.push(x);
                inputs.push(f64::from_bits(x.to_bits() + 1));
                inputs.push(f64::from_bits(x.to_bits() - 1));
            }
        }
        for x in inputs {
            assert_eq!(
                round_u64(x),
                reference(x),
                "x = {x:e} (bits {:#x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn saturates_and_clamps() {
        assert_eq!(round_u64(f64::INFINITY), u64::MAX);
        assert_eq!(round_u64(1e30), u64::MAX);
        assert_eq!(round_u64(f64::NEG_INFINITY), 0);
        assert_eq!(round_u64(f64::NAN), 0);
        assert_eq!(round_u64(-0.5), 0);
        assert_eq!(round_u64(0.5), 1);
        assert_eq!(round_u64(2.5), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn matches_round_on_random_bit_patterns(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(round_u64(x), reference(x));
        }

        #[test]
        fn matches_round_on_random_magnitudes(x in 0.0f64..1e7, shift in 0u32..40) {
            // Uniform bit patterns rarely land on values with a fractional
            // part; these do, from below 1 to beyond 2^52.
            let y = x * (1u64 << shift) as f64 / 1024.0;
            prop_assert_eq!(round_u64(y), reference(y));
        }
    }
}
