//! The emit helpers [`super::push_u64`], [`super::push_str_escaped`] and
//! [`super::push_key`] replaced, kept as test references: `push_u64`
//! formatted through `write!`, and the string helpers pushed one char at
//! a time. The tests below check that the helpers write the same bytes.

use std::fmt::Write as _;

use proptest::prelude::*;

use super::{push_key, push_str_escaped, push_u64};
use crate::test_rng::Rng;

/// The previous `push_u64`.
fn reference_u64(out: &mut String, x: u64) {
    let _ = write!(out, "{x}");
}

/// The previous `push_str_escaped`.
fn reference_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The previous `push_key`.
fn reference_key(out: &mut String, key: &str) {
    reference_str_escaped(out, key);
    out.push(':');
}

/// What `push` and `reference` append to the same non-empty text.
fn both<T: Copy>(x: T, push: fn(&mut String, T), reference: fn(&mut String, T)) -> [String; 2] {
    [push, reference].map(|f| {
        let mut out = String::from("{\"a\":");
        f(&mut out, x);
        out
    })
}

/// 0, 9, 10, every power of ten with its neighbours, and `u64::MAX`.
fn edge_u64s() -> Vec<u64> {
    let mut xs = vec![0, 1, 9, 10, u64::MAX - 1, u64::MAX];
    let mut p = 10u64;
    while let Some(next) = p.checked_mul(10) {
        p = next;
        xs.extend([p - 1, p, p + 1]);
    }
    xs
}

/// A string mixing what the escaper treats apart: quotes, backslashes,
/// control characters, DEL, multi-byte text and plain ASCII.
fn mixed_string(rng: &mut Rng) -> String {
    (0..rng.below(24))
        .map(|_| match rng.below(6) {
            0 => rng.pick(&['"', '\\', '/']),
            1 => char::from(rng.below(0x20) as u8),
            2 => rng.pick(&['é', '∑', '𝄞', '\u{7f}', '\u{2028}', '\u{fffd}']),
            _ => char::from(b' ' + rng.below(95) as u8),
        })
        .collect()
}

#[test]
fn push_u64_matches_write_at_digit_boundaries() {
    for x in edge_u64s() {
        let [new, old] = both(x, push_u64, reference_u64);
        assert_eq!(new, old, "{x}");
    }
}

#[test]
fn escaping_matches_the_char_loop_on_every_control_character() {
    for c in (0..0x20u8).map(char::from).chain(['"', '\\', '\u{7f}']) {
        let s = format!("a{c}b");
        let [new, old] = both(s.as_str(), push_str_escaped, reference_str_escaped);
        assert_eq!(new, old, "{c:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn emit_helpers_match_their_references(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        for _ in 0..64 {
            let x = match rng.below(3) {
                0 => rng.next(),
                1 => rng.next() >> rng.below(64),
                _ => rng.u64(),
            };
            let [new, old] = both(x, push_u64, reference_u64);
            prop_assert_eq!(new, old, "seed {}: {}", seed, x);

            let s = mixed_string(&mut rng);
            let [new, old] = both(s.as_str(), push_str_escaped, reference_str_escaped);
            prop_assert_eq!(new, old, "seed {}: {:?}", seed, s);
            let [new, old] = both(s.as_str(), push_key, reference_key);
            prop_assert_eq!(new, old, "seed {}: key {:?}", seed, s);
        }
    }
}
