//! Input robustness of `FaultSpec::parse`: a valid spec that is
//! truncated, bit-flipped or missing a byte must come back as `Ok` or
//! `Err`, never as a panic, and an accepted spec keeps a non-empty chunk
//! size.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cbp_faults::FaultSpec;
use proptest::prelude::*;

mod specs;

use specs::SPECS;

#[test]
fn every_seed_spec_parses() {
    for text in SPECS {
        if let Err(e) = FaultSpec::parse(text) {
            panic!("{text:?} does not parse: {e}");
        }
    }
}

/// One way of damaging a spec, at a position drawn per case.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate(usize),
    FlipBit(usize, u8),
    DeleteByte(usize),
}

fn mutate(text: &str, m: Mutation) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match m {
        Mutation::Truncate(at) => bytes.truncate(at),
        Mutation::FlipBit(at, bit) => bytes[at] ^= 1 << bit,
        Mutation::DeleteByte(at) => {
            bytes.remove(at);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    /// The stub runner does not shrink, so a failure names the seed that
    /// rebuilds the mutation.
    #[test]
    fn mutated_specs_never_panic_the_parser(seed in any::<u64>()) {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let text = SPECS[next() as usize % SPECS.len()];
        let at = next() as usize % text.len();
        let m = match next() % 3 {
            0 => Mutation::Truncate(at),
            1 => Mutation::FlipBit(at, (next() % 8) as u8),
            _ => Mutation::DeleteByte(at),
        };
        let mutated = mutate(text, m);
        let outcome = catch_unwind(AssertUnwindSafe(|| FaultSpec::parse(&mutated)));
        prop_assert!(
            outcome.is_ok(),
            "seed {seed}: {text:?} with {m:?} ({mutated:?}) panicked the parser"
        );
        if let Ok(Ok(spec)) = outcome {
            prop_assert!(
                spec.chunk_bytes.as_u64() > 0,
                "seed {seed}: {mutated:?} parsed to an empty chunk size"
            );
        }
    }
}
