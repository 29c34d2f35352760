//! Input robustness of `FaultSpec::parse`: a valid spec that is
//! truncated, bit-flipped or missing a byte must come back as `Ok` or
//! `Err`, never as a panic, and an accepted spec keeps a non-empty chunk
//! size.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cbp_faults::FaultSpec;
use proptest::prelude::*;

/// Valid specs: every profile, the plans the golden replays use, and one
/// list that sets every key.
const SPECS: [&str; 9] = [
    "off",
    "light,seed=11",
    "heavy,corrupt=0.3,resume=false,seed=11",
    "chaos,partition=1,seed=11",
    "chaos,rack-size=2,rack=0.3,seed=11",
    "pressure,cap=0.01,leak=0.6,leak-window=300,seed=11",
    "heavy,chunk-mb=0.5,dump-retries=3,restore-retries=2",
    "seed=7,dump=0.1,restore=0.1,corrupt=0.05,am=0.02,stall=0.1,slowdown=3,\
     window=600,backoff=5,escalation=120,crash=0.01,rack=0.005,downtime=300,\
     crash-window=3600,partition=0.5,penalty=4,partition-window=1800",
    "rack-size=4,breaker=0.5,breaker-min=4,breaker-cooldown=300,\
     breaker-decay=0.9,cap=0.5,leak=0.25,leak-gb=2,leak-window=300,\
     chunk-mb=16,resume=true",
];

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
