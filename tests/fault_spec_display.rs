//! A `FaultSpec` prints as a spec that parses back to itself, so a
//! fault plan can be logged and replayed from its text.

use cbp::faults::FaultSpec;
use cbp::simkit::units::ByteSize;

#[path = "../crates/faults/tests/specs/mod.rs"]
mod specs;

#[test]
fn display_parses_back_to_the_same_spec() {
    let profiles = ["off", "light", "heavy", "chaos", "pressure"];
    for text in profiles.iter().chain(&specs::SPECS) {
        let spec = FaultSpec::parse(text).expect("a valid spec");
        let shown = spec.to_string();
        assert_eq!(
            FaultSpec::parse(&shown),
            Ok(spec),
            "{text:?} printed {shown:?}"
        );
    }
    assert_eq!(
        FaultSpec::default().to_string(),
        "",
        "the default prints nothing"
    );
}

/// `chunk-mb` truncates MB * 1e6 to whole bytes, so the printed MB must
/// truncate back to the same count at sizes no short decimal hits, up
/// to a petabyte (f64 products skip whole bytes near 2^53).
#[test]
fn chunk_sizes_round_trip_at_awkward_sizes() {
    let powers = (1..51).flat_map(|k| [(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
    let odd = [
        999_999,
        1_000_001,
        123_456_789,
        4_294_967_295,
        (1 << 50) - 1,
    ];
    for bytes in (1..=5_000).chain(powers).chain(odd) {
        let spec = FaultSpec {
            chunk_bytes: ByteSize::from_bytes(bytes),
            ..FaultSpec::heavy()
        };
        let shown = spec.to_string();
        assert_eq!(
            FaultSpec::parse(&shown),
            Ok(spec),
            "{bytes} bytes printed {shown:?}"
        );
    }
}
